//go:build !race

package cluster

// Allocation budget for the ring read every replica op makes. Excluded
// under -race because instrumentation adds allocations; the sharing
// semantics are covered by TestHeldRingSnapshotSurvivesAdoptions, which
// does run under -race.

import (
	"fmt"
	"testing"

	"sedna/internal/ring"
)

func TestRingAllocBudget(t *testing.T) {
	m := &Manager{cfg: Config{Node: "n0"}}
	tb := ring.NewTable(128, 3)
	for i := 0; i < 3; i++ {
		tb.AddNode(ring.NodeID(fmt.Sprintf("n%d", i)))
	}
	m.adoptTable(tb)
	if n := testing.AllocsPerRun(1000, func() {
		if m.Ring() == nil {
			t.Fatal("no ring after adoption")
		}
	}); n != 0 {
		t.Fatalf("Ring allocates %.1f/op, want 0", n)
	}
}
