package ring

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
)

// randomRing builds a ring via a random sequence of table mutations so the
// epoch vector carries non-trivial values.
func randomRing(t *testing.T, rng *rand.Rand) *Ring {
	t.Helper()
	vnodes := 1 + rng.Intn(64)
	replicas := 1 + rng.Intn(4)
	tb := NewTable(vnodes, replicas)
	names := []NodeID{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
	n := 1 + rng.Intn(len(names))
	for i := 0; i < n; i++ {
		tb.AddNode(names[i])
	}
	for i := 0; i < rng.Intn(3); i++ {
		switch rng.Intn(3) {
		case 0:
			tb.AddNode(names[rng.Intn(len(names))])
		case 1:
			live := tb.Nodes()
			if len(live) > 1 {
				tb.RemoveNode(live[rng.Intn(len(live))])
			}
		case 2:
			live := tb.Nodes()
			if len(live) > 0 {
				_, _ = tb.MovePrimary(VNodeID(rng.Intn(vnodes)), live[rng.Intn(len(live))])
			}
		}
	}
	return tb.Snapshot()
}

func ringsEqual(t *testing.T, want, got *Ring) {
	t.Helper()
	if got.Version() != want.Version() {
		t.Fatalf("version %d != %d", got.Version(), want.Version())
	}
	if got.NumVNodes() != want.NumVNodes() || got.ReplicaFactor() != want.ReplicaFactor() {
		t.Fatalf("shape mismatch: %d/%d vs %d/%d",
			got.NumVNodes(), got.ReplicaFactor(), want.NumVNodes(), want.ReplicaFactor())
	}
	for v := 0; v < want.NumVNodes(); v++ {
		a, b := want.Owners(VNodeID(v)), got.Owners(VNodeID(v))
		if len(a) != len(b) {
			t.Fatalf("vnode %d owner count %d != %d", v, len(b), len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("vnode %d slot %d: %q != %q", v, i, b[i], a[i])
			}
		}
		if got.EpochOf(VNodeID(v)) != want.EpochOf(VNodeID(v)) {
			t.Fatalf("vnode %d epoch %d != %d", v, got.EpochOf(VNodeID(v)), want.EpochOf(VNodeID(v)))
		}
	}
}

// TestRingCodecPropertyRoundTrip drives the codec with many randomly built
// rings (membership churn bumps epochs) and requires a lossless round trip,
// epoch fields included.
func TestRingCodecPropertyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(0xc0dec))
	for i := 0; i < 200; i++ {
		r := randomRing(t, rng)
		got, err := DecodeRing(EncodeRing(r))
		if err != nil {
			t.Fatalf("iter %d: decode: %v", i, err)
		}
		ringsEqual(t, r, got)
	}
}

// TestRingCodecEpochsSurviveMutations checks that every table mutation that
// changes an assignment bumps the moved vnodes' epochs and that the bumped
// values survive the codec.
func TestRingCodecEpochsSurviveMutations(t *testing.T) {
	tb := NewTable(16, 3)
	tb.AddNode("a")
	tb.AddNode("b")
	tb.AddNode("c")
	base := tb.Snapshot()
	moves := tb.AddNode("d")
	if len(moves) == 0 {
		t.Fatal("join moved nothing")
	}
	after := tb.Snapshot()
	for _, m := range moves {
		if after.EpochOf(m.VNode) <= base.EpochOf(m.VNode) {
			t.Fatalf("move %v did not bump epoch (%d -> %d)",
				m, base.EpochOf(m.VNode), after.EpochOf(m.VNode))
		}
	}
	got, err := DecodeRing(EncodeRing(after))
	if err != nil {
		t.Fatal(err)
	}
	ringsEqual(t, after, got)
}

// TestRingCodecRejectsTruncatedAndOversize cuts a valid snapshot at every
// prefix length and also feeds implausible headers and trailing garbage; all
// must be rejected, none may panic.
func TestRingCodecRejectsTruncatedAndOversize(t *testing.T) {
	tb := NewTable(9, 3)
	tb.AddNode("a")
	tb.AddNode("b")
	tb.AddNode("c")
	tb.RemoveNode("b") // non-zero epochs in the tail
	blob := EncodeRing(tb.Snapshot())

	for cut := 0; cut < len(blob); cut++ {
		if _, err := DecodeRing(blob[:cut]); err == nil {
			t.Fatalf("accepted truncation at %d of %d", cut, len(blob))
		} else if !errors.Is(err, ErrCorruptRing) {
			t.Fatalf("truncation at %d: unexpected error %v", cut, err)
		}
	}

	garbage := append(append([]byte(nil), blob...), 0xfe)
	if _, err := DecodeRing(garbage); err == nil {
		t.Fatal("accepted trailing garbage")
	}

	// Oversize header fields must be rejected before any allocation is
	// attempted.
	oversize := append([]byte(nil), blob...)
	binary.LittleEndian.PutUint32(oversize[9:], 1<<25) // vnode count
	if _, err := DecodeRing(oversize); !errors.Is(err, ErrCorruptRing) {
		t.Fatalf("oversize vnode count: %v", err)
	}
	oversize = append([]byte(nil), blob...)
	binary.LittleEndian.PutUint32(oversize[14:], 1<<21) // node table size
	if _, err := DecodeRing(oversize); !errors.Is(err, ErrCorruptRing) {
		t.Fatalf("oversize node table: %v", err)
	}
	zero := append([]byte(nil), blob...)
	binary.LittleEndian.PutUint32(zero[9:], 0)
	if _, err := DecodeRing(zero); !errors.Is(err, ErrCorruptRing) {
		t.Fatalf("zero vnode count: %v", err)
	}
}

// TestMoveSlotCAS exercises the cutover commit primitive: stale expectations
// and duplicate holders are rejected, success bumps both the epoch and the
// ring version, and a previously unseen target becomes a member.
func TestMoveSlotCAS(t *testing.T) {
	tb := NewTable(8, 3)
	tb.AddNode("a")
	tb.AddNode("b")
	tb.AddNode("c")
	r := tb.Snapshot()
	v := VNodeID(3)
	owners := r.Owners(v)
	donor := owners[0]

	if err := tb.MoveSlot(v, 0, "wrong-node", "joiner"); !errors.Is(err, ErrStaleMove) {
		t.Fatalf("stale from: %v", err)
	}
	if err := tb.MoveSlot(v, 0, donor, owners[1]); !errors.Is(err, ErrStaleMove) {
		t.Fatalf("duplicate holder: %v", err)
	}
	if err := tb.MoveSlot(v, 0, donor, "joiner"); err != nil {
		t.Fatalf("valid move: %v", err)
	}
	after := tb.Snapshot()
	if after.Owners(v)[0] != "joiner" {
		t.Fatalf("owner after move = %q", after.Owners(v)[0])
	}
	if after.EpochOf(v) != r.EpochOf(v)+1 {
		t.Fatalf("epoch %d, want %d", after.EpochOf(v), r.EpochOf(v)+1)
	}
	if after.Version() != r.Version()+1 {
		t.Fatalf("version %d, want %d", after.Version(), r.Version()+1)
	}
	found := false
	for _, n := range tb.Nodes() {
		if n == "joiner" {
			found = true
		}
	}
	if !found {
		t.Fatal("joiner not registered as member")
	}
}
