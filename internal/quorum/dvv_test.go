package quorum

import (
	"context"
	"testing"
	"time"

	"sedna/internal/kv"
)

func dottedVer(val string, wall int64, src string, dot kv.Dot, ctx kv.DVV) kv.Versioned {
	return kv.Versioned{
		Value:  []byte(val),
		TS:     kv.Timestamp{Wall: wall, Node: dot.Node},
		Source: src,
		Dot:    dot,
		Ctx:    ctx,
	}
}

// TestReadMergesConcurrentSiblings: two writers raced to different replicas;
// a quorum read must surface BOTH values (the causal merge), not silently
// pick a timestamp winner.
func TestReadMergesConcurrentSiblings(t *testing.T) {
	fc := newFakeCluster(nodes3...)
	e := newEngine(t, fc)
	a := &kv.Row{}
	a.ApplyCausal(dottedVer("from-a", 5, "sA", kv.Dot{Node: 1, Counter: 1}, nil), true, 0)
	b := &kv.Row{}
	b.ApplyCausal(dottedVer("from-b", 6, "sB", kv.Dot{Node: 2, Counter: 1}, nil), true, 0)
	fc.setRow("r1", "k", a)
	fc.setRow("r2", "k", b)
	fc.setRow("r3", "k", a)
	// Slow one a-holder: two equal rows would satisfy R=2 via the early
	// exit without ever observing b's sibling.
	fc.mu.Lock()
	fc.slow["r3"] = 20 * time.Millisecond
	fc.mu.Unlock()

	res, err := e.Read(context.Background(), nodes3, "k")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.Row.Live()); n != 2 {
		t.Fatalf("merged read has %d live values, want both siblings: %+v", n, res.Row.Values)
	}
	if v, ok := res.Row.Latest(); !ok || string(v.Value) != "from-b" {
		t.Fatalf("merged winner = %+v, %v", v, ok)
	}
}

// TestDottedWriteReplayNotOutdated: redelivering the same dotted write (a
// coordinator retry) is idempotent — it acks again and stores one value.
func TestDottedWriteReplayNotOutdated(t *testing.T) {
	fc := newFakeCluster(nodes3...)
	e := newEngine(t, fc)
	v := dottedVer("x", 3, "s1", kv.Dot{Node: 1, Counter: 1}, nil)
	for i := 0; i < 2; i++ {
		res, err := e.Write(context.Background(), nodes3, "k", v, Latest)
		if err != nil {
			t.Fatal(err)
		}
		if res.Acked < 2 {
			t.Fatalf("attempt %d acked by %d replicas", i, res.Acked)
		}
	}
	if got := fc.row("r1", "k"); len(got.Values) != 1 {
		t.Fatalf("replay duplicated the value: %+v", got.Values)
	}
}

// TestReadRepairShipsCausalRow: the repair payload is the merged causal row —
// delivering it must retire the stale replica's superseded sibling (its dot
// is covered by the merged clock and no longer held), not duplicate values.
func TestReadRepairShipsCausalRow(t *testing.T) {
	fc := newFakeCluster(nodes3...)
	e := newEngine(t, fc)
	old := dottedVer("old", 1, "s1", kv.Dot{Node: 1, Counter: 1}, nil)
	stale := &kv.Row{}
	stale.ApplyCausal(old.Clone(), true, 0)
	var ctx kv.DVV
	ctx.Fold(old.Dot)
	fresh := stale.Clone()
	fresh.ApplyCausal(dottedVer("new", 2, "s2", kv.Dot{Node: 2, Counter: 1}, ctx), true, 0)
	fc.setRow("r1", "k", fresh)
	fc.setRow("r2", "k", fresh)
	fc.setRow("r3", "k", stale)
	fc.mu.Lock()
	fc.slow["r1"] = 20 * time.Millisecond
	fc.mu.Unlock()

	res, err := e.Read(context.Background(), nodes3, "k")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Row.Values) != 1 || string(res.Row.Values[0].Value) != "new" {
		t.Fatalf("merged row = %+v", res.Row.Values)
	}
	deadline := time.Now().Add(time.Second)
	for {
		got := fc.row("r3", "k")
		if got.Equal(res.Row) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stale replica not causally repaired: %+v", got.Values)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestReadRepairRowNotAliased is the aliasing regression for the async
// read-repair path: the row handed back to the caller must not share memory
// with the row the detached repair goroutine is still delivering. The caller
// mutates its result immediately while a slowed repair is in flight; run
// under -race this flags any sharing.
func TestReadRepairRowNotAliased(t *testing.T) {
	fc := newFakeCluster(nodes3...)
	e := newEngine(t, fc)
	fresh := &kv.Row{}
	fresh.ApplyCausal(dottedVer("new-value", 10, "s1", kv.Dot{Node: 1, Counter: 2}, nil), true, 0)
	stale := &kv.Row{}
	stale.ApplyCausal(dottedVer("old-value", 1, "s1", kv.Dot{Node: 1, Counter: 1}, nil), true, 0)
	fc.setRow("r1", "k", fresh)
	fc.setRow("r2", "k", fresh)
	fc.setRow("r3", "k", stale)
	// Slow one fresh replica so the read observes the stale copy and must
	// schedule a repair. The race detector works on happens-before, not wall
	// time: if the detached repair shares memory with the returned row, the
	// scribble below is flagged no matter how the deliveries interleave.
	fc.mu.Lock()
	fc.slow["r1"] = 20 * time.Millisecond
	fc.mu.Unlock()

	res, err := e.Read(context.Background(), nodes3, "k")
	if err != nil {
		t.Fatal(err)
	}
	// Scribble over everything the caller can reach while the repair to r3
	// is still being delivered.
	for i := range res.Row.Values {
		for j := range res.Row.Values[i].Value {
			res.Row.Values[i].Value[j] = 'X'
		}
		res.Row.Values[i].Source = "mutated"
	}
	res.Row.Clock.Fold(kv.Dot{Node: 99, Counter: 99})
	res.Row.Values = nil

	deadline := time.Now().Add(time.Second)
	for {
		got := fc.row("r3", "k")
		if v, ok := got.Latest(); ok && string(v.Value) == "new-value" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("repair never delivered the fresh value")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
