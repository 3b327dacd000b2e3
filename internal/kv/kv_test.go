package kv

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestKeySplitJoin(t *testing.T) {
	cases := []struct {
		key                  Key
		dataset, table, name string
	}{
		{Join("web", "pages", "url1"), "web", "pages", "url1"},
		{Key("web/pages/url1"), "web", "pages", "url1"},
		{Key("pages/url1"), "", "pages", "url1"},
		{Key("url1"), "", "", "url1"},
		{Key("a/b/c/d"), "a", "b", "c/d"},
		{Key(""), "", "", ""},
		{Join("", "", "x"), "", "", "x"},
	}
	for _, c := range cases {
		d, tb, n := c.key.Split()
		if d != c.dataset || tb != c.table || n != c.name {
			t.Errorf("Split(%q) = %q,%q,%q; want %q,%q,%q", c.key, d, tb, n, c.dataset, c.table, c.name)
		}
	}
}

func TestKeyAccessors(t *testing.T) {
	k := Join("ds", "tb", "nm")
	if got := k.Dataset(); got != "ds" {
		t.Errorf("Dataset = %q", got)
	}
	if got := k.Table(); got != "ds/tb" {
		t.Errorf("Table = %q", got)
	}
	if got := k.Name(); got != "nm" {
		t.Errorf("Name = %q", got)
	}
}

func TestTimestampCompare(t *testing.T) {
	a := Timestamp{Wall: 1, Logical: 0, Node: 0}
	b := Timestamp{Wall: 1, Logical: 1, Node: 0}
	c := Timestamp{Wall: 2, Logical: 0, Node: 0}
	d := Timestamp{Wall: 1, Logical: 1, Node: 1}
	if !a.Before(b) || !b.Before(c) || !a.Before(c) || !b.Before(d) {
		t.Fatal("ordering violated")
	}
	if a.Compare(a) != 0 {
		t.Fatal("self compare not zero")
	}
	if !c.After(a) {
		t.Fatal("After inconsistent")
	}
	if !ZeroTS.IsZero() || a.IsZero() {
		t.Fatal("IsZero wrong")
	}
}

func TestTimestampCompareTotalOrder(t *testing.T) {
	f := func(w1, w2 int64, l1, l2, n1, n2 uint32) bool {
		a := Timestamp{Wall: w1, Logical: l1, Node: n1}
		b := Timestamp{Wall: w2, Logical: l2, Node: n2}
		ab, ba := a.Compare(b), b.Compare(a)
		if ab != -ba {
			return false
		}
		if ab == 0 && a != b {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestClockMonotone(t *testing.T) {
	c := NewClock(7)
	prev := c.Now()
	if prev.Node != 7 {
		t.Fatalf("node id = %d", prev.Node)
	}
	for i := 0; i < 10000; i++ {
		ts := c.Now()
		if !ts.After(prev) {
			t.Fatalf("clock went backwards: %v then %v", prev, ts)
		}
		prev = ts
	}
}

func TestClockFrozenTimeStillMonotone(t *testing.T) {
	c := NewClockAt(1, func() int64 { return 42 })
	prev := c.Now()
	for i := 0; i < 100; i++ {
		ts := c.Now()
		if !ts.After(prev) {
			t.Fatalf("frozen clock not monotone: %v then %v", prev, ts)
		}
		if ts.Wall != 42 {
			t.Fatalf("wall = %d, want 42", ts.Wall)
		}
		prev = ts
	}
}

func TestClockObserve(t *testing.T) {
	c := NewClockAt(1, func() int64 { return 10 })
	c.Observe(Timestamp{Wall: 100, Logical: 5, Node: 9})
	ts := c.Now()
	if ts.Wall != 100 || ts.Logical != 6 {
		t.Fatalf("after observe, Now = %v; want 100.6", ts)
	}
}

func TestClockConcurrent(t *testing.T) {
	c := NewClock(3)
	const workers = 8
	const per = 2000
	seen := make([][]Timestamp, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out := make([]Timestamp, per)
			for i := range out {
				out[i] = c.Now()
			}
			seen[w] = out
		}(w)
	}
	wg.Wait()
	all := map[Timestamp]bool{}
	for _, s := range seen {
		for i, ts := range s {
			if all[ts] {
				t.Fatalf("duplicate timestamp issued: %v", ts)
			}
			all[ts] = true
			if i > 0 && !ts.After(s[i-1]) {
				t.Fatalf("per-goroutine order violated")
			}
		}
	}
}

func TestRowLatestSkipsTombstones(t *testing.T) {
	r := &Row{}
	x := dotted("x", 1, "a", Dot{Node: 1, Counter: 1}, nil)
	r.ApplyCausal(x, true, 0)
	var ctx DVV
	ctx.Fold(x.Dot)
	del := dotted("", 2, "a", Dot{Node: 1, Counter: 2}, ctx)
	del.Value, del.Deleted = nil, true
	r.ApplyCausal(del, true, 0)
	if _, ok := r.Latest(); ok {
		t.Fatal("Latest returned a tombstone")
	}
	if len(r.Values) != 1 || !r.Values[0].Deleted {
		t.Fatalf("row should hold just the tombstone: %+v", r.Values)
	}
	if live := r.Live(); len(live) != 0 {
		t.Fatalf("Live = %v, want empty", live)
	}
}

func TestRowLiveSortedFreshestFirst(t *testing.T) {
	r := &Row{}
	r.ApplyCausal(dotted("1", 1, "a", Dot{Node: 1, Counter: 1}, nil), false, 0)
	r.ApplyCausal(dotted("3", 3, "b", Dot{Node: 2, Counter: 1}, nil), false, 0)
	r.ApplyCausal(dotted("2", 2, "c", Dot{Node: 3, Counter: 1}, nil), false, 0)
	live := r.Live()
	if len(live) != 3 {
		t.Fatalf("len = %d", len(live))
	}
	for i := 1; i < len(live); i++ {
		if live[i].TS.After(live[i-1].TS) {
			t.Fatalf("Live not sorted freshest first: %v", live)
		}
	}
}

// TestRowMergeCommutative: a's value for s1 supersedes b's (a's write
// observed it), and everything else is concurrent. Both merge orders keep
// the same three values.
func TestRowMergeCommutative(t *testing.T) {
	b1 := dotted("b1", 2, "s1", Dot{Node: 1, Counter: 1}, nil)
	var seen DVV
	seen.Fold(b1.Dot)
	a := &Row{}
	a.ApplyCausal(b1.Clone(), false, 0)
	a.ApplyCausal(dotted("a1", 3, "s1", Dot{Node: 1, Counter: 2}, seen), false, 0)
	a.ApplyCausal(dotted("a2", 1, "s2", Dot{Node: 2, Counter: 1}, nil), false, 0)
	b := &Row{}
	b.ApplyCausal(b1.Clone(), false, 0)
	b.ApplyCausal(dotted("b3", 5, "s3", Dot{Node: 3, Counter: 1}, nil), false, 0)

	ab := a.Clone()
	ab.Merge(b)
	ba := b.Clone()
	ba.Merge(a)
	if !ab.Equal(ba) {
		t.Fatalf("merge not commutative:\n ab=%+v\n ba=%+v", ab.Values, ba.Values)
	}
	if len(ab.Values) != 3 {
		t.Fatalf("merged size = %d, want 3", len(ab.Values))
	}
	for _, v := range ab.Values {
		if v.Source == "s1" && string(v.Value) != "a1" {
			t.Fatalf("merge resurrected the superseded value for s1: %+v", v)
		}
	}
}

func TestRowMergeIdempotent(t *testing.T) {
	a := &Row{}
	a.ApplyCausal(dotted("x", 2, "s", Dot{Node: 1, Counter: 1}, nil), false, 0)
	before := a.Clone()
	if a.Merge(before) {
		t.Fatal("merging a row with itself reported a change")
	}
	if !a.Equal(before) {
		t.Fatal("self-merge changed the row")
	}
}

func TestRowMergeProperty(t *testing.T) {
	// Property: merge is associative and commutative over random rows, the
	// CRDT-style requirement behind read repair and replica recovery. Each
	// spec is one write by one of five sources; a write's context is the
	// row it lands on, as a read-modify-write's would be, and dots are
	// minted per source, so the three rows share a dot namespace.
	type spec struct {
		Src  uint8
		Wall uint8
		Val  uint8
		Del  bool
		Ctx  bool
	}
	f := func(s1, s2, s3 []spec) bool {
		seq := map[uint32]uint64{}
		build := func(specs []spec) *Row {
			r := &Row{}
			for _, s := range specs {
				node := uint32(s.Src%5) + 1
				seq[node]++
				v := Versioned{
					Value:   []byte{s.Val},
					TS:      Timestamp{Wall: int64(s.Wall), Node: node},
					Source:  string(rune('a' + s.Src%5)),
					Deleted: s.Del,
					Dot:     Dot{Node: node, Counter: seq[node]},
				}
				if s.Ctx {
					v.Ctx = r.Clock.Clone()
				}
				r.ApplyCausal(v, false, 0)
			}
			return r
		}
		a, b, c := build(s1), build(s2), build(s3)
		// (a ∪ b) ∪ c
		x := a.Clone()
		x.Merge(b)
		x.Merge(c)
		// a ∪ (c ∪ b)
		y := c.Clone()
		y.Merge(b)
		y.Merge(a)
		return x.Equal(y)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestVersionedCloneIndependence(t *testing.T) {
	v := Versioned{Value: []byte("abc"), TS: Timestamp{Wall: 1}, Source: "s"}
	c := v.Clone()
	c.Value[0] = 'z'
	if v.Value[0] != 'a' {
		t.Fatal("Clone shares value bytes")
	}
}

func TestRowCloneIndependence(t *testing.T) {
	r := &Row{Monitors: []uint64{1, 2}}
	r.ApplyCausal(dotted("abc", 1, "s", Dot{Node: 1, Counter: 1}, nil), true, 0)
	c := r.Clone()
	c.Values[0].Value[0] = 'z'
	c.Monitors[0] = 99
	if r.Values[0].Value[0] != 'a' || r.Monitors[0] != 1 {
		t.Fatal("Clone shares storage with original")
	}
}
