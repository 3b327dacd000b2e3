package kv

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

func dotted(val string, wall int64, src string, dot Dot, ctx DVV) Versioned {
	return Versioned{
		Value:  []byte(val),
		TS:     Timestamp{Wall: wall, Node: dot.Node},
		Source: src,
		Dot:    dot,
		Ctx:    ctx,
	}
}

// TestLatestSkipsTombstones is the regression for the tombstone-shadowing
// bug: in a write_all row, a newer tombstone from source A must not hide an
// older live value from source B — deletes are per-source there, and the
// read API must keep returning B's data.
func TestLatestSkipsTombstones(t *testing.T) {
	tomb := func(wall int64, src string, dot Dot) Versioned {
		v := dotted("", wall, src, dot, nil)
		v.Value, v.Deleted = nil, true
		return v
	}
	r := &Row{}
	r.ApplyCausal(dotted("b-data", 5, "B", Dot{Node: 2, Counter: 1}, nil), false, 0)
	r.ApplyCausal(tomb(10, "A", Dot{Node: 1, Counter: 1}), false, 0)
	v, ok := r.Latest()
	if !ok || string(v.Value) != "b-data" {
		t.Fatalf("Latest = %+v, %v; want B's live value", v, ok)
	}
	// An all-tombstone row reports no live value.
	r2 := &Row{}
	r2.ApplyCausal(tomb(3, "A", Dot{Node: 1, Counter: 1}), true, 0)
	if _, ok := r2.Latest(); ok {
		t.Fatal("Latest returned a tombstone")
	}
}

func TestApplyCausalReplayIsIdempotent(t *testing.T) {
	r := &Row{}
	v := dotted("x", 1, "s1", Dot{Node: 1, Counter: 1}, nil)
	if !r.ApplyCausal(v, true, 0) {
		t.Fatal("first apply rejected")
	}
	if r.ApplyCausal(v, true, 0) {
		t.Fatal("replay applied twice")
	}
	if len(r.Values) != 1 {
		t.Fatalf("values = %d", len(r.Values))
	}
}

func TestApplyCausalContextSupersedes(t *testing.T) {
	r := &Row{}
	a := dotted("old", 1, "s1", Dot{Node: 1, Counter: 1}, nil)
	r.ApplyCausal(a, true, 0)
	var ctx DVV
	ctx.Fold(a.Dot)
	b := dotted("new", 2, "s2", Dot{Node: 2, Counter: 1}, ctx)
	r.ApplyCausal(b, true, 0)
	if len(r.Values) != 1 || string(r.Values[0].Value) != "new" {
		t.Fatalf("ctx-covered value survived: %+v", r.Values)
	}
	if !r.Clock.Covers(a.Dot) {
		t.Fatal("superseded dot left the clock")
	}
}

// TestApplyCausalConcurrentSiblings is the tentpole behavior: two writers
// racing without having seen each other both survive — neither write is
// silently dropped, which is exactly what LWW gets wrong.
func TestApplyCausalConcurrentSiblings(t *testing.T) {
	r := &Row{}
	a := dotted("from-a", 5, "s1", Dot{Node: 1, Counter: 1}, nil)
	b := dotted("from-b", 4, "s2", Dot{Node: 2, Counter: 1}, nil)
	r.ApplyCausal(a, true, 0)
	r.ApplyCausal(b, true, 0)
	if len(r.Values) != 2 {
		t.Fatalf("concurrent sibling dropped: %+v", r.Values)
	}
	if v, ok := r.Latest(); !ok || string(v.Value) != "from-a" {
		t.Fatalf("Latest over siblings = %+v, %v", v, ok)
	}
}

func TestApplyCausalSameSourceProgramOrder(t *testing.T) {
	// Program order rides on the context, not on timestamps: the second op's
	// context covers the first dot (the coordinator fills a blind write's
	// context from its local row clock), so either delivery order leaves one
	// value and identical clocks. Newer-first: the older arrives covered and
	// is dropped as a replay-of-observed. Older-first: the newer's context
	// retires it.
	mk := func() (Versioned, Versioned) {
		o1 := dotted("v1", 1, "s1", Dot{Node: 1, Counter: 1}, nil)
		var ctx DVV
		ctx.Fold(o1.Dot)
		return o1, dotted("v2", 2, "s1", Dot{Node: 1, Counter: 2}, ctx)
	}
	o1, o2 := mk()
	r1 := &Row{}
	r1.ApplyCausal(o1, true, 0)
	r1.ApplyCausal(o2, true, 0)
	p1, p2 := mk()
	r2 := &Row{}
	r2.ApplyCausal(p2, true, 0)
	r2.ApplyCausal(p1, true, 0)
	if !r1.Equal(r2) {
		t.Fatalf("order divergence: %+v vs %+v", r1, r2)
	}
	if len(r1.Values) != 1 || string(r1.Values[0].Value) != "v2" {
		t.Fatalf("program order lost: %+v", r1.Values)
	}

	// Without a context the two ops are concurrent — supersession is never
	// inferred from timestamps, so both survive as siblings.
	q1 := dotted("v1", 1, "s1", Dot{Node: 1, Counter: 1}, nil)
	q2 := dotted("v2", 2, "s1", Dot{Node: 1, Counter: 2}, nil)
	r3 := &Row{}
	r3.ApplyCausal(q1, true, 0)
	r3.ApplyCausal(q2, true, 0)
	if len(r3.Values) != 2 {
		t.Fatalf("context-free ops are concurrent, want 2 siblings: %+v", r3.Values)
	}
}

// TestSiblingCapDeterministic: eviction keeps the cap largest (TS, Dot)
// values regardless of arrival order, bumps the Obs witness, and never
// resurrects evicted dots through Merge.
func TestSiblingCapDeterministic(t *testing.T) {
	const cap = 3
	var ops []Versioned
	for i := 0; i < 8; i++ {
		ops = append(ops, dotted(fmt.Sprintf("v%d", i), int64(i+1), fmt.Sprintf("s%d", i),
			Dot{Node: uint32(i + 1), Counter: 1}, nil))
	}
	rng := rand.New(rand.NewSource(3))
	var first *Row
	for trial := 0; trial < 20; trial++ {
		perm := rng.Perm(len(ops))
		r := &Row{}
		for _, i := range perm {
			r.ApplyCausal(ops[i].Clone(), true, cap)
		}
		if len(r.Values) != cap {
			t.Fatalf("trial %d: %d values, want %d", trial, len(r.Values), cap)
		}
		if r.Obs != uint32(len(ops)-cap) {
			t.Fatalf("trial %d: obs = %d, want %d", trial, r.Obs, len(ops)-cap)
		}
		if first == nil {
			first = r
		} else if !r.Equal(first) {
			t.Fatalf("trial %d: eviction not deterministic:\n%+v\n%+v", trial, r, first)
		}
	}
	// The survivors are the freshest ops, and every evicted dot stays
	// covered so a merge from a laggard cannot resurrect it.
	for i, op := range ops {
		if !first.Clock.Covers(op.Dot) {
			t.Fatalf("dot %v not covered", op.Dot)
		}
		held := first.holdsDot(op.Dot)
		if want := i >= len(ops)-cap; held != want {
			t.Fatalf("op %d held=%v want %v", i, held, want)
		}
	}
	laggard := &Row{}
	laggard.ApplyCausal(ops[0].Clone(), true, cap)
	merged := first.Clone()
	if merged.Merge(laggard) {
		t.Fatal("merge resurrected an evicted sibling")
	}
}

// genHistory simulates a causally plausible op stream: writers mint dots in
// program order, draw contexts from replica clocks, and replicas exchange
// state — so every context that covers a dot also covers that op's context.
func genHistory(rng *rand.Rand, nops int) ([]Versioned, []*Row) {
	reps := []*Row{{}, {}, {}}
	seq := map[uint32]uint64{}
	var wall int64
	var ops []Versioned
	for len(ops) < nops {
		if rng.Intn(4) == 0 {
			reps[rng.Intn(len(reps))].Merge(reps[rng.Intn(len(reps))])
		}
		w := uint32(rng.Intn(4) + 1)
		ri := rng.Intn(len(reps))
		wall++
		seq[w]++
		v := Versioned{
			Value:   []byte(fmt.Sprintf("w%d-%d", w, wall)),
			TS:      Timestamp{Wall: wall, Node: w},
			Source:  fmt.Sprintf("s%d", w),
			Deleted: rng.Intn(10) == 0,
			Dot:     Dot{Node: w, Counter: seq[w]},
		}
		if rng.Intn(3) > 0 {
			v.Ctx = reps[ri].Clock.Clone()
		}
		ops = append(ops, v)
		reps[ri].ApplyCausal(v.Clone(), true, 0)
	}
	return ops, reps
}

// TestMergeLaws: Merge is commutative, associative and idempotent over rows
// from plausible histories — the convergence contract behind read repair,
// hints and anti-entropy.
func TestMergeLaws(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		_, reps := genHistory(rng, 14)
		a, b, c := reps[0], reps[1], reps[2]

		self := a.Clone()
		if self.Merge(a.Clone()) {
			t.Fatalf("seed %d: self-merge changed the row", seed)
		}

		ab := a.Clone()
		ab.Merge(b)
		ba := b.Clone()
		ba.Merge(a)
		if !ab.Equal(ba) {
			t.Fatalf("seed %d: merge not commutative:\n%+v\n%+v", seed, ab, ba)
		}

		abc1 := ab.Clone()
		abc1.Merge(c)
		bc := b.Clone()
		bc.Merge(c)
		abc2 := a.Clone()
		abc2.Merge(bc)
		if !abc1.Equal(abc2) {
			t.Fatalf("seed %d: merge not associative:\n%+v\n%+v", seed, abc1, abc2)
		}

		again := abc1.Clone()
		if again.Merge(ab) || again.Merge(c) {
			t.Fatalf("seed %d: merge not idempotent", seed)
		}
	}
}

// TestDottedApplyOrderConvergence: replicas that apply the same dotted ops
// in any order reach Equal rows without anti-entropy — no write is silently
// lost to delivery reordering.
func TestDottedApplyOrderConvergence(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		ops, _ := genHistory(rng, 12)
		var first *Row
		for trial := 0; trial < 6; trial++ {
			r := &Row{}
			for _, i := range rng.Perm(len(ops)) {
				r.ApplyCausal(ops[i].Clone(), true, 0)
			}
			if first == nil {
				first = r
				// The last-minted op is in no context, so it must survive.
				last := ops[len(ops)-1]
				if !r.holdsDot(last.Dot) {
					t.Fatalf("seed %d: newest op silently lost", seed)
				}
				continue
			}
			if !r.Equal(first) {
				t.Fatalf("seed %d trial %d: apply-order divergence:\n%+v\n%+v", seed, trial, r, first)
			}
		}
	}
}

// TestRowCodecVersions: rows round-trip through the one (version 2)
// layout, DecodeRowClock agrees with the full decode, and any other version
// byte is corrupt.
func TestRowCodecVersions(t *testing.T) {
	causal := &Row{}
	causal.ApplyCausal(dotted("x", 3, "s1", Dot{Node: 1, Counter: 1}, nil), true, 0)
	causal.ApplyCausal(dotted("y", 4, "s2", Dot{Node: 2, Counter: 5}, nil), true, 0)
	causal.Obs = 7
	blob := EncodeRow(causal)
	if blob[0] != rowFormat {
		t.Fatalf("row encoded as version %d", blob[0])
	}
	if len(blob) != EncodedRowSize(causal) {
		t.Fatalf("size mismatch: %d != %d", len(blob), EncodedRowSize(causal))
	}
	got, err := DecodeRow(blob)
	if err != nil || !got.Equal(causal) {
		t.Fatalf("roundtrip: %v, %+v", err, got)
	}
	c, err := DecodeRowClock(blob)
	if err != nil || !c.Equal(causal.Clock) {
		t.Fatalf("clock = %v, %v", c, err)
	}

	// Version 1 held dotless rows only; it is no longer a valid encoding.
	v1 := append([]byte(nil), blob...)
	v1[0] = 1
	if _, err := DecodeRow(v1); !errors.Is(err, ErrCorruptRow) {
		t.Fatalf("version-1 blob decoded: %v", err)
	}
	if _, err := DecodeRowClock(v1); !errors.Is(err, ErrCorruptRow) {
		t.Fatalf("version-1 clock decoded: %v", err)
	}
}

// TestRowFromWriteHintSupersedes: the row hinted for one undelivered dotted
// write must perform the same supersession at the destination that
// ApplyCausal would have.
func TestRowFromWriteHintSupersedes(t *testing.T) {
	dst := &Row{}
	a := dotted("seen", 1, "s1", Dot{Node: 1, Counter: 1}, nil)
	dst.ApplyCausal(a.Clone(), true, 0)
	var ctx DVV
	ctx.Fold(a.Dot)
	w := dotted("overwrite", 2, "s2", Dot{Node: 2, Counter: 1}, ctx)

	hint := RowFromWrite(w, true)
	dst.Merge(hint)
	if len(dst.Values) != 1 || string(dst.Values[0].Value) != "overwrite" {
		t.Fatalf("hint delivery diverged from ApplyCausal: %+v", dst.Values)
	}

	// A concurrent value at the destination survives the same delivery.
	dst2 := &Row{}
	dst2.ApplyCausal(dotted("concurrent", 5, "s3", Dot{Node: 3, Counter: 1}, nil), true, 0)
	dst2.Merge(RowFromWrite(w, true))
	if len(dst2.Values) != 2 {
		t.Fatalf("hint delivery dropped a concurrent sibling: %+v", dst2.Values)
	}

	// write_all: apply-side supersession is scoped to the writer's source,
	// but Merge's covered-and-absent rule is not — so an all-mode hint must
	// not carry the context in its clock, or it would discard another
	// source's live value the writer merely observed.
	dst3 := &Row{}
	dst3.ApplyCausal(a.Clone(), true, 0) // s1's live value, dot in w's ctx
	dst3.Merge(RowFromWrite(w, false))
	if len(dst3.Values) != 2 {
		t.Fatalf("all-mode hint discarded another source's value: %+v", dst3.Values)
	}
}
