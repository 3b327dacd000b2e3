//go:build !race

package kv

// Allocation budgets for the row codec hot path: a pre-sized encode is one
// allocation, and the steady-state zero-copy decode of a stable row
// (DecodeRowInto with warmed capacity and unchanged sources) is free.
// Excluded under -race because instrumentation adds allocations; the
// aliasing semantics are covered by the codec tests, which do run under it.

import "testing"

func benchRow() *Row {
	r := &Row{}
	r.ApplyCausal(dotted("value-one-payload", 10, "node-a", Dot{Node: 1, Counter: 1}, nil), false, 0)
	r.ApplyCausal(dotted("value-two-payload", 20, "node-b", Dot{Node: 2, Counter: 1}, nil), false, 0)
	r.Monitors = []uint64{1, 2, 3}
	return r
}

func TestCodecAllocBudgets(t *testing.T) {
	row := benchRow()
	blob := EncodeRow(row)

	if n := testing.AllocsPerRun(200, func() {
		if len(EncodeRow(row)) == 0 {
			t.Fatal("empty encode")
		}
	}); n > 1 {
		t.Errorf("EncodeRow allocates %.1f/op, want <= 1", n)
	}

	// Scratch-reusing append: zero allocations once dst has capacity.
	dst := make([]byte, 0, EncodedRowSize(row))
	if n := testing.AllocsPerRun(200, func() {
		dst = AppendRow(dst[:0], row)
	}); n > 0 {
		t.Errorf("AppendRow into sized scratch allocates %.1f/op, want 0", n)
	}

	// Steady-state zero-copy decode: after the first decode warms the
	// scratch row, re-decoding the same shape allocates nothing.
	var scratch Row
	if err := DecodeRowInto(&scratch, blob); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := DecodeRowInto(&scratch, blob); err != nil {
			t.Fatal(err)
		}
	}); n > 0 {
		t.Errorf("warmed DecodeRowInto allocates %.1f/op, want 0", n)
	}
}

func TestDecodeRowIntoAliasesInput(t *testing.T) {
	row := benchRow()
	blob := EncodeRow(row)
	var r Row
	if err := DecodeRowInto(&r, blob); err != nil {
		t.Fatal(err)
	}
	if len(r.Values) != 2 {
		t.Fatalf("got %d values", len(r.Values))
	}
	for _, v := range r.Values {
		if len(v.Value) == 0 {
			continue
		}
		p := &v.Value[0]
		inside := false
		for i := range blob {
			if p == &blob[i] {
				inside = true
				break
			}
		}
		if !inside {
			t.Error("DecodeRowInto copied a value instead of aliasing the input")
		}
	}
	// And the copying decode must NOT alias.
	dr, err := DecodeRow(blob)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range dr.Values {
		for i := range blob {
			if len(v.Value) > 0 && &v.Value[0] == &blob[i] {
				t.Fatal("DecodeRow aliases the input")
			}
		}
	}
}
