package main

import (
	"io"
	"maps"
	"testing"
)

// TestFixedPoint runs the Fig. 4 trigger loop to its fixed point: the hop
// counts from a over the demo graph, with the unreachable z left out and
// the loop stopped once nothing improves.
func TestFixedPoint(t *testing.T) {
	got, err := run(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	fixed := map[string]int{"a": 0, "b": 1, "c": 1, "d": 2, "e": 2, "f": 3, "g": 3, "h": 4}
	if !maps.Equal(got, fixed) {
		t.Fatalf("hop counts = %v, want %v", got, fixed)
	}
}
