package kv

import (
	"bytes"
	"testing"
	"testing/quick"
)

func sampleRow() *Row {
	return &Row{
		Dirty: true,
		Values: []Versioned{
			{Value: []byte("hello"), TS: Timestamp{Wall: 123, Logical: 4, Node: 5}, Source: "node-a", Dot: Dot{Node: 5, Counter: 2}},
			{Value: nil, TS: Timestamp{Wall: 456, Logical: 0, Node: 9}, Source: "node-b", Deleted: true, Dot: Dot{Node: 9, Counter: 1}},
		},
		Clock:    DVV{{Node: 5, Base: 2}, {Node: 9, Base: 1}},
		Monitors: []uint64{7, 42},
	}
}

func TestRowCodecRoundTrip(t *testing.T) {
	r := sampleRow()
	b := EncodeRow(r)
	if len(b) != EncodedRowSize(r) {
		t.Fatalf("EncodedRowSize = %d, actual = %d", EncodedRowSize(r), len(b))
	}
	got, err := DecodeRow(b)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(r) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got.Values, r.Values)
	}
	if got.Dirty != r.Dirty {
		t.Fatal("Dirty flag lost")
	}
	if len(got.Monitors) != 2 || got.Monitors[0] != 7 || got.Monitors[1] != 42 {
		t.Fatalf("Monitors = %v", got.Monitors)
	}
}

func TestRowCodecEmpty(t *testing.T) {
	r := &Row{}
	got, err := DecodeRow(EncodeRow(r))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Values) != 0 || len(got.Monitors) != 0 || got.Dirty {
		t.Fatalf("empty row round trip = %+v", got)
	}
}

func TestRowCodecNoAliasing(t *testing.T) {
	r := sampleRow()
	b := EncodeRow(r)
	got, err := DecodeRow(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range b {
		b[i] = 0xff
	}
	if string(got.Values[0].Value) != "hello" || got.Values[0].Source != "node-a" {
		t.Fatal("decoded row aliases the input buffer")
	}
}

func TestRowCodecRejectsTruncation(t *testing.T) {
	b := EncodeRow(sampleRow())
	for cut := 0; cut < len(b); cut++ {
		if _, err := DecodeRow(b[:cut]); err == nil {
			t.Fatalf("truncation at %d of %d accepted", cut, len(b))
		}
	}
}

func TestRowCodecRejectsTrailingGarbage(t *testing.T) {
	b := append(EncodeRow(sampleRow()), 0xde, 0xad)
	if _, err := DecodeRow(b); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}

func TestRowCodecRejectsBadVersion(t *testing.T) {
	b := EncodeRow(sampleRow())
	b[0] = 99
	if _, err := DecodeRow(b); err == nil {
		t.Fatal("unknown version accepted")
	}
}

func TestRowCodecPropertyRoundTrip(t *testing.T) {
	type vspec struct {
		Val  []byte
		Wall int64
		Log  uint32
		Node uint32
		Src  string
		Del  bool
		Dot  Dot
	}
	f := func(dirty bool, specs []vspec, monitors []uint64) bool {
		if len(specs) > 100 {
			specs = specs[:100]
		}
		r := &Row{Dirty: dirty, Monitors: monitors}
		seen := map[string]bool{}
		for _, s := range specs {
			if len(s.Src) > 1000 || seen[s.Src] {
				continue // codec requires one entry per source (Row invariant)
			}
			seen[s.Src] = true
			r.Values = append(r.Values, Versioned{
				Value: s.Val, TS: Timestamp{Wall: s.Wall, Logical: s.Log, Node: s.Node},
				Source: s.Src, Deleted: s.Del, Dot: s.Dot,
			})
		}
		got, err := DecodeRow(EncodeRow(r))
		if err != nil {
			return false
		}
		if got.Dirty != r.Dirty || len(got.Values) != len(r.Values) || len(got.Monitors) != len(r.Monitors) {
			return false
		}
		for i := range r.Values {
			a, b := r.Values[i], got.Values[i]
			if a.Source != b.Source || a.TS != b.TS || a.Deleted != b.Deleted || a.Dot != b.Dot || !bytes.Equal(a.Value, b.Value) {
				return false
			}
		}
		for i := range r.Monitors {
			if r.Monitors[i] != got.Monitors[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncodeRow(b *testing.B) {
	r := sampleRow()
	b.ReportAllocs()
	buf := make([]byte, 0, EncodedRowSize(r))
	for i := 0; i < b.N; i++ {
		buf = AppendRow(buf[:0], r)
	}
}

func BenchmarkDecodeRow(b *testing.B) {
	blob := EncodeRow(sampleRow())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeRow(blob); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeRowInto(b *testing.B) {
	blob := EncodeRow(sampleRow())
	var r Row
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := DecodeRowInto(&r, blob); err != nil {
			b.Fatal(err)
		}
	}
}
