package quorum

import (
	"context"
	"testing"
	"time"

	"sedna/internal/obs"
)

// The engine's own cost per call over the in-memory fake, with no network
// and no replica-side work beyond a row apply: what a single-key op pays
// for being a frame of one, next to a 16-key frame.
//
//	go test -run '^$' -bench . -benchmem ./internal/quorum/

func benchEngine(b *testing.B) (*Engine, *fakeCluster) {
	b.Helper()
	fc := newFakeCluster(nodes3...)
	e, err := NewEngine(Config{N: 3, R: 2, W: 2, Timeout: 500 * time.Millisecond}, fc)
	if err != nil {
		b.Fatal(err)
	}
	e.Instrument(obs.NewRegistry())
	return e, fc
}

func BenchmarkEngineWrite1(b *testing.B) {
	e, _ := benchEngine(b)
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.Write(ctx, nodes3, "k", ver("v", int64(i+1), "s"), Latest); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineRead1(b *testing.B) {
	e, _ := benchEngine(b)
	ctx := context.Background()
	if _, err := e.Write(ctx, nodes3, "k", ver("v", 1, "s"), Latest); err != nil {
		b.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond) // let the straggler replica apply too
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Read(ctx, nodes3, "k"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineWriteBatch16(b *testing.B) {
	e, _ := benchEngine(b)
	ctx := context.Background()
	keys := batchKeys(16)
	items := make([]BatchWrite, len(keys))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j, k := range keys {
			items[j] = BatchWrite{Key: k, Replicas: nodes3, V: ver("v", int64(i+1), "s"), Mode: Latest}
		}
		for j, r := range e.WriteBatch(ctx, items) {
			if r.Err != nil {
				b.Fatalf("key %d: %v", j, r.Err)
			}
		}
	}
}
