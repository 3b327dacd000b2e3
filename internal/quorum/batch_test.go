package quorum

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"sedna/internal/kv"
	"sedna/internal/ring"
)

func batchKeys(n int) []kv.Key {
	keys := make([]kv.Key, n)
	for i := range keys {
		keys[i] = kv.Key(fmt.Sprintf("batch/k/%02d", i))
	}
	return keys
}

func TestWriteBatchOneFramePerNode(t *testing.T) {
	fc := newFakeCluster(nodes3...)
	e, reg := retryEngine(t, fc, 0)
	keys := batchKeys(16)
	items := make([]BatchWrite, len(keys))
	for i, k := range keys {
		items[i] = BatchWrite{Key: k, Replicas: nodes3, V: ver("v", int64(i+1), "s"), Mode: Latest}
	}
	res := e.WriteBatch(context.Background(), items)
	for i, r := range res {
		if r.Err != nil || r.Outdated {
			t.Fatalf("key %d: err=%v outdated=%v", i, r.Err, r.Outdated)
		}
		if r.Acked < 2 {
			t.Fatalf("key %d: acked=%d, want >= 2", i, r.Acked)
		}
	}
	// 16 keys on 3 replicas must cost exactly one frame per node, not 48
	// per-key RPCs. The batch settles after W node replies, so the last
	// frame may still be in flight; wait for it rather than racing it.
	waitFrames(t, fc, 1)
	snap := reg.Snapshot()
	if got := snap.Counter("quorum.batch.keys"); got != 16 {
		t.Fatalf("quorum.batch.keys = %d, want 16", got)
	}
	if got := snap.Counter("quorum.batch.frames"); got != 3 {
		t.Fatalf("quorum.batch.frames = %d, want 3", got)
	}
	// Every replica eventually holds every key (the straggler node's frame
	// finishes applying after the quorum settled).
	deadline := time.Now().Add(2 * time.Second)
	for _, n := range nodes3 {
		for _, k := range keys {
			for {
				if v, ok := fc.row(n, k).Latest(); ok && string(v.Value) == "v" {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("node %s key %s missing after batch write", n, k)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
}

func TestWriteBatchDeadReplicaDegradesPerKey(t *testing.T) {
	fc := newFakeCluster(nodes3...)
	fc.kill("r3")
	e, _ := retryEngine(t, fc, 0)
	var mu sync.Mutex
	hinted := map[kv.Key]bool{}
	e.OnWriteError(func(node ring.NodeID, key kv.Key, v kv.Versioned, _ Mode) {
		if node == "r3" {
			mu.Lock()
			hinted[key] = true
			mu.Unlock()
		}
	})
	keys := batchKeys(8)
	items := make([]BatchWrite, len(keys))
	for i, k := range keys {
		items[i] = BatchWrite{Key: k, Replicas: nodes3, V: ver("v", 1, "s"), Mode: Latest}
	}
	res := e.WriteBatch(context.Background(), items)
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("key %d failed despite a live W quorum: %v", i, r.Err)
		}
	}
	// Every key's miss on the dead node must reach the hint hook, exactly as
	// single-key writes feed hinted handoff.
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		n := len(hinted)
		mu.Unlock()
		if n == len(keys) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d failed keys reached OnWriteError", n, len(keys))
		}
		time.Sleep(time.Millisecond)
	}
}

func TestWriteBatchSettlesPerKeyNotPerBatch(t *testing.T) {
	// r2 and r3 dead: keys replicated on all three miss their W=2 quorum,
	// while a key whose replica set is just r1 (need clamps to 1) succeeds.
	// The batch must report both verdicts, not fail wholesale.
	fc := newFakeCluster(nodes3...)
	fc.kill("r2")
	fc.kill("r3")
	e, reg := retryEngine(t, fc, 0)
	items := []BatchWrite{
		{Key: "wide", Replicas: nodes3, V: ver("v", 1, "s"), Mode: Latest},
		{Key: "narrow", Replicas: []ring.NodeID{"r1"}, V: ver("v", 1, "s"), Mode: Latest},
	}
	res := e.WriteBatch(context.Background(), items)
	if !errors.Is(res[0].Err, ErrQuorumFailed) {
		t.Fatalf("wide key err = %v, want quorum failure", res[0].Err)
	}
	if res[1].Err != nil {
		t.Fatalf("narrow key err = %v, want success", res[1].Err)
	}
	if got := reg.Snapshot().Counter("quorum.batch.key_failures"); got != 1 {
		t.Fatalf("quorum.batch.key_failures = %d, want 1", got)
	}
}

func TestWriteBatchOutdatedVerdictPerKey(t *testing.T) {
	fc := newFakeCluster(nodes3...)
	e, _ := retryEngine(t, fc, 0)
	// Pre-store a newer value for one key only.
	newer := &kv.Row{}
	newer.ApplyLatest(ver("new", 100, "s"))
	for _, n := range nodes3 {
		fc.setRow(n, "stale", newer)
	}
	items := []BatchWrite{
		{Key: "stale", Replicas: nodes3, V: ver("old", 1, "s"), Mode: Latest},
		{Key: "fresh", Replicas: nodes3, V: ver("v", 1, "s"), Mode: Latest},
	}
	res := e.WriteBatch(context.Background(), items)
	if !res[0].Outdated || res[0].Err != nil {
		t.Fatalf("stale key: outdated=%v err=%v, want outdated verdict", res[0].Outdated, res[0].Err)
	}
	if res[1].Outdated || res[1].Err != nil {
		t.Fatalf("fresh key: outdated=%v err=%v, want clean ack", res[1].Outdated, res[1].Err)
	}
}

func TestReadBatchMixedHitMiss(t *testing.T) {
	fc := newFakeCluster(nodes3...)
	e, _ := retryEngine(t, fc, 0)
	row := &kv.Row{}
	row.ApplyLatest(ver("hello", 5, "s"))
	for _, n := range nodes3 {
		fc.setRow(n, "present", row)
	}
	items := []BatchRead{
		{Key: "present", Replicas: nodes3},
		{Key: "absent", Replicas: nodes3},
	}
	res := e.ReadBatch(context.Background(), items)
	if res[0].Err != nil {
		t.Fatalf("present key err = %v", res[0].Err)
	}
	if v, ok := res[0].Row.Latest(); !ok || string(v.Value) != "hello" {
		t.Fatalf("present key row = %+v", res[0].Row)
	}
	if res[1].Err != nil {
		t.Fatalf("absent key err = %v, want clean empty row", res[1].Err)
	}
	if _, ok := res[1].Row.Latest(); ok {
		t.Fatalf("absent key returned a value: %+v", res[1].Row)
	}
	waitFrames(t, fc, 1)
}

// waitFrames waits until every node received exactly want frames (the
// quorum settles before stragglers' frames land, so counts trail briefly).
func waitFrames(t *testing.T, fc *fakeCluster, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		done := true
		for _, n := range nodes3 {
			if got := fc.frameCount(n); got > want {
				t.Fatalf("node %s received %d frames, want %d", n, got, want)
			} else if got < want {
				done = false
			}
		}
		if done {
			return
		}
		if time.Now().After(deadline) {
			for _, n := range nodes3 {
				t.Logf("node %s: %d frames", n, fc.frameCount(n))
			}
			t.Fatalf("frame counts never reached %d per node", want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestReadBatchRepairsStaleReplicaPerKey(t *testing.T) {
	fc := newFakeCluster(nodes3...)
	e, reg := retryEngine(t, fc, 0)
	fresh := &kv.Row{}
	fresh.ApplyLatest(ver("new", 10, "s"))
	stale := &kv.Row{}
	stale.ApplyLatest(ver("old", 1, "s"))
	fc.setRow("r1", "k0", fresh)
	fc.setRow("r2", "k0", fresh)
	fc.setRow("r3", "k0", stale)
	// Slow the fresh replicas so the stale copy is in hand before settle.
	fc.mu.Lock()
	fc.slow["r1"] = 10 * time.Millisecond
	fc.slow["r2"] = 10 * time.Millisecond
	fc.mu.Unlock()

	res := e.ReadBatch(context.Background(), []BatchRead{{Key: "k0", Replicas: nodes3}})
	if res[0].Err != nil {
		t.Fatal(res[0].Err)
	}
	if v, ok := res[0].Row.Latest(); !ok || string(v.Value) != "new" {
		t.Fatalf("merged row = %+v, want freshest value", res[0].Row)
	}
	// The async repair must converge r3 to the merged row.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if v, ok := fc.row("r3", "k0").Latest(); ok && string(v.Value) == "new" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("stale replica never repaired after batch read")
		}
		time.Sleep(time.Millisecond)
	}
	if got := reg.Snapshot().Counter("quorum.read_repairs"); got < 1 {
		t.Fatalf("quorum.read_repairs = %d, want >= 1", got)
	}
}

func TestReadBatchDeadReplicaStillSettles(t *testing.T) {
	fc := newFakeCluster(nodes3...)
	e, _ := retryEngine(t, fc, 0)
	row := &kv.Row{}
	row.ApplyLatest(ver("v", 3, "s"))
	for _, n := range nodes3 {
		fc.setRow(n, "k", row)
	}
	fc.kill("r3")
	res := e.ReadBatch(context.Background(), []BatchRead{{Key: "k", Replicas: nodes3}})
	if res[0].Err != nil {
		t.Fatalf("read with one dead replica failed: %v", res[0].Err)
	}
	if v, ok := res[0].Row.Latest(); !ok || string(v.Value) != "v" {
		t.Fatalf("row = %+v", res[0].Row)
	}
}

func TestBatchConcurrentWithSingleKeyOps(t *testing.T) {
	// Batch and single-key operations interleave on the same engine and keys;
	// under -race this doubles as a data-race check on the shared settle
	// paths and hooks.
	fc := newFakeCluster(nodes3...)
	e, _ := retryEngine(t, fc, 0)
	e.OnWriteError(func(ring.NodeID, kv.Key, kv.Versioned, Mode) {})
	keys := batchKeys(8)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for iter := 0; iter < 10; iter++ {
				ts := int64(w*1000 + iter + 1)
				if w%2 == 0 {
					items := make([]BatchWrite, len(keys))
					for i, k := range keys {
						items[i] = BatchWrite{Key: k, Replicas: nodes3, V: ver("b", ts, "s"), Mode: Latest}
					}
					e.WriteBatch(context.Background(), items)
					e.ReadBatch(context.Background(), []BatchRead{{Key: keys[0], Replicas: nodes3}})
				} else {
					for _, k := range keys[:2] {
						e.Write(context.Background(), nodes3, k, ver("s", ts, "s"), Latest)
						e.Read(context.Background(), nodes3, k)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	// Convergence sanity: every key readable with a quorum afterwards.
	res := e.ReadBatch(context.Background(), func() []BatchRead {
		items := make([]BatchRead, len(keys))
		for i, k := range keys {
			items[i] = BatchRead{Key: k, Replicas: nodes3}
		}
		return items
	}())
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("post-interleave read %d: %v", i, r.Err)
		}
	}
}

func TestRetryBackoffSurvivesHighAttemptCount(t *testing.T) {
	// Regression: base << attempt with a large attempt overflowed int64
	// negative, skipped the d > max clamp, and armed a zero-duration timer —
	// a hot retry loop burning the whole budget instantly. The exponent is
	// now clamped, so even attempt 80 must sleep at least the 8x ceiling.
	e, _ := retryEngine(t, newFakeCluster(nodes3...), 1000)
	for _, attempt := range []int{62, 63, 80, 1 << 20} {
		budget := int32(1)
		start := time.Now()
		ok := e.retry(context.Background(), &budget, attempt, errors.New("transient"))
		elapsed := time.Since(start)
		if !ok {
			t.Fatalf("attempt %d: retry refused with budget available", attempt)
		}
		// Backoff base is 1ms (retryEngine), ceiling 8ms; the overflow bug
		// produced ~0s sleeps here.
		if elapsed < 8*time.Millisecond {
			t.Fatalf("attempt %d: slept %v, want >= 8ms (overflow skipped the clamp)", attempt, elapsed)
		}
	}
}
