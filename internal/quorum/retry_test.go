package quorum

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"sedna/internal/kv"
	"sedna/internal/obs"
	"sedna/internal/ring"
	"sedna/internal/transport"
)

// blinkCluster wraps fakeCluster so a node fails its first failuresLeft
// frames and then recovers (a transient blip, the retry target). With
// verdicts set, a blip is the node answering a per-item error for every
// key of the frame instead of failing the frame whole.
type blinkCluster struct {
	*fakeCluster
	verdicts     bool
	mu           sync.Mutex
	failuresLeft map[ring.NodeID]int
	attempts     map[ring.NodeID]int
}

func newBlinkCluster(nodes ...ring.NodeID) *blinkCluster {
	return &blinkCluster{
		fakeCluster:  newFakeCluster(nodes...),
		failuresLeft: map[ring.NodeID]int{},
		attempts:     map[ring.NodeID]int{},
	}
}

func (bc *blinkCluster) blip(n ring.NodeID, failures int) {
	bc.mu.Lock()
	bc.failuresLeft[n] = failures
	bc.mu.Unlock()
}

func (bc *blinkCluster) failNow(n ring.NodeID) bool {
	bc.mu.Lock()
	defer bc.mu.Unlock()
	bc.attempts[n]++
	if bc.failuresLeft[n] > 0 {
		bc.failuresLeft[n]--
		return true
	}
	return false
}

func (bc *blinkCluster) tries(n ring.NodeID) int {
	bc.mu.Lock()
	defer bc.mu.Unlock()
	return bc.attempts[n]
}

var (
	errBlip    = errors.New("transient blip")
	errVerdict = errors.New("replica verdict: failed")
)

func (bc *blinkCluster) WriteReplicaBatch(ctx context.Context, n ring.NodeID, items []NodeWrite) ([]WriteAck, error) {
	if bc.failNow(n) {
		if !bc.verdicts {
			return nil, errBlip
		}
		acks := make([]WriteAck, len(items))
		for i := range acks {
			acks[i].Err = errVerdict
		}
		return acks, nil
	}
	return bc.fakeCluster.WriteReplicaBatch(ctx, n, items)
}

func (bc *blinkCluster) ReadReplicaBatch(ctx context.Context, n ring.NodeID, keys []kv.Key) ([]ReadAck, error) {
	if bc.failNow(n) {
		if !bc.verdicts {
			return nil, errBlip
		}
		acks := make([]ReadAck, len(keys))
		for i := range acks {
			acks[i].Err = errVerdict
		}
		return acks, nil
	}
	return bc.fakeCluster.ReadReplicaBatch(ctx, n, keys)
}

func (bc *blinkCluster) RepairReplica(ctx context.Context, n ring.NodeID, key kv.Key, row *kv.Row) error {
	if bc.failNow(n) {
		return errBlip
	}
	return bc.fakeCluster.RepairReplica(ctx, n, key, row)
}

func retryEngine(t *testing.T, rt Transport, budget int) (*Engine, *obs.Registry) {
	t.Helper()
	e, err := NewEngine(Config{
		N: 3, R: 2, W: 2,
		Timeout:      300 * time.Millisecond,
		RetryBudget:  budget,
		RetryBackoff: time.Millisecond,
	}, rt)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	e.Instrument(reg)
	return e, reg
}

func TestWriteRetriesTransientFailure(t *testing.T) {
	bc := newBlinkCluster(nodes3...)
	// Two replicas blip once each; without retries the write would reach
	// only W-1 acks and fail.
	bc.blip("r1", 1)
	bc.blip("r2", 1)
	bc.kill("r3")
	e, reg := retryEngine(t, bc, 4)

	res, err := e.Write(context.Background(), nodes3, "k", ver("v", 1, "s"), Latest)
	if err != nil {
		t.Fatalf("write with transient blips failed: %v", err)
	}
	if res.Acked < 2 {
		t.Fatalf("acked = %d, want >= 2", res.Acked)
	}
	if got := reg.Snapshot().Counter("quorum.retries"); got < 2 {
		t.Fatalf("quorum.retries = %d, want >= 2", got)
	}
}

func TestReadRetriesTransientFailure(t *testing.T) {
	bc := newBlinkCluster(nodes3...)
	e, _ := retryEngine(t, bc, 4)
	if _, err := e.Write(context.Background(), nodes3, "k", ver("v", 1, "s"), Latest); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	bc.blip("r1", 1)
	bc.blip("r2", 1)
	bc.kill("r3")
	res, err := e.Read(context.Background(), nodes3, "k")
	if err != nil {
		t.Fatalf("read with transient blips failed: %v", err)
	}
	if v, ok := res.Row.Latest(); !ok || string(v.Value) != "v" {
		t.Fatalf("row = %+v", res.Row)
	}
}

func TestRetryBudgetBoundsResends(t *testing.T) {
	bc := newBlinkCluster(nodes3...)
	// Every replica fails persistently within the retryable class; the op
	// must stop after budget re-sends, not hammer until the timeout.
	for _, n := range nodes3 {
		bc.blip(n, 1000)
	}
	e, reg := retryEngine(t, bc, 3)
	_, err := e.Write(context.Background(), nodes3, "k", ver("v", 1, "s"), Latest)
	if !errors.Is(err, ErrQuorumFailed) {
		t.Fatalf("err = %v, want quorum failure", err)
	}
	total := bc.tries("r1") + bc.tries("r2") + bc.tries("r3")
	// 3 first attempts + at most 3 budgeted re-sends.
	if total > 6 {
		t.Fatalf("replica attempts = %d, want <= 6 (budget exhausted)", total)
	}
	if got := reg.Snapshot().Counter("quorum.retries"); got > 3 {
		t.Fatalf("quorum.retries = %d, want <= 3", got)
	}
}

// overloadCluster sheds a node's first failuresLeft frames with the staged
// transport's pushback error, then serves normally.
type overloadCluster struct {
	*blinkCluster
}

func (oc overloadCluster) WriteReplicaBatch(ctx context.Context, n ring.NodeID, items []NodeWrite) ([]WriteAck, error) {
	if oc.failNow(n) {
		return nil, fmt.Errorf("%w: test shed", transport.ErrOverloaded)
	}
	return oc.fakeCluster.WriteReplicaBatch(ctx, n, items)
}

func TestWriteRetriesOverloadPushback(t *testing.T) {
	oc := overloadCluster{newBlinkCluster(nodes3...)}
	// Two replicas shed once each: without backoff-retry the write would
	// reach only W-1 acks.
	oc.blip("r1", 1)
	oc.blip("r2", 1)
	oc.kill("r3")
	e, reg := retryEngine(t, oc, 4)

	if _, err := e.Write(context.Background(), nodes3, "k", ver("v", 1, "s"), Latest); err != nil {
		t.Fatalf("write through shed pushback failed: %v", err)
	}
	if got := reg.Snapshot().Counter("quorum.overload_pushback"); got < 2 {
		t.Fatalf("quorum.overload_pushback = %d, want >= 2", got)
	}
	if !retryable(transport.ErrOverloaded) {
		t.Fatal("overload pushback classified non-retryable; sheds would become quorum failures")
	}
}

func TestNoRetryOnBreakerOpenOrRemote(t *testing.T) {
	if retryable(transport.ErrBreakerOpen) {
		t.Fatal("breaker-open classified retryable; re-sending would only fast-fail again")
	}
	if retryable(&transport.RemoteError{Msg: "outdated"}) {
		t.Fatal("remote verdict classified retryable")
	}
	if retryable(context.Canceled) {
		t.Fatal("caller cancellation classified retryable")
	}
	if !retryable(errors.New("dial tcp: connection refused")) {
		t.Fatal("dial failure not classified retryable")
	}
	if !retryable(context.DeadlineExceeded) {
		t.Fatal("deadline expiry not classified retryable")
	}
}

// TestRetryResendsFrameErrorsNotItemVerdicts pins DESIGN.md §6 for every
// frame size: a frame-level error (the replica did not answer) is re-sent
// within the budget, while a per-item error is the replica's verdict and is
// not. Each key lives on r1 and r2 only, so both must answer for the W = 2
// (or R = 2) quorum, and r1 blips on its first frame.
func TestRetryResendsFrameErrorsNotItemVerdicts(t *testing.T) {
	pair := []ring.NodeID{"r1", "r2"}
	for _, k := range []int{1, 16} {
		for _, verdicts := range []bool{false, true} {
			for _, op := range []string{"write", "read"} {
				name := fmt.Sprintf("k=%d/verdicts=%v/%s", k, verdicts, op)
				t.Run(name, func(t *testing.T) {
					bc := newBlinkCluster(nodes3...)
					bc.verdicts = verdicts
					e, reg := retryEngine(t, bc, 4)
					keys := batchKeys(k)
					bc.blip("r1", 1)
					var errs []error
					if op == "write" {
						items := make([]BatchWrite, k)
						for i, key := range keys {
							items[i] = BatchWrite{Key: key, Replicas: pair, V: ver("v", 1, "s"), Mode: Latest}
						}
						for _, r := range e.WriteBatch(context.Background(), items) {
							errs = append(errs, r.Err)
						}
					} else {
						items := make([]BatchRead, k)
						for i, key := range keys {
							items[i] = BatchRead{Key: key, Replicas: pair}
						}
						for _, r := range e.ReadBatch(context.Background(), items) {
							errs = append(errs, r.Err)
						}
					}
					wantFrames, wantRetries := 2, uint64(1)
					if verdicts {
						wantFrames, wantRetries = 1, 0
					}
					if got := bc.tries("r1"); got != wantFrames {
						t.Fatalf("r1 received %d frames, want %d", got, wantFrames)
					}
					if got := reg.Snapshot().Counter("quorum.retries"); got != wantRetries {
						t.Fatalf("quorum.retries = %d, want %d", got, wantRetries)
					}
					for i, err := range errs {
						if verdicts && !errors.Is(err, ErrQuorumFailed) {
							t.Fatalf("key %d: err = %v, want the verdict to fail the quorum", i, err)
						}
						if !verdicts && err != nil {
							t.Fatalf("key %d: err = %v, want the re-sent frame to reach the quorum", i, err)
						}
					}
				})
			}
		}
	}
}

func TestRepairErrorsCountedAndHooked(t *testing.T) {
	fc := newFakeCluster(nodes3...)
	e, reg := retryEngine(t, fc, 0)

	var mu sync.Mutex
	hooked := map[ring.NodeID]kv.Key{}
	e.OnRepairError(func(node ring.NodeID, key kv.Key, row *kv.Row) {
		mu.Lock()
		hooked[node] = key
		mu.Unlock()
	})

	fc.kill("r3")
	row := &kv.Row{}
	row.ApplyLatest(ver("v", 3, "s"))
	if err := e.Repair(context.Background(), nodes3, "k", row); err == nil {
		t.Fatal("repair with dead node reported success")
	}
	if got := reg.Snapshot().Counter("quorum.repair_errors"); got != 1 {
		t.Fatalf("quorum.repair_errors = %d, want 1", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if hooked["r3"] != "k" {
		t.Fatalf("hook saw %v, want r3 -> k", hooked)
	}
}

// stragglerCluster delays one node's replica writes past the quorum decision
// and then fails them, modelling a dark node behind a hanging link.
type stragglerCluster struct {
	*fakeCluster
	node  ring.NodeID
	delay time.Duration
}

func (sc stragglerCluster) WriteReplicaBatch(ctx context.Context, n ring.NodeID, items []NodeWrite) ([]WriteAck, error) {
	if n == sc.node {
		select {
		case <-time.After(sc.delay):
		case <-ctx.Done():
		}
		return nil, errors.New("straggler died")
	}
	return sc.fakeCluster.WriteReplicaBatch(ctx, n, items)
}

func TestWriteStragglerFeedsWriteErrorHook(t *testing.T) {
	fc := newFakeCluster(nodes3...)
	e, _ := retryEngine(t, stragglerCluster{fakeCluster: fc, node: "r3", delay: 30 * time.Millisecond}, 0)
	var mu sync.Mutex
	var hookedKey kv.Key
	var hookedVal string
	e.OnWriteError(func(node ring.NodeID, key kv.Key, v kv.Versioned, _ Mode) {
		if node != "r3" {
			return
		}
		mu.Lock()
		hookedKey, hookedVal = key, string(v.Value)
		mu.Unlock()
	})

	// The quorum settles on r1+r2 long before r3's write fails; the hook
	// must still see the straggler's miss (Failed cannot — Write already
	// returned).
	if _, err := e.Write(context.Background(), nodes3, "k", ver("v", 1, "s"), Latest); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		key, val := hookedKey, hookedVal
		mu.Unlock()
		if key != "" {
			if key != "k" || val != "v" {
				t.Fatalf("hook saw %q=%q, want k=v", key, val)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("straggler write failure never fired the hook")
		}
		time.Sleep(time.Millisecond)
	}
}

// repairFailCluster serves reads and writes normally but fails every repair
// delivery, isolating the read-repair error path.
type repairFailCluster struct{ *fakeCluster }

func (rc repairFailCluster) RepairReplica(ctx context.Context, n ring.NodeID, key kv.Key, row *kv.Row) error {
	return errors.New("repair target down")
}

func TestReadRepairFailureFeedsHook(t *testing.T) {
	fc := newFakeCluster(nodes3...)
	e, reg := retryEngine(t, repairFailCluster{fc}, 0)
	var mu sync.Mutex
	hooked := map[ring.NodeID]kv.Key{}
	e.OnRepairError(func(node ring.NodeID, key kv.Key, row *kv.Row) {
		mu.Lock()
		hooked[node] = key
		mu.Unlock()
	})

	// r1, r2 fresh; r3 stale: the read triggers an async repair of r3 which
	// fails and must surface through the counter and the hook.
	fresh := &kv.Row{}
	fresh.ApplyLatest(ver("new", 10, "s"))
	stale := &kv.Row{}
	stale.ApplyLatest(ver("old", 1, "s"))
	fc.setRow("r1", "k", fresh)
	fc.setRow("r2", "k", fresh)
	fc.setRow("r3", "k", stale)
	fc.mu.Lock()
	fc.slow["r1"] = 20 * time.Millisecond
	fc.mu.Unlock()

	if _, err := e.Read(context.Background(), nodes3, "k"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Second)
	for {
		mu.Lock()
		key, ok := hooked["r3"]
		mu.Unlock()
		if ok {
			if key != "k" {
				t.Fatalf("hook saw key %q, want k", key)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("failed read repair never fired the hook")
		}
		time.Sleep(time.Millisecond)
	}
	if got := reg.Snapshot().Counter("quorum.repair_errors"); got < 1 {
		t.Fatalf("quorum.repair_errors = %d, want >= 1", got)
	}
}
