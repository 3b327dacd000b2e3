package quorum

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"sedna/internal/kv"
	"sedna/internal/ring"
)

// fakeCluster is an in-memory frame Transport with per-node failure
// injection. It counts the frames each node received, so tests can assert
// one frame per node.
type fakeCluster struct {
	mu     sync.Mutex
	rows   map[ring.NodeID]map[kv.Key]*kv.Row
	dead   map[ring.NodeID]bool
	slow   map[ring.NodeID]time.Duration
	frames map[ring.NodeID]int
}

func newFakeCluster(nodes ...ring.NodeID) *fakeCluster {
	fc := &fakeCluster{
		rows:   map[ring.NodeID]map[kv.Key]*kv.Row{},
		dead:   map[ring.NodeID]bool{},
		slow:   map[ring.NodeID]time.Duration{},
		frames: map[ring.NodeID]int{},
	}
	for _, n := range nodes {
		fc.rows[n] = map[kv.Key]*kv.Row{}
	}
	return fc
}

func (fc *fakeCluster) kill(n ring.NodeID)   { fc.mu.Lock(); fc.dead[n] = true; fc.mu.Unlock() }
func (fc *fakeCluster) revive(n ring.NodeID) { fc.mu.Lock(); delete(fc.dead, n); fc.mu.Unlock() }

func (fc *fakeCluster) row(n ring.NodeID, key kv.Key) *kv.Row {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	r := fc.rows[n][key]
	if r == nil {
		return &kv.Row{}
	}
	return r.Clone()
}

func (fc *fakeCluster) setRow(n ring.NodeID, key kv.Key, r *kv.Row) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	fc.rows[n][key] = r.Clone()
}

func (fc *fakeCluster) checkUp(ctx context.Context, n ring.NodeID) error {
	fc.mu.Lock()
	dead := fc.dead[n]
	delay := fc.slow[n]
	fc.mu.Unlock()
	if dead {
		return errors.New("node down")
	}
	if delay > 0 {
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return ctx.Err()
}

func (fc *fakeCluster) frameCount(n ring.NodeID) int {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	return fc.frames[n]
}

// receive counts one frame arriving at n, then fails it whole when n is
// dead, as a dark node would.
func (fc *fakeCluster) receive(ctx context.Context, n ring.NodeID) error {
	fc.mu.Lock()
	fc.frames[n]++
	fc.mu.Unlock()
	return fc.checkUp(ctx, n)
}

func (fc *fakeCluster) WriteReplicaBatch(ctx context.Context, n ring.NodeID, items []NodeWrite) ([]WriteAck, error) {
	if err := fc.receive(ctx, n); err != nil {
		return nil, err
	}
	fc.mu.Lock()
	defer fc.mu.Unlock()
	acks := make([]WriteAck, len(items))
	for i, w := range items {
		acks[i] = WriteAck{Status: fc.apply(n, w)}
	}
	return acks, nil
}

// apply is the replica-side write rule for one item; fc.mu is held.
func (fc *fakeCluster) apply(n ring.NodeID, w NodeWrite) WriteStatus {
	row := fc.rows[n][w.Key]
	if row == nil {
		row = &kv.Row{}
		fc.rows[n][w.Key] = row
	}
	if !w.V.Dot.IsZero() {
		// Dotted writes take the causal path, like the real replica: a
		// replayed event is idempotent, never outdated.
		row.ApplyCausal(w.V.Clone(), w.Mode == Latest, 0)
		return WriteOK
	}
	var ok bool
	if w.Mode == Latest {
		ok = row.ApplyLatest(w.V)
	} else {
		ok = row.ApplyAll(w.V)
	}
	if !ok {
		return WriteOutdated
	}
	return WriteOK
}

func (fc *fakeCluster) ReadReplicaBatch(ctx context.Context, n ring.NodeID, keys []kv.Key) ([]ReadAck, error) {
	if err := fc.receive(ctx, n); err != nil {
		return nil, err
	}
	acks := make([]ReadAck, len(keys))
	for i, k := range keys {
		acks[i] = ReadAck{Row: fc.row(n, k)}
	}
	return acks, nil
}

func (fc *fakeCluster) RepairReplica(ctx context.Context, n ring.NodeID, key kv.Key, row *kv.Row) error {
	if err := fc.checkUp(ctx, n); err != nil {
		return err
	}
	fc.mu.Lock()
	defer fc.mu.Unlock()
	cur := fc.rows[n][key]
	if cur == nil {
		cur = &kv.Row{}
		fc.rows[n][key] = cur
	}
	cur.Merge(row)
	return nil
}

var nodes3 = []ring.NodeID{"r1", "r2", "r3"}

func newEngine(t *testing.T, fc *fakeCluster) *Engine {
	t.Helper()
	e, err := NewEngine(Config{N: 3, R: 2, W: 2, Timeout: 300 * time.Millisecond}, fc)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func ver(val string, wall int64, src string) kv.Versioned {
	return kv.Versioned{Value: []byte(val), TS: kv.Timestamp{Wall: wall}, Source: src}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		cfg Config
		ok  bool
	}{
		{Config{N: 3, R: 2, W: 2}, true},
		{Config{N: 3, R: 1, W: 3}, true},
		{Config{N: 1, R: 1, W: 1}, true},
		{Config{N: 5, R: 2, W: 4}, true},
		{Config{N: 3, R: 1, W: 2}, false}, // R+W == N
		{Config{N: 3, R: 3, W: 1}, false}, // W <= N/2
		{Config{N: 4, R: 3, W: 2}, false}, // W == N/2
		{Config{N: 3, R: 0, W: 2}, false},
		{Config{N: 3, R: 4, W: 2}, false}, // R > N
	}
	for _, c := range cases {
		err := c.cfg.Validate()
		if (err == nil) != c.ok {
			t.Errorf("Validate(%+v) = %v, want ok=%v", c.cfg, err, c.ok)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteReachesAllReplicas(t *testing.T) {
	fc := newFakeCluster(nodes3...)
	e := newEngine(t, fc)
	res, err := e.Write(context.Background(), nodes3, "k", ver("v", 1, "s"), Latest)
	if err != nil {
		t.Fatal(err)
	}
	if res.Acked < 2 || res.Outdated {
		t.Fatalf("result = %+v", res)
	}
	// Give stragglers a moment (quorum returns after W acks).
	deadline := time.Now().Add(time.Second)
	for {
		all := true
		for _, n := range nodes3 {
			if v, ok := fc.row(n, "k").Latest(); !ok || string(v.Value) != "v" {
				all = false
			}
		}
		if all {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("write never reached all replicas")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestWriteSucceedsWithOneDeadReplica(t *testing.T) {
	fc := newFakeCluster(nodes3...)
	fc.kill("r3")
	e := newEngine(t, fc)
	res, err := e.Write(context.Background(), nodes3, "k", ver("v", 1, "s"), Latest)
	if err != nil {
		t.Fatal(err)
	}
	if res.Acked != 2 {
		t.Fatalf("acked = %d", res.Acked)
	}
	// The dead replica's failure may or may not have been collected before
	// the quorum completed; when it was, it must be r3.
	for _, n := range res.Failed {
		if n != "r3" {
			t.Fatalf("failed = %v", res.Failed)
		}
	}
}

func TestWriteFailsWithTwoDeadReplicas(t *testing.T) {
	fc := newFakeCluster(nodes3...)
	fc.kill("r2")
	fc.kill("r3")
	e := newEngine(t, fc)
	_, err := e.Write(context.Background(), nodes3, "k", ver("v", 1, "s"), Latest)
	if !errors.Is(err, ErrQuorumFailed) {
		t.Fatalf("err = %v", err)
	}
}

func TestWriteOutdatedVerdict(t *testing.T) {
	fc := newFakeCluster(nodes3...)
	e := newEngine(t, fc)
	if _, err := e.Write(context.Background(), nodes3, "k", ver("new", 10, "s"), Latest); err != nil {
		t.Fatal(err)
	}
	// Let the write land everywhere before racing the stale one.
	time.Sleep(10 * time.Millisecond)
	res, err := e.Write(context.Background(), nodes3, "k", ver("old", 5, "s"), Latest)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Outdated {
		t.Fatalf("stale write not reported outdated: %+v", res)
	}
	// Data unchanged.
	read, err := e.Read(context.Background(), nodes3, "k")
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := read.Row.Latest(); !ok || string(v.Value) != "new" {
		t.Fatalf("row = %+v", read.Row)
	}
}

func TestWriteAllPerSource(t *testing.T) {
	fc := newFakeCluster(nodes3...)
	e := newEngine(t, fc)
	if _, err := e.Write(context.Background(), nodes3, "k", ver("a1", 5, "srcA"), All); err != nil {
		t.Fatal(err)
	}
	// Older global timestamp but different source: must be accepted.
	res, err := e.Write(context.Background(), nodes3, "k", ver("b1", 3, "srcB"), All)
	if err != nil || res.Outdated {
		t.Fatalf("cross-source write_all = %+v, %v", res, err)
	}
	read, err := e.Read(context.Background(), nodes3, "k")
	if err != nil {
		t.Fatal(err)
	}
	if live := read.Row.Live(); len(live) != 2 {
		t.Fatalf("value list = %+v", live)
	}
}

func TestReadConsistent(t *testing.T) {
	fc := newFakeCluster(nodes3...)
	e := newEngine(t, fc)
	e.Write(context.Background(), nodes3, "k", ver("v", 1, "s"), Latest)
	time.Sleep(5 * time.Millisecond)
	res, err := e.Read(context.Background(), nodes3, "k")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Consistent || len(res.Stale) != 0 {
		t.Fatalf("result = %+v", res)
	}
	if v, ok := res.Row.Latest(); !ok || string(v.Value) != "v" {
		t.Fatalf("row = %+v", res.Row)
	}
}

func TestReadMissingKeyIsEmptyRow(t *testing.T) {
	fc := newFakeCluster(nodes3...)
	e := newEngine(t, fc)
	res, err := e.Read(context.Background(), nodes3, "ghost")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Row.Latest(); ok {
		t.Fatal("missing key produced a value")
	}
	if !res.Consistent {
		t.Fatal("three empty rows should be consistent")
	}
}

func TestReadRepairsStaleReplica(t *testing.T) {
	fc := newFakeCluster(nodes3...)
	e := newEngine(t, fc)
	// r1, r2 hold the new value; r3 holds an old one.
	fresh := &kv.Row{}
	fresh.ApplyLatest(ver("new", 10, "s"))
	stale := &kv.Row{}
	stale.ApplyLatest(ver("old", 1, "s"))
	fc.setRow("r1", "k", fresh)
	fc.setRow("r2", "k", fresh)
	fc.setRow("r3", "k", stale)
	// Slow one fresh replica so the read necessarily observes the stale
	// copy before reaching its quorum (otherwise the early exit may
	// legitimately skip r3 and repair nothing).
	fc.mu.Lock()
	fc.slow["r1"] = 20 * time.Millisecond
	fc.mu.Unlock()

	res, err := e.Read(context.Background(), nodes3, "k")
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := res.Row.Latest(); string(v.Value) != "new" {
		t.Fatalf("read returned %q", v.Value)
	}
	// r3 must be repaired asynchronously.
	deadline := time.Now().Add(time.Second)
	for {
		if v, ok := fc.row("r3", "k").Latest(); ok && string(v.Value) == "new" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("stale replica never repaired")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestReadQuorumWithOneDeadReplica(t *testing.T) {
	fc := newFakeCluster(nodes3...)
	e := newEngine(t, fc)
	e.Write(context.Background(), nodes3, "k", ver("v", 1, "s"), Latest)
	time.Sleep(5 * time.Millisecond)
	fc.kill("r2")
	// Slow r3 so the collector necessarily processes r2's failure before
	// the quorum completes; otherwise the early exit may return before the
	// dead replica is even noticed (which is fine for the protocol but
	// makes the assertion racy).
	fc.mu.Lock()
	fc.slow["r3"] = 20 * time.Millisecond
	fc.mu.Unlock()
	res, err := e.Read(context.Background(), nodes3, "k")
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := res.Row.Latest(); !ok || string(v.Value) != "v" {
		t.Fatalf("row = %+v", res.Row)
	}
	if len(res.Failed) != 1 || res.Failed[0] != "r2" {
		t.Fatalf("failed = %v", res.Failed)
	}
}

func TestReadFailsBelowQuorum(t *testing.T) {
	fc := newFakeCluster(nodes3...)
	fc.kill("r1")
	fc.kill("r2")
	e := newEngine(t, fc)
	_, err := e.Read(context.Background(), nodes3, "k")
	if !errors.Is(err, ErrQuorumFailed) {
		t.Fatalf("err = %v", err)
	}
}

func TestReadMergesDivergentSources(t *testing.T) {
	// Two concurrent write_all writers each reached a different pair of
	// replicas; a read must merge both contributions.
	fc := newFakeCluster(nodes3...)
	e := newEngine(t, fc)
	rowA := &kv.Row{}
	rowA.ApplyAll(ver("a", 5, "srcA"))
	rowB := &kv.Row{}
	rowB.ApplyAll(ver("b", 6, "srcB"))
	both := rowA.Clone()
	both.Merge(rowB)
	fc.setRow("r1", "k", rowA)
	fc.setRow("r2", "k", both)
	fc.setRow("r3", "k", rowB)

	res, err := e.Read(context.Background(), nodes3, "k")
	if err != nil {
		t.Fatal(err)
	}
	if live := res.Row.Live(); len(live) != 2 {
		t.Fatalf("merged = %+v", live)
	}
	// All three replicas converge via repair.
	deadline := time.Now().Add(time.Second)
	for {
		converged := true
		for _, n := range nodes3 {
			if len(fc.row(n, "k").Live()) != 2 {
				converged = false
			}
		}
		if converged {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("replicas never converged")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestWriteParallelNotSequential(t *testing.T) {
	// The paper's headline property (Fig. 7a): Sedna's three replica
	// writes are issued in parallel. With each replica taking ~40ms, a
	// quorum write must complete in ~1 RTT, not 2-3.
	fc := newFakeCluster(nodes3...)
	for _, n := range nodes3 {
		fc.slow[n] = 40 * time.Millisecond
	}
	e := newEngine(t, fc)
	start := time.Now()
	if _, err := e.Write(context.Background(), nodes3, "k", ver("v", 1, "s"), Latest); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 90*time.Millisecond {
		t.Fatalf("write took %v; replicas appear sequential", d)
	}
}

func TestWriteQuorumReturnsBeforeSlowStraggler(t *testing.T) {
	fc := newFakeCluster(nodes3...)
	fc.slow["r3"] = 200 * time.Millisecond
	e := newEngine(t, fc)
	start := time.Now()
	res, err := e.Write(context.Background(), nodes3, "k", ver("v", 1, "s"), Latest)
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("write waited for straggler: %v", d)
	}
	if res.Acked < 2 {
		t.Fatalf("acked = %d", res.Acked)
	}
}

func TestRepairSynchronous(t *testing.T) {
	fc := newFakeCluster(nodes3...)
	e := newEngine(t, fc)
	row := &kv.Row{}
	row.ApplyLatest(ver("v", 3, "s"))
	if err := e.Repair(context.Background(), nodes3, "k", row); err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes3 {
		if v, ok := fc.row(n, "k").Latest(); !ok || string(v.Value) != "v" {
			t.Fatalf("node %s not repaired", n)
		}
	}
	fc.kill("r1")
	if err := e.Repair(context.Background(), nodes3, "k", row); err == nil {
		t.Fatal("repair with dead node reported success")
	}
}

func TestConcurrentWritersConverge(t *testing.T) {
	// Lock-free parallel writes on the same key from different sources
	// (§III-F: "allows writes on the same key parallel from different
	// sources without lock mechanism").
	fc := newFakeCluster(nodes3...)
	e := newEngine(t, fc)
	var wg sync.WaitGroup
	clock := kv.NewClock(1)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				v := kv.Versioned{Value: []byte{byte(w), byte(i)}, TS: clock.Now(), Source: "s"}
				e.Write(context.Background(), nodes3, "k", v, Latest)
			}
		}(w)
	}
	wg.Wait()
	// A final read repairs any divergence; afterwards all replicas agree.
	if _, err := e.Read(context.Background(), nodes3, "k"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Second)
	for {
		a, b, c := fc.row("r1", "k"), fc.row("r2", "k"), fc.row("r3", "k")
		if a.Equal(b) && b.Equal(c) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replicas diverged:\n r1=%+v\n r2=%+v\n r3=%+v", a.Values, b.Values, c.Values)
		}
		e.Read(context.Background(), nodes3, "k")
		time.Sleep(5 * time.Millisecond)
	}
}
