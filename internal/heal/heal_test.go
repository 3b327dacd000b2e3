package heal

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"sedna/internal/kv"
	"sedna/internal/obs"
	"sedna/internal/ring"
)

// row is the hint for one write_latest by one writer whose dots count its
// writes by wall time: a later row's context covers every earlier one.
func row(val string, wall int64, src string) *kv.Row {
	return kv.RowFromWrite(kv.Versioned{
		Value:  []byte(val),
		TS:     kv.Timestamp{Wall: wall, Node: 1},
		Source: src,
		Dot:    kv.Dot{Node: 1, Counter: uint64(wall)},
		Ctx:    kv.DVV{{Node: 1, Base: uint64(wall - 1)}},
	}, true)
}

// sink records replayed hints and can be told to fail.
type sink struct {
	mu      sync.Mutex
	failing bool
	got     map[string][]string // node -> values in delivery order
	calls   int
}

func newSink() *sink { return &sink{got: map[string][]string{}} }

func (s *sink) replay(ctx context.Context, node ring.NodeID, key kv.Key, r *kv.Row) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls++
	if s.failing {
		return errors.New("down")
	}
	if v, ok := r.Latest(); ok {
		s.got[string(node)] = append(s.got[string(node)], string(v.Value))
	}
	return nil
}

func (s *sink) setFailing(f bool) {
	s.mu.Lock()
	s.failing = f
	s.mu.Unlock()
}

func (s *sink) values(node string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.got[node]...)
}

func (s *sink) callCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls
}

func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestHealerReplaysHints(t *testing.T) {
	sk := newSink()
	reg := obs.NewRegistry()
	h, err := New(Config{Replay: sk.replay, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	h.Start()
	defer h.Close()

	h.Enqueue("node-a", kv.Key("k1"), row("v1", 10, "s1"))
	h.Enqueue("node-b", kv.Key("k2"), row("v2", 11, "s1"))
	waitFor(t, 5*time.Second, func() bool { return h.Pending() == 0 }, "hints not drained")
	if got := sk.values("node-a"); len(got) != 1 || got[0] != "v1" {
		t.Fatalf("node-a got %v, want [v1]", got)
	}
	if got := sk.values("node-b"); len(got) != 1 || got[0] != "v2" {
		t.Fatalf("node-b got %v, want [v2]", got)
	}
	snap := reg.Snapshot()
	if snap.Counter("heal.hints_replayed") != 2 {
		t.Fatalf("hints_replayed = %d, want 2", snap.Counter("heal.hints_replayed"))
	}
	if snap.Gauge("heal.hints_pending") != 0 {
		t.Fatalf("hints_pending gauge = %d, want 0", snap.Gauge("heal.hints_pending"))
	}
}

func TestHealerCoalescesByKey(t *testing.T) {
	sk := newSink()
	sk.setFailing(true)
	h, err := New(Config{Replay: sk.replay, BaseBackoff: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	h.Start()
	defer h.Close()

	// Two hints for the same (node, key) merge into one queue entry holding
	// the newer value.
	h.Enqueue("node-a", kv.Key("k1"), row("old", 10, "s1"))
	h.Enqueue("node-a", kv.Key("k1"), row("new", 20, "s1"))
	if got := h.PendingFor("node-a"); got != 1 {
		t.Fatalf("pending = %d, want 1 (coalesced)", got)
	}
	sk.setFailing(false)
	h.NotifyAlive("node-a")
	waitFor(t, 5*time.Second, func() bool { return h.Pending() == 0 }, "hint not drained")
	if got := sk.values("node-a"); len(got) != 1 || got[0] != "new" {
		t.Fatalf("delivered %v, want the merged row's latest [new]", got)
	}
}

func TestHealerOverflowDropsOldest(t *testing.T) {
	sk := newSink()
	sk.setFailing(true)
	reg := obs.NewRegistry()
	h, err := New(Config{
		Replay:        sk.replay,
		QueueCapacity: 4,
		BaseBackoff:   10 * time.Millisecond,
		Obs:           reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	h.Start()
	defer h.Close()

	keys := []string{"k1", "k2", "k3", "k4", "k5", "k6"}
	for i, k := range keys {
		h.Enqueue("node-a", kv.Key(k), row("v", int64(10+i), "s1"))
	}
	if got := h.PendingFor("node-a"); got != 4 {
		t.Fatalf("pending = %d, want capacity 4", got)
	}
	if got := h.Dropped(); got != 2 {
		t.Fatalf("dropped = %d, want 2", got)
	}
	if got := reg.Snapshot().Counter("heal.hints_dropped"); got != 2 {
		t.Fatalf("hints_dropped counter = %d, want 2", got)
	}

	// The survivors are the four NEWEST keys, in order.
	sk.setFailing(false)
	h.NotifyAlive("node-a")
	waitFor(t, 5*time.Second, func() bool { return h.Pending() == 0 }, "hints not drained")
	if got := sk.values("node-a"); len(got) != 4 {
		t.Fatalf("delivered %d hints, want the 4 surviving newest", len(got))
	}
	if g := reg.Snapshot().Gauge("heal.hints_pending"); g != 0 {
		t.Fatalf("hints_pending gauge = %d, want 0", g)
	}
}

func TestHealerBacksOffWhileNodeDark(t *testing.T) {
	sk := newSink()
	sk.setFailing(true)
	h, err := New(Config{
		Replay:      sk.replay,
		BaseBackoff: 20 * time.Millisecond,
		MaxBackoff:  100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	h.Start()
	defer h.Close()

	h.Enqueue("node-a", kv.Key("k1"), row("v1", 10, "s1"))
	// Let a few backoff cycles elapse; the replayer must probe more than
	// once but far fewer times than a tight loop would.
	time.Sleep(250 * time.Millisecond)
	probes := sk.callCount()
	if probes < 2 {
		t.Fatalf("replayer never retried (calls = %d)", probes)
	}
	if probes > 12 {
		t.Fatalf("replayer is not backing off (calls = %d in 250ms)", probes)
	}
	// Node recovers: NotifyAlive short-circuits the backoff.
	sk.setFailing(false)
	h.NotifyAlive("node-a")
	waitFor(t, 5*time.Second, func() bool { return h.Pending() == 0 }, "hint not drained after recovery")
}

func TestSweeperDedupsAndRetries(t *testing.T) {
	var mu sync.Mutex
	swept := []ring.VNodeID{}
	fail := map[ring.VNodeID]int{7: 1} // vnode 7 fails once then succeeds
	reg := obs.NewRegistry()
	s, err := NewSweeper(SweepConfig{
		Every: 10 * time.Millisecond,
		Obs:   reg,
		Sweep: func(v ring.VNodeID) error {
			mu.Lock()
			defer mu.Unlock()
			if fail[v] > 0 {
				fail[v]--
				return errors.New("transient")
			}
			swept = append(swept, v)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Close()

	s.MarkDirty(3, 7, 3, 3) // duplicate marks collapse
	waitFor(t, 5*time.Second, func() bool { return s.Backlog() == 0 }, "backlog not drained")
	mu.Lock()
	defer mu.Unlock()
	if len(swept) != 2 {
		t.Fatalf("swept %v, want exactly vnodes 3 and 7 once each", swept)
	}
	seen := map[ring.VNodeID]bool{}
	for _, v := range swept {
		seen[v] = true
	}
	if !seen[3] || !seen[7] {
		t.Fatalf("swept %v, want {3, 7}", swept)
	}
	snap := reg.Snapshot()
	if snap.Counter("heal.sweeps") != 2 {
		t.Fatalf("sweeps = %d, want 2", snap.Counter("heal.sweeps"))
	}
	if snap.Counter("heal.sweep_errors") != 1 {
		t.Fatalf("sweep_errors = %d, want 1", snap.Counter("heal.sweep_errors"))
	}
	if snap.Gauge("heal.sweep_backlog") != 0 {
		t.Fatalf("sweep_backlog gauge = %d, want 0", snap.Gauge("heal.sweep_backlog"))
	}
}

func TestSweeperReschedulesOnOwnershipChange(t *testing.T) {
	var mu sync.Mutex
	attempts := 0
	reg := obs.NewRegistry()
	s, err := NewSweeper(SweepConfig{
		Every: 10 * time.Millisecond,
		Obs:   reg,
		Sweep: func(v ring.VNodeID) error {
			mu.Lock()
			defer mu.Unlock()
			attempts++
			// The vnode's ownership epoch moves under the first two sweep
			// attempts (a migration cutover landing mid-sweep); the third
			// runs against a stable owner set.
			if attempts <= 2 {
				return ErrOwnershipChanged
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Close()

	s.MarkDirty(9)
	waitFor(t, 5*time.Second, func() bool { return s.Backlog() == 0 }, "backlog not drained")
	snap := reg.Snapshot()
	if snap.Counter("heal.sweep_rescheduled") != 2 {
		t.Fatalf("sweep_rescheduled = %d, want 2", snap.Counter("heal.sweep_rescheduled"))
	}
	if snap.Counter("heal.sweep_errors") != 0 {
		t.Fatalf("sweep_errors = %d, want 0: an ownership change is not a failure", snap.Counter("heal.sweep_errors"))
	}
	if snap.Counter("heal.sweeps") != 1 {
		t.Fatalf("sweeps = %d, want 1", snap.Counter("heal.sweeps"))
	}
}

// TestHealerCoalesceDuringFlightNotLost is the regression for the silent
// lost-hint bug: a hint coalesced INTO while its older snapshot is being
// delivered must survive the delivery's success. The retire check used to
// compare queue-entry identity — but coalescing merges in place, so identity
// never changes and the merged-in data was retired unreplayed.
func TestHealerCoalesceDuringFlightNotLost(t *testing.T) {
	inFlight := make(chan struct{})
	release := make(chan struct{})
	var mu sync.Mutex
	var delivered []string
	first := true
	replay := func(ctx context.Context, node ring.NodeID, key kv.Key, r *kv.Row) error {
		if first {
			first = false
			close(inFlight)
			<-release // hold the delivery open while a newer hint coalesces in
		}
		mu.Lock()
		if v, ok := r.Latest(); ok {
			delivered = append(delivered, string(v.Value))
		}
		mu.Unlock()
		return nil
	}
	h, err := New(Config{Replay: replay, BaseBackoff: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	h.Start()
	defer h.Close()

	h.Enqueue("node-a", kv.Key("k1"), row("old", 10, "s1"))
	<-inFlight
	h.Enqueue("node-a", kv.Key("k1"), row("new", 20, "s1"))
	close(release)

	waitFor(t, 5*time.Second, func() bool { return h.Pending() == 0 }, "hints not drained")
	mu.Lock()
	defer mu.Unlock()
	if len(delivered) == 0 || delivered[len(delivered)-1] != "new" {
		t.Fatalf("delivered %v; the coalesced-in newer value was silently retired", delivered)
	}
}
