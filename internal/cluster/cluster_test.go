package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"sedna/internal/coord"
	"sedna/internal/netsim"
	"sedna/internal/ring"
)

// harness runs a single-member coordination ensemble and hands out clients.
type harness struct {
	net   *netsim.Network
	srv   *coord.Server
	addrs []string
	t     *testing.T
}

func newHarness(t *testing.T) *harness {
	t.Helper()
	net := netsim.NewNetwork(netsim.Loopback(), 7)
	addrs := []string{"coord-0"}
	srv := coord.NewServer(coord.ServerConfig{
		ID:              0,
		Members:         addrs,
		Transport:       net.Endpoint(addrs[0]),
		HeartbeatEvery:  10 * time.Millisecond,
		ElectionTimeout: 60 * time.Millisecond,
		RPCTimeout:      40 * time.Millisecond,
	})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	deadline := time.Now().Add(3 * time.Second)
	for !srv.IsLeader() {
		if time.Now().After(deadline) {
			t.Fatal("no leader")
		}
		time.Sleep(5 * time.Millisecond)
	}
	return &harness{net: net, srv: srv, addrs: addrs, t: t}
}

func (h *harness) client(name string, sessionTO time.Duration) *coord.Client {
	h.t.Helper()
	if sessionTO == 0 {
		sessionTO = 2 * time.Second
	}
	c, err := coord.Dial(coord.ClientConfig{
		Servers:        h.addrs,
		Caller:         h.net.Endpoint(name),
		SessionTimeout: sessionTO,
		CallTimeout:    500 * time.Millisecond,
	})
	if err != nil {
		h.t.Fatal(err)
	}
	h.t.Cleanup(func() { c.Close() })
	return c
}

func (h *harness) manager(t *testing.T, node ring.NodeID, sessionTO time.Duration) *Manager {
	t.Helper()
	c := h.client("sess-"+string(node), sessionTO)
	m, err := NewManager(Config{
		Node:           node,
		Client:         c,
		ReconcileEvery: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

func TestBootstrapIdempotent(t *testing.T) {
	h := newHarness(t)
	c := h.client("boot", 0)
	if err := Bootstrap(c, DefaultLayout(), 64, 3); err != nil {
		t.Fatal(err)
	}
	if err := Bootstrap(c, DefaultLayout(), 64, 3); err != nil {
		t.Fatal(err)
	}
	blob, _, err := c.Get(DefaultLayout().RingPath())
	if err != nil {
		t.Fatal(err)
	}
	snap, err := ring.DecodeRing(blob)
	if err != nil {
		t.Fatal(err)
	}
	if snap.NumVNodes() != 64 || snap.ReplicaFactor() != 3 {
		t.Fatalf("snapshot = %d vnodes, %d replicas", snap.NumVNodes(), snap.ReplicaFactor())
	}
}

func TestJoinWithoutBootstrapFails(t *testing.T) {
	h := newHarness(t)
	m := h.manager(t, "n1", 0)
	if _, err := m.Join(); !errors.Is(err, ErrNotBootstrapped) {
		t.Fatalf("join = %v", err)
	}
}

func TestJoinClaimsVNodes(t *testing.T) {
	h := newHarness(t)
	c := h.client("boot", 0)
	if err := Bootstrap(c, DefaultLayout(), 30, 3); err != nil {
		t.Fatal(err)
	}
	m1 := h.manager(t, "n1", 0)
	moves, err := m1.Join()
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) != 30 {
		t.Fatalf("first joiner got %d moves, want 30", len(moves))
	}
	r := m1.Ring()
	if got := len(r.PrimaryVNodesOf("n1")); got != 30 {
		t.Fatalf("n1 primaries = %d", got)
	}
	// Ephemeral liveness registered.
	if _, ok, _ := c.Exists(DefaultLayout().NodePath("n1")); !ok {
		t.Fatal("liveness ephemeral missing")
	}

	// Second joiner takes roughly half of slot 0 and shares slot 1.
	m2 := h.manager(t, "n2", 0)
	moves2, err := m2.Join()
	if err != nil {
		t.Fatal(err)
	}
	if len(moves2) == 0 {
		t.Fatal("second joiner received nothing")
	}
	r2 := m2.Ring()
	if got := len(r2.PrimaryVNodesOf("n2")); got < 10 {
		t.Fatalf("n2 primaries = %d, want ~15", got)
	}
	for _, mv := range moves2 {
		// Steals must flow to the joiner; fills of the newly activated
		// replica slot (From == "") may land on either member.
		if mv.From != "" && mv.To != "n2" {
			t.Fatalf("join churned %v", mv)
		}
	}
}

func TestGracefulLeaveRedistributes(t *testing.T) {
	h := newHarness(t)
	c := h.client("boot", 0)
	Bootstrap(c, DefaultLayout(), 20, 2)
	m1 := h.manager(t, "n1", 0)
	m2 := h.manager(t, "n2", 0)
	if _, err := m1.Join(); err != nil {
		t.Fatal(err)
	}
	if _, err := m2.Join(); err != nil {
		t.Fatal(err)
	}
	if err := m2.Leave(); err != nil {
		t.Fatal(err)
	}
	blob, _, _ := c.Get(DefaultLayout().RingPath())
	snap, _ := ring.DecodeRing(blob)
	for _, n := range snap.Nodes() {
		if n == "n2" {
			t.Fatal("left node still in ring")
		}
	}
	if _, ok, _ := c.Exists(DefaultLayout().NodePath("n2")); ok {
		t.Fatal("left node ephemeral remains")
	}
	// n1 owns everything again.
	if got := len(snap.PrimaryVNodesOf("n1")); got != 20 {
		t.Fatalf("n1 primaries after leave = %d", got)
	}
}

// TestCrashEvictionViaReconcile: after a member crashes, a survivor learns
// of every vnode it gained, whichever survivor evicts the dead node. m1, m2
// and the watcher all reconcile, so either of two things happens, and the
// test accepts both as Config documents them: the watcher commits the
// eviction itself (OnMoves and OnOwnershipChange both fire), or it adopts
// a peer's eviction (only OnOwnershipChange fires).
func TestCrashEvictionViaReconcile(t *testing.T) {
	h := newHarness(t)
	c := h.client("boot", 0)
	Bootstrap(c, DefaultLayout(), 20, 2)

	m1 := h.manager(t, "n1", 0)
	if _, err := m1.Join(); err != nil {
		t.Fatal(err)
	}
	m2 := h.manager(t, "n2", 0)
	if _, err := m2.Join(); err != nil {
		t.Fatal(err)
	}

	// n3 joins with a short session, then "crashes" (network isolation).
	// With three members and two replicas the survivors must take over
	// the dead node's vnodes, so real moves flow to them.
	crashClient := h.client("sess-n3", 150*time.Millisecond)
	m3, err := NewManager(Config{Node: "n3", Client: crashClient, ReconcileEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m3.Close)
	if _, err := m3.Join(); err != nil {
		t.Fatal(err)
	}

	// A second manager on n1's behalf, driven only by the Reconcile calls
	// below, records what its hooks report.
	var (
		mu      sync.Mutex
		moves   []ring.Move
		changed = map[ring.VNodeID]bool{}
	)
	watcher, err := NewManager(Config{
		Node:   "n1",
		Client: h.client("sess-n1b", 0),
		OnMoves: func(mv []ring.Move) {
			mu.Lock()
			moves = append(moves, mv...)
			mu.Unlock()
		},
		OnOwnershipChange: func(vs []ring.VNodeID) {
			mu.Lock()
			for _, v := range vs {
				changed[v] = true
			}
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Adopt the three-member table while n3 is alive: it is the view the
	// eviction is measured against.
	if err := watcher.Reconcile(); err != nil {
		t.Fatal(err)
	}
	before := watcher.Ring()
	if !hasNode(before, "n3") {
		t.Fatal("n3 missing from the ring before its crash")
	}

	h.net.Isolate("sess-n3") // n3 stops pinging; session expires

	// Run reconciliation until n3 is evicted.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := watcher.Reconcile(); err == nil && !hasNode(watcher.Ring(), "n3") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("crashed node never evicted")
		}
		time.Sleep(20 * time.Millisecond)
	}

	after := watcher.Ring()
	gained := map[ring.VNodeID]bool{}
	for _, v := range after.VNodesOf("n1") {
		gained[v] = true
	}
	for _, v := range before.VNodesOf("n1") {
		delete(gained, v)
	}
	if len(gained) == 0 {
		t.Fatal("n1 gained no vnodes from the eviction")
	}
	mu.Lock()
	defer mu.Unlock()
	for v := range gained {
		if !changed[v] {
			t.Errorf("gained vnode %d not reported by OnOwnershipChange (reported %v)", v, changed)
		}
	}
	for _, mv := range moves {
		if mv.To != "n1" || !gained[mv.VNode] {
			t.Errorf("OnMoves delivered %v, want only moves to n1 of gained vnodes %v", mv, gained)
		}
	}
}

func hasNode(r *ring.Ring, n ring.NodeID) bool {
	for _, m := range r.Nodes() {
		if m == n {
			return true
		}
	}
	return false
}

func TestReportSuspect(t *testing.T) {
	h := newHarness(t)
	c := h.client("boot", 0)
	Bootstrap(c, DefaultLayout(), 10, 2)
	m1 := h.manager(t, "n1", 0)
	m1.Join()
	m2 := h.manager(t, "n2", 0)
	m2.Join()
	// Refresh m1's local view so it includes n2.
	if err := m1.Reconcile(); err != nil {
		t.Fatal(err)
	}

	// A live suspect is left alone.
	if err := m1.ReportSuspect("n2"); err != nil {
		t.Fatal(err)
	}
	r := m1.Ring()
	alive := false
	for _, n := range r.Nodes() {
		if n == "n2" {
			alive = true
		}
	}
	if !alive {
		t.Fatal("live suspect was evicted")
	}

	// Remove the ephemeral (simulates expiry) and re-report.
	if err := c.Delete(DefaultLayout().NodePath("n2"), -1); err != nil {
		t.Fatal(err)
	}
	if err := m1.ReportSuspect("n2"); err != nil {
		t.Fatal(err)
	}
	r = m1.Ring()
	for _, n := range r.Nodes() {
		if n == "n2" {
			t.Fatal("dead suspect survived")
		}
	}
}

func TestConcurrentJoinsCAS(t *testing.T) {
	h := newHarness(t)
	c := h.client("boot", 0)
	Bootstrap(c, DefaultLayout(), 40, 3)
	const n = 4
	managers := make([]*Manager, n)
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		managers[i] = h.manager(t, ring.NodeID(fmt.Sprintf("n%d", i)), 0)
	}
	for i := 0; i < n; i++ {
		go func(i int) {
			_, err := managers[i].Join()
			errs <- err
		}(i)
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	blob, _, _ := c.Get(DefaultLayout().RingPath())
	snap, err := ring.DecodeRing(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(snap.Nodes()); got != n {
		t.Fatalf("ring has %d nodes, want %d", got, n)
	}
	if err := snap.Validate(); err != nil {
		t.Fatal(err)
	}
	// Every vnode fully replicated (4 nodes >= 3 replicas).
	for v := 0; v < 40; v++ {
		owners := snap.Owners(ring.VNodeID(v))
		for slot := 0; slot < 3; slot++ {
			if owners[slot] == "" {
				t.Fatalf("vnode %d slot %d empty", v, slot)
			}
		}
	}
}

func TestPublishAndReadImbalance(t *testing.T) {
	h := newHarness(t)
	c := h.client("boot", 0)
	Bootstrap(c, DefaultLayout(), 10, 2)
	m := h.manager(t, "n1", 0)
	m.Join()
	row := ring.NodeImbalance{Node: "n1", Load: 123.5, Share: 0.75, Ratio: 1.5, VNodes: 10}
	if err := m.PublishImbalance(row); err != nil {
		t.Fatal(err)
	}
	// Publishing again overwrites.
	row.Load = 200
	if err := m.PublishImbalance(row); err != nil {
		t.Fatal(err)
	}
	got, err := m.ClusterImbalance()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Node != "n1" || got[0].Load != 200 || got[0].VNodes != 10 {
		t.Fatalf("imbalance = %+v", got)
	}
}

func TestImbalanceCodecProperty(t *testing.T) {
	f := func(node string, load, share, ratio float64, vnodes uint16) bool {
		if len(node) > 60000 {
			return true
		}
		in := ring.NodeImbalance{Node: ring.NodeID(node), Load: load, Share: share, Ratio: ratio, VNodes: int(vnodes)}
		out, err := decodeImbalance(encodeImbalance(in))
		if err != nil {
			return false
		}
		// NaN != NaN; compare bit patterns via re-encode.
		return string(encodeImbalance(out)) == string(encodeImbalance(in))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	if _, err := decodeImbalance([]byte{1}); err == nil {
		t.Fatal("short row accepted")
	}
	if _, err := decodeImbalance([]byte{5, 0, 'a', 'b'}); err == nil {
		t.Fatal("truncated row accepted")
	}
}

func TestOwnershipChangeHookFiresOnAdoptedRingChange(t *testing.T) {
	h := newHarness(t)
	c := h.client("boot", 0)
	Bootstrap(c, DefaultLayout(), 20, 2)

	var mu sync.Mutex
	var changed []ring.VNodeID
	m1, err := NewManager(Config{
		Node:           "n1",
		Client:         h.client("sess-n1", 0),
		ReconcileEvery: 25 * time.Millisecond,
		OnOwnershipChange: func(vs []ring.VNodeID) {
			mu.Lock()
			changed = append(changed, vs...)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m1.Close)
	if _, err := m1.Join(); err != nil {
		t.Fatal(err)
	}

	// n1's steady state must not re-fire the hook: same ring version, no diff.
	time.Sleep(100 * time.Millisecond)
	mu.Lock()
	changed = changed[:0]
	mu.Unlock()

	// A second member's join rewrites the assignment; n1's reconcile adopts
	// the new table and must surface every vnode whose owner set changed —
	// rows n1 quorum-acked against the old view need an anti-entropy pass
	// before reads through the new view can rely on them.
	m2 := h.manager(t, "n2", 0)
	if _, err := m2.Join(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		mu.Lock()
		n := len(changed)
		mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("ownership-change hook never fired after a join changed the ring")
		}
		time.Sleep(10 * time.Millisecond)
	}
	r := m1.Ring()
	mu.Lock()
	defer mu.Unlock()
	seen := map[ring.VNodeID]bool{}
	for _, v := range changed {
		if v < 0 || int(v) >= r.NumVNodes() {
			t.Fatalf("hook reported out-of-range vnode %d", v)
		}
		if seen[v] {
			t.Fatalf("hook reported vnode %d twice in one adoption burst", v)
		}
		seen[v] = true
	}
	// Every reported vnode is one n1 owns under the adopted view or owned
	// before; with two members and RF=2 n1 still owns everything, so the
	// stronger check holds directly.
	for v := range seen {
		owns := false
		for _, o := range r.Owners(v) {
			if o == "n1" {
				owns = true
			}
		}
		if !owns {
			t.Fatalf("hook reported vnode %d that n1 does not own", v)
		}
	}
}

// TestHeldRingSnapshotSurvivesAdoptions: Ring hands every caller the same
// published ring, so a ring a caller holds must never change underneath
// it — not while adoptions replace it, and not when the table it was
// adopted from is mutated afterwards. Run under -race this also checks that
// readers walking a held ring never race an adoption.
func TestHeldRingSnapshotSurvivesAdoptions(t *testing.T) {
	m := &Manager{cfg: Config{Node: "n0", OnOwnershipChange: func([]ring.VNodeID) {}}}
	tb := ring.NewTable(128, 3)
	for i := 0; i < 3; i++ {
		tb.AddNode(ring.NodeID(fmt.Sprintf("n%d", i)))
	}
	m.adoptTable(tb)
	held := m.Ring()
	want := ring.EncodeRing(held)

	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// The first writer keeps mutating the very table the held ring
			// was adopted from; the others adopt fresh tables.
			own := tb
			for i := 0; i < 20; i++ {
				if w > 0 {
					own = ring.NewTable(128, 3)
					own.AddNode("n0")
				}
				node := ring.NodeID(fmt.Sprintf("w%d-%d", w, i))
				own.AddNode(node)
				m.adoptTable(own)
				if i%2 == 1 {
					own.RemoveNode(node)
					m.adoptTable(own)
				}
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				for _, rg := range []*ring.Ring{held, m.Ring()} {
					for v := 0; v < rg.NumVNodes(); v++ {
						_ = rg.Owners(ring.VNodeID(v))
					}
				}
			}
		}()
	}
	wg.Wait()
	if got := ring.EncodeRing(held); !bytes.Equal(got, want) {
		t.Fatal("a held ring changed while newer assignments were adopted")
	}
	if m.Ring() == held {
		t.Fatal("adoptions never replaced the published ring")
	}
}
