package core_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"sedna/internal/core"
	"sedna/internal/kv"
	"sedna/internal/obs"
	"sedna/internal/rebalance"
	"sedna/internal/testcluster"
)

// TestElasticJoinDrainUnderLoad is the elasticity chaos proof: a 3-node
// cluster serves a continuous write workload while a fourth node joins
// passively, acquires its fair share of vnodes through a live migration
// campaign, and is then drained back out. The durability contract must hold
// throughout — every acknowledged write stays readable at (at least) its
// acked value — and after each cutover the ownership visible through the
// ring must match where the rows actually are. Each campaign must also move
// close to the minimal share of the stored rows.
func TestElasticJoinDrainUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("long soak")
	}
	c := newCluster(t, testcluster.ClusterConfig{Nodes: 3, Seed: 99})
	ctx := context.Background()

	// Preload a data mass so the campaigns stream real rows rather than
	// cutting over empty vnodes.
	loader := newClient(t, c)
	for i := 0; i < 300; i++ {
		key := kv.Join("elastic", "pre", fmt.Sprintf("k%03d", i))
		if err := loader.WriteLatest(ctx, key, []byte(fmt.Sprintf("pre-%03d", i))); err != nil {
			t.Fatalf("preload %s: %v", key, err)
		}
	}

	var mu sync.Mutex
	acked := map[kv.Key]string{}
	stop := make(chan struct{})
	var writers sync.WaitGroup
	for w := 0; w < 2; w++ {
		cl := newClient(t, c)
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				i++
				key := kv.Join("elastic", "t", fmt.Sprintf("w%d-k%03d", w, i%120))
				val := fmt.Sprintf("w%d-i%06d", w, i)
				wctx, cancel := context.WithTimeout(ctx, 3*time.Second)
				err := cl.WriteLatest(wctx, key, []byte(val))
				cancel()
				if err == nil {
					mu.Lock()
					acked[key] = val
					mu.Unlock()
				}
				time.Sleep(2 * time.Millisecond)
			}
		}(w)
	}

	clusterCounters := func() obs.Snapshot {
		var out obs.Snapshot
		for _, s := range c.Servers {
			if s != nil {
				out = out.Merge(s.ObsReport().Snapshot)
			}
		}
		return out
	}
	storedRows := func() int64 {
		var n int64
		for _, s := range c.Servers {
			if s != nil {
				n += s.Stats().Store.Items
			}
		}
		return n
	}
	// checkMovement compares the replica copies a campaign dropped from
	// their old owners (rebalance.rows_dropped) with the ideal share of the
	// copies stored when it started: a planner that moves slots it need not
	// move, or a migrator that keeps rows it handed off, falls outside 1.25x.
	checkMovement := func(kind string, delta obs.Snapshot, rowsBefore int64, ideal float64) {
		t.Helper()
		share := float64(delta.Counter("rebalance.rows_dropped")) / float64(rowsBefore)
		t.Logf("%s: moved %.4f of %d rows, ideal %.4f (%.3fx)", kind, share, rowsBefore, ideal, share/ideal)
		if share > 1.25*ideal || share < ideal/1.25 {
			t.Errorf("%s moved %.4f of the rows, want within 1.25x of the ideal %.4f", kind, share, ideal)
		}
	}
	runCampaign := func(kind string, start func() error, srv *core.Server) rebalance.Campaign {
		t.Helper()
		if err := start(); err != nil {
			t.Fatalf("start %s: %v", kind, err)
		}
		var camp rebalance.Campaign
		waitUntil(t, 120*time.Second, kind+" campaign", func() bool {
			cur, ok := srv.Rebalancer().Status()
			if !ok || cur.State == rebalance.CampaignRunning {
				return false
			}
			camp = cur
			return true
		})
		if camp.State != rebalance.CampaignDone {
			t.Fatalf("%s campaign ended %s (error %q)", kind, camp.State, camp.Error)
		}
		if camp.Failed > 0 {
			t.Fatalf("%s campaign: %d failed moves", kind, camp.Failed)
		}
		return camp
	}

	// Let the writers create all 240 of their keys first: from here on they
	// only overwrite, so the row mass is steady while the campaigns run and
	// checkMovement measures against a fixed denominator.
	waitUntil(t, 30*time.Second, "writers to create their keys", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(acked) == 2*120
	})

	// Join: boot a passive fourth node and stream it a fair share.
	_, joiner, err := c.AddPassiveNode()
	if err != nil {
		t.Fatalf("add passive node: %v", err)
	}
	// The joiner becomes the fourth member, so a quarter of all slots is
	// the least it can take.
	rowsBefore := storedRows()
	before := clusterCounters()
	camp := runCampaign("join", joiner.Rebalancer().StartJoin, joiner)
	delta := clusterCounters().Delta(before)
	checkMovement("join", delta, rowsBefore, 1.0/4)
	if got := delta.Counter("rebalance.rows_streamed"); got == 0 {
		t.Fatal("join streamed zero rows despite the preloaded data mass")
	}
	if got := delta.Counter("rebalance.cutovers"); got != uint64(camp.Completed) {
		t.Fatalf("rebalance.cutovers = %d, want one per completed move (%d)", got, camp.Completed)
	}
	t.Logf("join: %d moves, %d rows streamed, %d dual writes",
		camp.Completed, delta.Counter("rebalance.rows_streamed"), delta.Counter("rebalance.dual_writes"))

	// After the join every node's ring must list 4 members, and the joiner
	// must hold roughly a quarter of all slots — the planner targets the
	// fair share, minus moves skipped because ownership shifted mid-plan.
	if err := c.WaitConverged(4, 60*time.Second); err != nil {
		t.Fatal(err)
	}
	snap := joiner.Ring()
	totalSlots := snap.NumVNodes() * snap.ReplicaFactor()
	fair := totalSlots / 4
	if got := len(snap.VNodesOf(joiner.Node())); got < fair/2 {
		t.Fatalf("joiner holds %d slots after join, want at least half the fair share (%d)", got, fair)
	}

	// Drain: stream everything back off and verify the node ends empty.
	// Every slot the joiner holds must move, and no other.
	snap = joiner.Ring()
	drainIdeal := float64(len(snap.VNodesOf(joiner.Node()))) / float64(snap.NumVNodes()*snap.ReplicaFactor())
	rowsBefore = storedRows()
	before = clusterCounters()
	camp = runCampaign("drain", joiner.Rebalancer().StartDrain, joiner)
	delta = clusterCounters().Delta(before)
	checkMovement("drain", delta, rowsBefore, drainIdeal)
	t.Logf("drain: %d moves, %d rows streamed", camp.Completed, delta.Counter("rebalance.rows_streamed"))
	if err := c.WaitConverged(3, 60*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := len(joiner.Ring().VNodesOf(joiner.Node())); got != 0 {
		t.Fatalf("drained node still holds %d slots", got)
	}

	close(stop)
	writers.Wait()

	// Audit: every acknowledged key must read back at least as new as its
	// acked value (a later un-acked write by the same writer may have
	// landed — its error was a timeout, not a failure).
	auditor := newClient(t, c)
	mu.Lock()
	defer mu.Unlock()
	if len(acked) == 0 {
		t.Fatal("no writes were acknowledged during the campaigns")
	}
	var missing, stale int
	for key, want := range acked {
		var got string
		deadline := time.Now().Add(10 * time.Second)
		for {
			val, _, err := auditor.ReadLatest(ctx, key)
			if err == nil {
				got = string(val)
				break
			}
			if time.Now().After(deadline) {
				missing++
				t.Errorf("acked key %s unreadable: %v", key, err)
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
		if got == "" {
			continue
		}
		var wWant, iWant, wGot, iGot int
		fmt.Sscanf(want, "w%d-i%d", &wWant, &iWant)
		fmt.Sscanf(got, "w%d-i%d", &wGot, &iGot)
		if wGot != wWant || iGot < iWant {
			stale++
			t.Errorf("key %s: acked %q but read %q", key, want, got)
		}
	}
	if missing > 0 || stale > 0 {
		t.Fatalf("durability audit failed: %d missing, %d stale of %d acked keys", missing, stale, len(acked))
	}
	t.Logf("audited %d acked keys across join+drain", len(acked))
}
