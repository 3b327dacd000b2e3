package core_test

// The deterministic chaos campaign for the failure-healing pipeline: a
// replica dark behind a partition converges again from hint replay alone, a
// kill/restart cycle converges every replica with zero reads issued, and the
// per-node breakers keep client write latency below the replica timeout
// while a node is down.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"sedna/internal/client"
	"sedna/internal/core"
	"sedna/internal/kv"
	"sedna/internal/obs"
	"sedna/internal/ring"
	"sedna/internal/testcluster"
	"sedna/internal/transport"
)

// waitUntil polls cond until it holds, failing the test at the deadline.
// Deadlines are generous: under -race with every package testing in
// parallel, background loops can be starved for tens of seconds.
func waitUntil(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// healClient builds a client tuned for failure tests: short call timeout so
// dark coordinators are abandoned quickly, and a long breaker cooldown so an
// opened breaker stays open for the rest of the test.
func healClient(t *testing.T, c *testcluster.Cluster, name string) (*client.Client, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	cl, err := client.New(client.Config{
		Servers:      c.NodeAddrs,
		Caller:       c.Net.Endpoint(name),
		Source:       name,
		CallTimeout:  250 * time.Millisecond,
		RetryBackoff: 2 * time.Millisecond,
		Breaker:      transport.BreakerConfig{OpenFor: time.Minute},
		Obs:          reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cl, reg
}

func totalReads(c *testcluster.Cluster) uint64 {
	var n uint64
	for _, s := range c.Servers {
		if s != nil {
			st := s.Stats()
			n += st.CoordReads + st.ReplicaReads
		}
	}
	return n
}

func serverFor(c *testcluster.Cluster, n ring.NodeID) *core.Server {
	for i, addr := range c.NodeAddrs {
		if addr == string(n) {
			return c.Servers[i]
		}
	}
	return nil
}

// TestHealPartitionedReplicaConvergesWithoutReads: one replica goes dark
// behind a partition (its coordination session stays alive, so there is no
// eviction and no vnode recovery). W=2 writes succeed without it; once the
// partition heals, hint replay alone must deliver every missed write — the
// campaign asserts convergence with zero client or replica reads issued.
func TestHealPartitionedReplicaConvergesWithoutReads(t *testing.T) {
	c := newCluster(t, testcluster.ClusterConfig{
		Nodes:          3,
		Seed:           91,
		SessionTimeout: 5 * time.Second,
	})
	cl, _ := healClient(t, c, "heal-cli-1")
	ctx := context.Background()

	// Warm the ring lease while everyone is reachable.
	if err := cl.WriteLatest(ctx, kv.Join("healp", "t", "warm"), []byte("w")); err != nil {
		t.Fatal(err)
	}
	readsBefore := totalReads(c)

	c.PartitionNode(2)
	dark := ring.NodeID(c.NodeAddrs[2])

	keys := map[kv.Key]string{}
	for i := 0; i < 20; i++ {
		key := kv.Join("healp", "t", fmt.Sprintf("k%02d", i))
		val := fmt.Sprintf("v%02d", i)
		wctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		err := cl.WriteLatest(wctx, key, []byte(val))
		cancel()
		if err != nil {
			t.Fatalf("write %s during partition: %v", key, err)
		}
		keys[key] = val
	}

	// With 3 nodes and N=3 the dark node replicates every key, so each write
	// must have left a hint on its coordinator (hints appear once the replica
	// call times out, hence the poll).
	waitUntil(t, 30*time.Second, "hints queued for the dark node", func() bool {
		return c.Servers[0].Healer().PendingFor(dark)+c.Servers[1].Healer().PendingFor(dark) > 0
	})

	c.HealNode(2)

	// LocalRow audits the replica's store directly without touching any read
	// counter, so convergence here is attributable to replay alone.
	waitUntil(t, 90*time.Second, "dark replica to converge from hint replay", func() bool {
		for key, want := range keys {
			row, ok := c.Servers[2].LocalRow(key)
			if !ok {
				return false
			}
			if v, ok := row.Latest(); !ok || string(v.Value) != want {
				return false
			}
		}
		return true
	})
	waitUntil(t, 30*time.Second, "hint queues to drain", func() bool {
		return c.Servers[0].Healer().Pending()+c.Servers[1].Healer().Pending() == 0
	})

	if got := totalReads(c); got != readsBefore {
		t.Fatalf("healing issued reads: %d before, %d after", readsBefore, got)
	}
}

// TestHealBreakerCapsOutageWriteLatency: while one node is dark, writes keep
// succeeding through the other replicas, and once the per-node breakers open
// the dark node costs a fast-fail instead of a timeout — p99 client write
// latency during the outage must stay below the 500ms replica timeout.
func TestHealBreakerCapsOutageWriteLatency(t *testing.T) {
	c := newCluster(t, testcluster.ClusterConfig{
		Nodes:          3,
		Seed:           92,
		SessionTimeout: time.Minute, // the outage must not become an eviction
		Breaker:        transport.BreakerConfig{OpenFor: time.Minute},
	})
	cl, reg := healClient(t, c, "heal-cli-2")
	ctx := context.Background()

	for i := 0; i < 5; i++ {
		if err := cl.WriteLatest(ctx, kv.Join("healb", "t", fmt.Sprintf("warm%d", i)), []byte("w")); err != nil {
			t.Fatal(err)
		}
	}

	c.PartitionNode(2)
	dark := c.NodeAddrs[2]

	// Outage onset: keep writing until the live coordinators' breakers for
	// the dark node — and the client's own — have all opened. These writes
	// eat the expensive timeouts so the measured phase below sees only the
	// steady state the breakers exist to provide.
	i := 0
	waitUntil(t, 60*time.Second, "breakers toward the dark node to open", func() bool {
		i++
		wctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		_ = cl.WriteLatest(wctx, kv.Join("healb", "t", fmt.Sprintf("trip%03d", i)), []byte("x"))
		cancel()
		return c.Servers[0].Health().State(dark) == transport.BreakerOpen &&
			c.Servers[1].Health().State(dark) == transport.BreakerOpen &&
			cl.Health().State(dark) == transport.BreakerOpen
	})

	before := reg.Histogram("client.write").Snapshot()
	for i := 0; i < 50; i++ {
		key := kv.Join("healb", "t", fmt.Sprintf("m%03d", i))
		if err := cl.WriteLatest(ctx, key, []byte("v")); err != nil {
			t.Fatalf("measured write %d: %v", i, err)
		}
	}
	delta := reg.Histogram("client.write").Snapshot().Delta(before)
	if p99 := time.Duration(delta.P99()); p99 >= 500*time.Millisecond {
		t.Fatalf("p99 write latency during one-node outage = %v, want < 500ms", p99)
	}
}

// TestHealKillRestartConvergesWithoutReads: a node dies for real (evicted),
// writes continue against the shrunken ring, the node restarts empty and
// rejoins. Vnode recovery, the anti-entropy sweep and hint replay together
// must converge every replica of every key — again with zero reads issued.
func TestHealKillRestartConvergesWithoutReads(t *testing.T) {
	if testing.Short() {
		t.Skip("long soak")
	}
	c := newCluster(t, testcluster.ClusterConfig{
		Nodes:          4,
		Seed:           93,
		SessionTimeout: 300 * time.Millisecond,
	})
	cl, _ := healClient(t, c, "heal-cli-3")
	ctx := context.Background()

	keys := map[kv.Key]string{}
	write := func(name, val string) {
		t.Helper()
		key := kv.Join("healr", "t", name)
		wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		defer cancel()
		if err := cl.WriteLatest(wctx, key, []byte(val)); err != nil {
			t.Fatalf("write %s: %v", key, err)
		}
		keys[key] = val
	}
	for i := 0; i < 25; i++ {
		write(fmt.Sprintf("pre%02d", i), fmt.Sprintf("p%02d", i))
	}

	readsBefore := map[string]uint64{}
	for i, s := range c.Servers {
		st := s.Stats()
		readsBefore[c.NodeAddrs[i]] = st.CoordReads + st.ReplicaReads
	}

	c.KillNode(3)
	waitUntil(t, 60*time.Second, "survivors to evict the dead node", func() bool {
		for i := 0; i < 3; i++ {
			r := c.Servers[i].Ring()
			if r == nil || len(r.Nodes()) != 3 {
				return false
			}
		}
		return true
	})
	for i := 0; i < 25; i++ {
		write(fmt.Sprintf("post%02d", i), fmt.Sprintf("q%02d", i))
	}

	if _, err := c.RestartNode(3); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitConverged(4, 90*time.Second); err != nil {
		t.Fatal(err)
	}

	waitUntil(t, 120*time.Second, "every replica of every key to converge", func() bool {
		r := c.Servers[0].Ring()
		if r == nil {
			return false
		}
		for key, want := range keys {
			for _, owner := range r.OwnersForKey(key) {
				s := serverFor(c, owner)
				if s == nil {
					return false
				}
				row, ok := s.LocalRow(key)
				if !ok {
					return false
				}
				if v, ok := row.Latest(); !ok || string(v.Value) != want {
					return false
				}
			}
		}
		return true
	})

	for i, s := range c.Servers {
		base := readsBefore[c.NodeAddrs[i]]
		if i == 3 {
			base = 0 // restarted with fresh counters
		}
		st := s.Stats()
		if got := st.CoordReads + st.ReplicaReads; got != base {
			t.Fatalf("node %d issued reads while healing (%d -> %d)", i, base, got)
		}
	}
}
