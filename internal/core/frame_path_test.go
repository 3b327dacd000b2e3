package core_test

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"sedna/internal/kv"
	"sedna/internal/testcluster"
	"sedna/internal/transport"
)

// TestSingleKeyOpsAreReplicaFrames pins the one replica path: a single-key
// quorum write or read reaches each peer replica as an OpReplicaWriteBatch
// or OpReplicaReadBatch frame of one, no node serves the retired per-key
// replica opcodes, and a request for one is refused at once.
func TestSingleKeyOpsAreReplicaFrames(t *testing.T) {
	c := newCluster(t, testcluster.ClusterConfig{Nodes: 3, Seed: 35})
	cl := newClient(t, c)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	served := func(name string) (n uint64) {
		for _, s := range c.Servers {
			n += s.ObsSnapshot().Hist("rpc.server." + name).Count
		}
		return n
	}
	// waitServed waits for the frames of ops calls: the coordinator applies
	// its own copy locally and sends the other two replicas one frame each,
	// three if the coordinator is not an owner. Stragglers land after the
	// quorum settled, so wait for the floor rather than for the clock.
	waitServed := func(name string, base uint64, ops int) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for served(name)-base < uint64(2*ops) && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if got := served(name) - base; got < uint64(2*ops) || got > uint64(3*ops) {
			t.Fatalf("rpc.server.%s counted %d calls for %d single-key ops, want %d..%d", name, got, ops, 2*ops, 3*ops)
		}
	}

	const ops = 10
	keys := make([]kv.Key, ops)
	for i := range keys {
		keys[i] = kv.Join("frame", "t", fmt.Sprintf("k%d", i))
	}
	base := served("replica_write_batch")
	for i, k := range keys {
		if err := cl.WriteLatest(ctx, k, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	waitServed("replica_write_batch", base, ops)

	base = served("replica_read_batch")
	for i, k := range keys {
		v, _, err := cl.ReadLatest(ctx, k)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("v%d", i); string(v) != want {
			t.Fatalf("%s = %q, want %q", k, v, want)
		}
	}
	waitServed("replica_read_batch", base, ops)

	for _, s := range c.Servers {
		for _, name := range s.Obs().Names() {
			if name == "rpc.server.replica_write" || name == "rpc.server.replica_read" {
				t.Fatalf("node registered %s: the per-key replica handler still exists", name)
			}
		}
	}

	// 0x0303 and 0x0304 are the retired per-key replica write and read.
	prober := c.Net.Endpoint("op-prober")
	for _, op := range []uint16{0x0303, 0x0304} {
		start := time.Now()
		_, err := prober.Call(ctx, c.NodeAddrs[0], transport.Message{Op: op})
		if !transport.IsRemote(err) || !strings.Contains(err.Error(), transport.ErrNoHandler.Error()) {
			t.Fatalf("op %#04x: err = %v, want the remote %v", op, err, transport.ErrNoHandler)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("op %#04x refused after %v, want promptly", op, d)
		}
	}
}
