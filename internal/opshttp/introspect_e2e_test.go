package opshttp_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"testing"
	"time"

	"sedna/internal/core"
	"sedna/internal/obs"
	"sedna/internal/opshttp"
	"sedna/internal/persist"
	"sedna/internal/ring"
	"sedna/internal/testcluster"
	"sedna/internal/vfs"
	"sedna/internal/wal"
	"sedna/internal/workload"
)

// TestTopzRanksTrueHottestKey is the ISSUE's fidelity acceptance check: a
// zipf(1.1) write stream against a 3-node cluster with dataset tenant
// attribution, then /topz on a data node must rank the stream's true hottest
// key first and attribute the stream to its dataset tenant.
func TestTopzRanksTrueHottestKey(t *testing.T) {
	cl, err := testcluster.NewCluster(testcluster.ClusterConfig{Nodes: 3, TenantRule: "dataset"})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.WaitConverged(3, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	cli, err := cl.Client()
	if err != nil {
		t.Fatal(err)
	}

	gen := workload.NewGenerator(workload.Spec{
		Keys:    256,
		Dist:    workload.Zipf,
		Seed:    7,
		Dataset: "hot",
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for i := 0; i < 2000; i++ {
		if err := cli.WriteLatest(ctx, gen.NextKey(), gen.Value(i)); err != nil && !errors.Is(err, core.ErrOutdated) {
			t.Fatalf("write %d: %v", i, err)
		}
	}

	ops, err := opshttp.Start(cl.Servers[0].OpsConfig("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer ops.Close()

	var topz struct {
		Node    string               `json:"node"`
		TopKeys []obs.TopKEntry      `json:"top_keys"`
		Tenants []obs.TenantSnapshot `json:"tenants"`
	}
	if err := json.Unmarshal([]byte(mustGet(t, "http://"+ops.Addr()+"/topz", 200)), &topz); err != nil {
		t.Fatalf("topz JSON: %v", err)
	}
	if len(topz.TopKeys) == 0 {
		t.Fatal("/topz has no hot keys after 2000 writes")
	}
	hot := ring.Hash64(gen.HottestKey())
	if topz.TopKeys[0].Hash != hot {
		t.Fatalf("/topz top entry hash %016x, want true hottest %016x (top: %+v)",
			topz.TopKeys[0].Hash, hot, topz.TopKeys[:min(3, len(topz.TopKeys))])
	}
	if topz.TopKeys[0].Writes == 0 || topz.TopKeys[0].Count == 0 {
		t.Fatalf("hot entry carries no write attribution: %+v", topz.TopKeys[0])
	}
	var tenant *obs.TenantSnapshot
	for i := range topz.Tenants {
		if topz.Tenants[i].Tenant == "hot" {
			tenant = &topz.Tenants[i]
		}
	}
	if tenant == nil || tenant.Writes == 0 {
		t.Fatalf("dataset tenant not attributed: %+v", topz.Tenants)
	}
}

// TestHealthzDegradedReasonsOnStickyFsync injects a sticky fsync fault into a
// durable node's filesystem and asserts the anomaly watchdog surfaces the
// persistence degradation on /healthz degraded_reasons — the ISSUE's watchdog
// acceptance check.
func TestHealthzDegradedReasonsOnStickyFsync(t *testing.T) {
	fsys := vfs.NewFault()
	cl, err := testcluster.NewCluster(testcluster.ClusterConfig{
		Nodes: 1,
		Persist: persist.Config{
			Dir:      "/data",
			Strategy: persist.WriteAhead,
			WALSync:  wal.SyncAlways,
			FS:       fsys,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.WaitConverged(1, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	cli, err := cl.Client()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := cli.WriteLatest(ctx, "ds/tb/pre-fault", []byte("v")); err != nil {
		t.Fatal(err)
	}

	ops, err := opshttp.Start(cl.Servers[0].OpsConfig("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer ops.Close()
	base := "http://" + ops.Addr()

	var h opshttp.HealthStatus
	if err := json.Unmarshal([]byte(mustGet(t, base+"/healthz", 200)), &h); err != nil {
		t.Fatal(err)
	}
	for _, r := range h.DegradedReasons {
		if r == "wal_durability_degraded" {
			t.Fatalf("durability degraded before any fault: %v", h.DegradedReasons)
		}
	}

	// Sticky fsync failure: the next durable write latches the persistence
	// manager degraded. The client call itself may still ack — its retry is
	// deduplicated against the memstore row applied before the WAL refusal —
	// which is exactly why health must come from the watchdog, not write
	// errors.
	fsys.FailFsync(fmt.Errorf("medium error"))
	_ = cli.WriteLatest(ctx, "ds/tb/post-fault", []byte("v"))
	cl.Servers[0].Watchdog().Tick()

	// The degraded node now answers 503 (load balancers drain it) and names
	// the reason.
	if err := json.Unmarshal([]byte(mustGet(t, base+"/healthz", 503)), &h); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range h.DegradedReasons {
		if r == "wal_durability_degraded" {
			found = true
		}
	}
	if !found {
		t.Fatalf("degraded_reasons %v missing wal_durability_degraded", h.DegradedReasons)
	}
}
