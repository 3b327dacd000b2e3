package client_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"sedna/internal/client"
	"sedna/internal/core"
	"sedna/internal/kv"
)

func batchTestKeys(n int) []kv.Key {
	keys := make([]kv.Key, n)
	for i := range keys {
		keys[i] = kv.Join("d", "batch", fmt.Sprintf("k%02d", i))
	}
	return keys
}

func TestMSetMGetRoundTrip(t *testing.T) {
	c := testCluster(t, 3, 41)
	cl, reg, err := c.ClientWithObs()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	keys := batchTestKeys(16)

	items := make([]client.MSetItem, len(keys))
	for i, k := range keys {
		items[i] = client.MSetItem{Key: k, Value: []byte("v-" + string(k))}
	}
	for i, err := range cl.MSet(ctx, items) {
		if err != nil {
			t.Fatalf("mset key %d: %v", i, err)
		}
	}

	// Mixed hit/miss: interleave the written keys with absent ones.
	var mixed []kv.Key
	for i, k := range keys {
		mixed = append(mixed, k)
		if i%4 == 0 {
			mixed = append(mixed, kv.Join("d", "batch", fmt.Sprintf("ghost%02d", i)))
		}
	}
	res := cl.MGet(ctx, mixed)
	if len(res) != len(mixed) {
		t.Fatalf("mget returned %d results for %d keys", len(res), len(mixed))
	}
	for _, r := range res {
		if r.Key[:9] == "d/batch/g" { // ghost keys
			if !errors.Is(r.Err, core.ErrNotFound) {
				t.Fatalf("ghost key %s: err = %v, want not found", r.Key, r.Err)
			}
			continue
		}
		if r.Err != nil {
			t.Fatalf("key %s: %v", r.Key, r.Err)
		}
		if string(r.Value) != "v-"+string(r.Key) {
			t.Fatalf("key %s = %q", r.Key, r.Value)
		}
	}

	// The batch must have travelled as per-primary frames, far fewer than
	// one RPC per key.
	snap := reg.Snapshot()
	if got := snap.Counter("client.batch.keys"); got != uint64(len(keys)+len(mixed)) {
		t.Fatalf("client.batch.keys = %d, want %d", got, len(keys)+len(mixed))
	}
	frames := snap.Counter("client.batch.frames")
	if frames == 0 || frames > uint64(2*len(c.Servers)+2) {
		t.Fatalf("client.batch.frames = %d for 2 batches on %d nodes", frames, len(c.Servers))
	}
}

func TestMSetPartitionedReplicaDegradesPerKey(t *testing.T) {
	c := testCluster(t, 3, 42)
	cl, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	keys := batchTestKeys(16)

	// Warm the ring lease so batches group by primary, then cut one node's
	// data endpoint (its session stays alive: no eviction, no ring change —
	// exactly the hinted-handoff scenario).
	if err := cl.WriteLatest(ctx, kv.Join("d", "warm", "k"), []byte("w")); err != nil {
		t.Fatal(err)
	}
	c.PartitionNode(2)
	defer c.HealNode(2)

	items := make([]client.MSetItem, len(keys))
	for i, k := range keys {
		items[i] = client.MSetItem{Key: k, Value: []byte("p-" + string(k))}
	}
	errs := cl.MSet(ctx, items)
	// N=3, W=2: every key still has a live write quorum, so the batch must
	// succeed per key — not fail wholesale because one replica is dark.
	for i, err := range errs {
		if err != nil {
			t.Fatalf("mset key %d with one partitioned replica: %v", i, err)
		}
	}

	// The dark replica's misses must surface as hints on the coordinators.
	deadline := time.Now().Add(10 * time.Second)
	for {
		pending := 0
		for i, s := range c.Servers {
			if i == 2 {
				continue
			}
			pending += s.Healer().Pending()
		}
		if pending > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no hints enqueued for the partitioned replica")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Reads still settle with R=2 while the node is dark.
	for _, r := range cl.MGet(ctx, keys) {
		if r.Err != nil {
			t.Fatalf("mget key %s during partition: %v", r.Key, r.Err)
		}
		if string(r.Value) != "p-"+string(r.Key) {
			t.Fatalf("mget key %s = %q during partition", r.Key, r.Value)
		}
	}

	// Heal and wait for hint replay to converge the dark replica.
	c.HealNode(2)
	deadline = time.Now().Add(15 * time.Second)
	for {
		healed := 0
		for _, k := range keys {
			if row, ok := c.Servers[2].LocalRow(k); ok {
				if v, live := row.Latest(); live && string(v.Value) == "p-"+string(k) {
					healed++
				}
			}
		}
		if healed == len(keys) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("partitioned node healed only %d/%d batch keys", healed, len(keys))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestBatchAndSingleKeyOpsInterleave(t *testing.T) {
	// Batched and single-key operations race on the same keys through real
	// coordinators; under -race this exercises the shared quorum, healer and
	// obs paths for data races. Values are per-writer timestamped by the
	// cluster, so any settled value is correct — the assertions only require
	// every op to succeed and the final batch read to see some live value.
	c := testCluster(t, 3, 43)
	ctx := context.Background()
	keys := batchTestKeys(8)

	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for w := 0; w < 3; w++ {
		cl, err := c.Client()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(w int, cl *client.Client) {
			defer wg.Done()
			for iter := 0; iter < 8; iter++ {
				if w == 0 {
					items := make([]client.MSetItem, len(keys))
					for i, k := range keys {
						items[i] = client.MSetItem{Key: k, Value: []byte(fmt.Sprintf("b%d-%d", w, iter))}
					}
					for _, err := range cl.MSet(ctx, items) {
						if err != nil {
							errCh <- fmt.Errorf("writer %d mset: %w", w, err)
							return
						}
					}
				} else {
					for _, k := range keys[:2] {
						err := cl.WriteLatest(ctx, k, []byte(fmt.Sprintf("s%d-%d", w, iter)))
						if err != nil {
							errCh <- fmt.Errorf("writer %d write: %w", w, err)
							return
						}
						if _, _, err := cl.ReadLatest(ctx, k); err != nil && !errors.Is(err, core.ErrNotFound) {
							errCh <- fmt.Errorf("writer %d read: %w", w, err)
							return
						}
					}
				}
				for _, r := range cl.MGet(ctx, keys) {
					if r.Err != nil && !errors.Is(r.Err, core.ErrNotFound) {
						errCh <- fmt.Errorf("writer %d mget %s: %w", w, r.Key, r.Err)
						return
					}
				}
			}
		}(w, cl)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	cl, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range cl.MGet(ctx, keys) {
		if r.Err != nil {
			t.Fatalf("final mget %s: %v", r.Key, r.Err)
		}
		if len(r.Value) == 0 {
			t.Fatalf("final mget %s returned empty value", r.Key)
		}
	}
}
