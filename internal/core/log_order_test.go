package core_test

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"sedna/internal/core"
	"sedna/internal/kv"
	"sedna/internal/persist"
	"sedna/internal/testcluster"
	"sedna/internal/vfs"
	"sedna/internal/wal"
)

// Recovery keeps the last logged row of each key, so a replica must log a
// key's rows in the order the memstore took them: a row logged after a
// newer one that was already acked would replace it on restart. These
// tests race two writers on the same keys, crash onto the durable image
// and check that every acked value came back.

// TestConcurrentFramesKeepAckedWrites: frame A writes a hot key first and
// then many filler keys; as soon as A's value of the hot key can be read,
// frame C overwrites it with a newer value. Whenever C is acked, the
// restarted replica must hold C's value, even though A was still working on
// its frame when C finished.
func TestConcurrentFramesKeepAckedWrites(t *testing.T) {
	fsys := vfs.NewFault()
	pcfg := persist.Config{Dir: "/data", Strategy: persist.WriteAhead, WALSync: wal.SyncAlways, FS: fsys}
	c := newCluster(t, testcluster.ClusterConfig{Nodes: 1, Seed: 13, Persist: pcfg})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	node := c.NodeAddrs[0]
	proberA := c.Net.Endpoint("frame-a")
	proberC := c.Net.Endpoint("frame-c")
	cl := newClient(t, c)

	const rounds, fillers = 16, 2000
	base := time.Now().UnixNano()
	var acked []kv.Key
	for r := 0; r < rounds; r++ {
		hot := kv.Join("order", "t", fmt.Sprintf("hot%d", r))
		keysA := []kv.Key{hot}
		for i := 0; i < fillers; i++ {
			keysA = append(keysA, kv.Join("order", "t", fmt.Sprintf("fill%d.%d", r, i)))
		}
		valsA := make([]kv.Versioned, len(keysA))
		for i := range valsA {
			valsA[i] = kv.Versioned{Value: []byte("a"), TS: kv.Timestamp{Wall: base + int64(r)*10 + 1, Node: 7}, Source: "frame-a",
				Dot: kv.Dot{Node: 7, Counter: 1}}
		}
		// C read A's value and overwrites it.
		valC := kv.Versioned{Value: []byte("c"), TS: kv.Timestamp{Wall: base + int64(r)*10 + 2, Node: 7}, Source: "frame-c",
			Dot: kv.Dot{Node: 8, Counter: 1}, Ctx: kv.DVV{{Node: 7, Base: 1}}}
		errA := make(chan error, 1)
		go func() {
			_, err := callReplicaFrame(ctx, proberA, node, keysA, valsA)
			errA <- err
		}()
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
			if val, _, err := cl.ReadLatest(ctx, hot); err == nil && string(val) == "a" {
				break
			}
		}
		if st := sendReplicaFrame(t, ctx, proberC, node, []kv.Key{hot}, []kv.Versioned{valC}); st[0] == core.StOK {
			acked = append(acked, hot)
		}
		if err := <-errA; err != nil {
			t.Fatal(err)
		}
	}
	if len(acked) == 0 {
		t.Fatal("no frame C was acked")
	}

	img := fsys.CrashFS()
	c.Close()
	pcfg.FS = img
	c2 := newCluster(t, testcluster.ClusterConfig{Nodes: 1, Seed: 13, Persist: pcfg})
	cl2 := newClient(t, c2)
	for _, k := range acked {
		val, _, err := cl2.ReadLatest(ctx, k)
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		if string(val) != "c" {
			t.Fatalf("%s after crash restart = %q, want the acked %q", k, val, "c")
		}
	}
}

// TestTombstoneGCRacingRevivalKeepsAckedWrites: a tombstone GC pass over
// many keys runs while another writer revives keys it is collecting. Every
// acked revival must survive a crash restart; the GC's deletion of a key
// must never be logged after a revival of that key.
func TestTombstoneGCRacingRevivalKeepsAckedWrites(t *testing.T) {
	fsys := vfs.NewFault()
	pcfg := persist.Config{Dir: "/data", Strategy: persist.WriteAhead, WALSync: wal.SyncAlways, FS: fsys}
	c := newCluster(t, testcluster.ClusterConfig{Nodes: 1, Seed: 14, Persist: pcfg})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	node := c.NodeAddrs[0]
	prober := c.Net.Endpoint("gc-prober")

	const n = 5000
	keys := make([]kv.Key, n)
	tombs := make([]kv.Versioned, n)
	old := time.Now().Add(-time.Hour).UnixNano()
	for i := range keys {
		keys[i] = kv.Join("gc", "t", fmt.Sprintf("k%d", i))
		tombs[i] = kv.Versioned{Deleted: true, TS: kv.Timestamp{Wall: old, Node: 7}, Source: "gc-prober",
			Dot: kv.Dot{Node: 7, Counter: 1}}
	}
	for i, st := range sendReplicaFrame(t, ctx, prober, node, keys, tombs) {
		if st != core.StOK {
			t.Fatalf("tombstone %d: status %d", i, st)
		}
	}

	var done atomic.Bool
	var acked []kv.Key
	revived := make(chan error, 1)
	go func() {
		// The revival overwrites the tombstone it read.
		live := kv.Versioned{Value: []byte("r"), TS: kv.Timestamp{Wall: time.Now().UnixNano(), Node: 7}, Source: "gc-prober",
			Dot: kv.Dot{Node: 7, Counter: 2}, Ctx: kv.DVV{{Node: 7, Base: 1}}}
		for i := 0; !done.Load() && i < n; i += 7 {
			st, err := callReplicaFrame(ctx, prober, node, keys[i:i+1], []kv.Versioned{live})
			if err != nil {
				revived <- err
				return
			}
			if st[0] == core.StOK {
				acked = append(acked, keys[i])
			}
		}
		revived <- nil
	}()
	collected := c.Servers[0].CollectTombstones(0)
	done.Store(true)
	if err := <-revived; err != nil {
		t.Fatal(err)
	}
	if collected == 0 || len(acked) == 0 {
		t.Fatalf("collected %d rows and acked %d revivals: the race did not run", collected, len(acked))
	}

	img := fsys.CrashFS()
	c.Close()
	pcfg.FS = img
	c2 := newCluster(t, testcluster.ClusterConfig{Nodes: 1, Seed: 14, Persist: pcfg})
	cl2 := newClient(t, c2)
	for _, k := range acked {
		val, _, err := cl2.ReadLatest(ctx, k)
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		if string(val) != "r" {
			t.Fatalf("%s after crash restart = %q, want the acked revival %q", k, val, "r")
		}
	}
}
