package core_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"sedna/internal/kv"
	"sedna/internal/persist"
	"sedna/internal/testcluster"
	"sedna/internal/vfs"
	"sedna/internal/wal"
)

// TestPersistWALCheckpointAcrossRestart: under -persist wal each node's
// snapshot loop checkpoints its log. After K keys are each overwritten M
// times through the client and every node has checkpointed, each node's
// log holds at most one segment plus what was appended since its
// checkpoint, recovery applies at most the node's live keys plus that
// suffix, and a rebooted cluster still serves every acked value.
func TestPersistWALCheckpointAcrossRestart(t *testing.T) {
	const (
		keys       = 40
		overwrites = 10
		segBytes   = 4 << 10
		header     = 4 + 8 + 4 // per-record framing: length, sequence, CRC
	)
	dir := t.TempDir()
	cfg := testcluster.ClusterConfig{
		Nodes: 3,
		Seed:  11,
		Persist: persist.Config{
			Dir:             dir,
			Strategy:        persist.WriteAhead,
			WALSync:         wal.SyncAlways,
			WALSegmentBytes: segBytes,
			FlushInterval:   50 * time.Millisecond,
		},
	}
	c := newCluster(t, cfg)
	cl := newClient(t, c)
	ctx := context.Background()
	key := func(i int) kv.Key { return kv.Join("d", "ckpt", fmt.Sprintf("k%02d", i)) }
	val := func(round int) string { return fmt.Sprintf("v%02d", round) }
	for round := 0; round < overwrites; round++ {
		for i := 0; i < keys; i++ {
			if err := cl.WriteLatest(ctx, key(i), []byte(val(round))); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Wait for a checkpoint that began after the last write on every node:
	// the snapshot counter moves twice, since the first may have been in
	// flight when the writes ended.
	live := make([]int, len(c.Servers))
	for n, s := range c.Servers {
		snaps := s.Obs().Counter("persist.snapshots")
		from := snaps.Load()
		deadline := time.Now().Add(15 * time.Second)
		for snaps.Load() < from+2 {
			if time.Now().After(deadline) {
				t.Fatalf("node %d: no checkpoint within 15s (persist.snapshots %d)", n, snaps.Load())
			}
			time.Sleep(5 * time.Millisecond)
		}
		live[n] = int(s.ObsSnapshot().Gauges["memstore.items"])
	}
	c.Close()

	for n := range c.Servers {
		nodeDir := filepath.Join(dir, fmt.Sprintf("node-%d", n))
		walDir := filepath.Join(nodeDir, "wal")
		man, ok, err := persist.ReadManifest(vfs.OS, nodeDir)
		if err != nil || !ok {
			t.Fatalf("node %d manifest: ok=%v err=%v", n, ok, err)
		}
		var since, sinceBytes, maxFrame int64
		if err := wal.Replay(walDir, 0, func(r wal.Record) error {
			frame := header + int64(len(r.Payload))
			maxFrame = max(maxFrame, frame)
			if r.Seq >= man.Watermark {
				since++
				sinceBytes += frame
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if since >= keys {
			t.Fatalf("node %d: %d log records past its checkpoint after the writes ended", n, since)
		}
		entries, err := os.ReadDir(walDir)
		if err != nil {
			t.Fatal(err)
		}
		var walBytes int64
		for _, e := range entries {
			info, err := e.Info()
			if err != nil {
				t.Fatal(err)
			}
			walBytes += info.Size()
		}
		// A segment rotates once it reaches segBytes, so it may overrun by
		// one record.
		if limit := segBytes + maxFrame + sinceBytes; walBytes > limit {
			t.Fatalf("node %d: log holds %d bytes, want ≤ %d (one segment + %d bytes since the checkpoint)", n, walBytes, limit, sinceBytes)
		}

		pcfg := cfg.Persist
		pcfg.Dir = nodeDir
		m, err := persist.NewManager(pcfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		applied := 0
		err = m.Recover(func(string, []byte) error { applied++; return nil })
		m.Close()
		if err != nil {
			t.Fatal(err)
		}
		if limit := live[n] + int(since); applied > limit {
			t.Fatalf("node %d: recovery applied %d entries, want ≤ %d (%d live keys + %d records since the checkpoint)", n, applied, limit, live[n], since)
		}
		t.Logf("node %d: %d live keys, log %d bytes, recovery applied %d entries", n, live[n], walBytes, applied)
	}

	c2, err := testcluster.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := c2.WaitConverged(3, 15*time.Second); err != nil {
		t.Fatal(err)
	}
	cl2, err := c2.Client()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < keys; i++ {
		got, _, err := cl2.ReadLatest(ctx, key(i))
		if err != nil || string(got) != val(overwrites-1) {
			t.Fatalf("key %d after restart = %q, %v; want %q", i, got, err, val(overwrites-1))
		}
	}
}
