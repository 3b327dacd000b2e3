package core_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"sedna/internal/kv"
	"sedna/internal/persist"
	"sedna/internal/testcluster"
	"sedna/internal/vfs"
	"sedna/internal/wal"
)

// TestDuplicateRetryMustNotAckWithoutDurability is the regression for the
// retry-dedup durability quirk: a replica write applies to the memstore,
// the WAL refuses the blob, and the coordinator's retry redelivers the same
// versioned value. The duplicate is recognised as already applied — but
// "the memstore holds it" is not "the log holds it", so the duplicate may
// only ack once the durability debt is settled. Before the fix the retry
// acked unconditionally, turning every write during an fsync brown-out into
// an acked-then-lost row.
func TestDuplicateRetryMustNotAckWithoutDurability(t *testing.T) {
	fsys := vfs.NewFault()
	c := newCluster(t, testcluster.ClusterConfig{
		Nodes: 1,
		Seed:  11,
		Persist: persist.Config{
			Dir:      "/data",
			Strategy: persist.WriteAhead,
			WALSync:  wal.SyncAlways,
			FS:       fsys,
		},
	})
	cl := newClient(t, c)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	key := kv.Join("dura", "t", "k")
	if err := cl.WriteLatest(ctx, key, []byte("v1")); err != nil {
		t.Fatal(err)
	}

	// Sticky fsync fault: the first attempt applies to the memstore and
	// fails the WAL append; the engine's local retry then redelivers the
	// identical write, hitting the duplicate path while the key still owes
	// its log entry. That path must refuse to ack.
	fsys.FailFsync(errors.New("injected: medium error"))
	if err := cl.WriteLatest(ctx, key, []byte("v2")); err == nil {
		t.Fatal("write acked while the WAL refused the blob: the duplicate retry counted as applied without durability")
	}

	// Crash-restart onto the durable image: everything not fsynced — v2's
	// refused WAL record, any dying flush — is gone. Only acked writes may
	// be expected to survive, and v2 was never acked.
	img := fsys.CrashFS()
	c.Close()
	c2 := newCluster(t, testcluster.ClusterConfig{
		Nodes: 1,
		Seed:  11,
		Persist: persist.Config{
			Dir:      "/data",
			Strategy: persist.WriteAhead,
			WALSync:  wal.SyncAlways,
			FS:       img,
		},
	})
	cl2 := newClient(t, c2)
	val, _, err := cl2.ReadLatest(ctx, key)
	if err != nil {
		t.Fatal(err)
	}
	if string(val) != "v1" {
		t.Fatalf("after crash restart read %q, want the last durably acked value %q", val, "v1")
	}
}
