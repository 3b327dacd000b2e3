package core_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sedna/internal/client"
	"sedna/internal/core"
	"sedna/internal/kv"
	"sedna/internal/persist"
	"sedna/internal/quorum"
	"sedna/internal/testcluster"
	"sedna/internal/transport"
	"sedna/internal/vfs"
	"sedna/internal/wal"
	"sedna/internal/wire"
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

// sendReplicaFrame delivers one OpReplicaWriteBatch frame of dotless
// write_latest values to node and returns the per-item wire statuses.
func sendReplicaFrame(t *testing.T, ctx context.Context, caller transport.Caller, node string, keys []kv.Key, vals []kv.Versioned) []uint16 {
	t.Helper()
	st, err := callReplicaFrame(ctx, caller, node, keys, vals)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// callReplicaFrame is sendReplicaFrame for goroutines other than the test's:
// it reports failures instead of stopping the test.
func callReplicaFrame(ctx context.Context, caller transport.Caller, node string, keys []kv.Key, vals []kv.Versioned) ([]uint16, error) {
	var e wire.Enc
	e.U32(uint32(len(keys)))
	for i, k := range keys {
		e.Str(string(k))
		core.EncodeVersioned(&e, vals[i])
		e.U8(byte(quorum.Latest))
	}
	resp, err := caller.Call(ctx, node, transport.Message{Op: core.OpReplicaWriteBatch, Body: e.B})
	if err != nil {
		return nil, err
	}
	d := wire.NewDec(resp.Body)
	if st, detail := d.U16(), d.Str(); st != core.StOK {
		return nil, fmt.Errorf("frame refused whole: %w", core.StatusErr(st, detail))
	}
	out := make([]uint16, d.U32())
	for i := range out {
		out[i] = d.U16()
		d.Str()
		if out[i] == core.StNotOwner {
			d.U64()
		}
	}
	return out, d.Err
}

// TestDuplicateFrameRetryMustNotAckWithoutDurability is the frame-level
// twin of TestDuplicateRetryMustNotAckWithoutDurability. A replica frame
// appends each row as it stages it and makes one durability wait for all of
// them, so under a sticky fsync fault no item of the frame may be acked; a
// retry of the identical frame finds every row already applied and must
// still not ack through the duplicate path, since none of them is durable.
// The
// coordinator's local frame path (an MSet on a one-node cluster) is held to
// the same rule.
func TestDuplicateFrameRetryMustNotAckWithoutDurability(t *testing.T) {
	fsys := vfs.NewFault()
	pcfg := persist.Config{Dir: "/data", Strategy: persist.WriteAhead, WALSync: wal.SyncAlways, FS: fsys}
	c := newCluster(t, testcluster.ClusterConfig{Nodes: 1, Seed: 12, Persist: pcfg})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	prober := c.Net.Endpoint("frame-prober")
	node := c.NodeAddrs[0]

	keys := make([]kv.Key, 4)
	for i := range keys {
		keys[i] = kv.Join("dura", "t", fmt.Sprintf("f%d", i))
	}
	frame := func(val string, wall int64) []kv.Versioned {
		vs := make([]kv.Versioned, len(keys))
		for i := range vs {
			vs[i] = kv.Versioned{Value: []byte(val), TS: kv.Timestamp{Wall: wall, Node: 7}, Source: "frame-prober"}
		}
		return vs
	}
	now := time.Now().UnixNano()
	for i, st := range sendReplicaFrame(t, ctx, prober, node, keys, frame("v1", now)) {
		if st != core.StOK {
			t.Fatalf("healthy frame: item %d status %d", i, st)
		}
	}

	fsys.FailFsync(errors.New("injected: medium error"))
	v2 := frame("v2", now+int64(time.Second))
	// The third send retries the frame with one new row added: the log
	// refuses that row, and the duplicates beside it must still settle
	// their own debt rather than ride along as acked.
	fresh := kv.Join("dura", "t", "fresh")
	sends := [][]kv.Key{keys, keys, append(append([]kv.Key(nil), keys...), fresh)}
	for attempt, ks := range sends {
		vals := append(append([]kv.Versioned(nil), v2...), v2[0])
		for i, st := range sendReplicaFrame(t, ctx, prober, node, ks, vals[:len(ks)]) {
			if st == core.StOK {
				t.Fatalf("attempt %d: item %d acked while the WAL refused the frame", attempt, i)
			}
		}
	}
	cl := newClient(t, c)
	items := []client.MSetItem{{Key: kv.Join("dura", "t", "m0"), Value: []byte("x")}, {Key: kv.Join("dura", "t", "m1"), Value: []byte("y")}}
	for i, err := range cl.MSet(ctx, items) {
		if err == nil {
			t.Fatalf("MSet item %d acked while the WAL refused the frame", i)
		}
	}

	img := fsys.CrashFS()
	c.Close()
	pcfg.FS = img
	c2 := newCluster(t, testcluster.ClusterConfig{Nodes: 1, Seed: 12, Persist: pcfg})
	cl2 := newClient(t, c2)
	for _, k := range keys {
		val, _, err := cl2.ReadLatest(ctx, k)
		if err != nil {
			t.Fatal(err)
		}
		if string(val) != "v1" {
			t.Fatalf("%s after crash restart = %q, want the last durably acked %q", k, val, "v1")
		}
	}
}

// gatedFS holds every fsync while hold is set, until gate is closed.
type gatedFS struct {
	*vfs.Fault
	hold atomic.Bool
	gate chan struct{}
}

func (g *gatedFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	f, err := g.Fault.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return gatedFile{File: f, g: g}, nil
}

type gatedFile struct {
	vfs.File
	g *gatedFS
}

func (f gatedFile) Sync() error {
	if f.g.hold.Load() {
		<-f.g.gate
	}
	return f.File.Sync()
}

// TestDuplicateRetryWaitsForInFlightFsync: a retry that arrives while the
// first attempt is still waiting on its fsync finds the row already applied
// and owing nothing, yet it may not ack before that fsync completed.
func TestDuplicateRetryWaitsForInFlightFsync(t *testing.T) {
	fsys := &gatedFS{Fault: vfs.NewFault(), gate: make(chan struct{})}
	pcfg := persist.Config{Dir: "/data", Strategy: persist.WriteAhead, WALSync: wal.SyncAlways, FS: fsys}
	c := newCluster(t, testcluster.ClusterConfig{Nodes: 1, Seed: 15, Persist: pcfg})
	cl := newClient(t, c)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	node := c.NodeAddrs[0]
	key := kv.Join("dura", "t", "inflight")
	val := []kv.Versioned{{Value: []byte("v1"), TS: kv.Timestamp{Wall: time.Now().UnixNano(), Node: 7}, Source: "prober"}}

	type result struct {
		st  []uint16
		err error
	}
	send := func(from string) chan result {
		out := make(chan result, 1)
		go func() {
			st, err := callReplicaFrame(ctx, c.Net.Endpoint(from), node, []kv.Key{key}, val)
			out <- result{st, err}
		}()
		return out
	}
	var once sync.Once
	release := func() {
		once.Do(func() {
			fsys.hold.Store(false)
			close(fsys.gate)
		})
	}
	defer release() // a failure must not leave the node stuck in fsync
	fsys.hold.Store(true)
	first := send("first")
	for deadline := time.Now().Add(5 * time.Second); ; {
		if v, _, err := cl.ReadLatest(ctx, key); err == nil && string(v) == "v1" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first attempt never reached the memstore")
		}
	}
	retry := send("retry")
	select {
	case r := <-retry:
		t.Fatalf("retry answered %v, %v while the first attempt's fsync was held", r.st, r.err)
	case r := <-first:
		t.Fatalf("first attempt answered %v, %v while its fsync was held", r.st, r.err)
	case <-time.After(200 * time.Millisecond):
	}
	release()
	for name, ch := range map[string]chan result{"first": first, "retry": retry} {
		r := <-ch
		if r.err != nil || r.st[0] != core.StOK {
			t.Fatalf("%s after the fsync: %v, %v", name, r.st, r.err)
		}
	}
}
