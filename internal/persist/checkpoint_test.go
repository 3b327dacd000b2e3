package persist

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"sedna/internal/vfs"
	"sedna/internal/wal"
)

// walRecordHeader is the log's per-record framing: u32 length, u64
// sequence, u32 CRC.
const walRecordHeader = 4 + 8 + 4

// waitManifest polls dir's committed manifest until ok accepts it.
func waitManifest(t *testing.T, fsys vfs.FS, dir string, ok func(Manifest) bool) Manifest {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		man, found, err := ReadManifest(fsys, dir)
		if err != nil {
			t.Fatal(err)
		}
		if found && ok(man) {
			return man
		}
		if time.Now().After(deadline) {
			t.Fatalf("no checkpoint within 10s (manifest found=%v, watermark %d)", found, man.Watermark)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// walSuffix reports the records of the log in dir at or above from, and
// the bytes they take on disk.
func walSuffix(t *testing.T, dir string, from uint64) (records, bytes int64) {
	t.Helper()
	err := wal.Replay(dir, from, func(r wal.Record) error {
		records++
		bytes += walRecordHeader + int64(len(r.Payload))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return records, bytes
}

// dirBytes sums the sizes of the regular files in dir.
func dirBytes(t *testing.T, dir string) int64 {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		n += info.Size()
	}
	return n
}

// TestWriteAheadCheckpointBoundsLog: WriteAhead's snapshot loop
// checkpoints the log, so after K keys are each overwritten M times the
// log holds at most one segment plus what was appended since the
// checkpoint, and Recover applies the K-entry image plus that suffix
// instead of all K×M records.
func TestWriteAheadCheckpointBoundsLog(t *testing.T) {
	const (
		keys       = 200
		overwrites = 20
		later      = 50 // writes after the awaited checkpoint
		segBytes   = 4 << 10
		valueBytes = 100
	)
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	cfg := Config{
		Dir:             dir,
		Strategy:        WriteAhead,
		WALSync:         wal.SyncNever,
		WALSegmentBytes: segBytes,
		FlushInterval:   20 * time.Millisecond,
	}
	src := newKVSource()
	m, err := NewManager(cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	key := func(i int) string { return fmt.Sprintf("k%04d", i) }
	write := func(k string, round int) {
		v := []byte(fmt.Sprintf("%-*d", valueBytes, round))
		src.set(k, v)
		if err := m.LogWrite(k, v); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < overwrites; round++ {
		for i := 0; i < keys; i++ {
			write(key(i), round)
		}
	}
	covered := m.AppendedSeq() + 1
	waitManifest(t, vfs.OS, dir, func(man Manifest) bool { return man.Watermark >= covered })
	for i := 0; i < later; i++ {
		write(key(i), overwrites)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	man, ok, err := ReadManifest(vfs.OS, dir)
	if err != nil || !ok {
		t.Fatalf("manifest: ok=%v err=%v", ok, err)
	}
	since, sinceBytes := walSuffix(t, walDir, man.Watermark)
	if since > later {
		t.Fatalf("%d log records past the checkpoint, want ≤ %d written after it", since, later)
	}
	// A segment rotates once it reaches segBytes, so it may overrun by one
	// record.
	frame := int64(walRecordHeader + len(encodeMutation(key(0), make([]byte, valueBytes))))
	walBytes := dirBytes(t, walDir)
	if limit := segBytes + frame + sinceBytes; walBytes > limit {
		t.Fatalf("log holds %d bytes, want ≤ %d (one segment + %d bytes since the checkpoint)", walBytes, limit, sinceBytes)
	}

	m2, err := NewManager(cfg, newKVSource())
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	applied := 0
	got := map[string]string{}
	if err := m2.Recover(func(k string, blob []byte) error {
		applied++
		got[k] = string(blob)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if limit := keys + int(since); applied > limit {
		t.Fatalf("Recover applied %d entries, want ≤ %d (K + records since the checkpoint)", applied, limit)
	}
	if want := src.snapshot(); !statesEqual(got, want) {
		t.Fatalf("recovered %d keys, want %d", len(got), len(want))
	}
	t.Logf("live records %d bytes, log %d bytes, %d entries applied on recovery", keys*frame, walBytes, applied)
}

// TestConcurrentSnapshotKeepsAckedWrites: snapshots run with no lock
// against the appenders — only the apply-before-append order makes a
// watermark read before the range safe. Appenders apply each write to the
// store, append it and wait for it under SyncAlways while another
// goroutine snapshots in a loop; the filesystem crashes at a seeded sweep
// of points. Recovery must keep every acknowledged write, and each key must
// come back as some write at or after its last acknowledged one (or stay
// absent when none was acknowledged).
func TestConcurrentSnapshotKeepsAckedWrites(t *testing.T) {
	const (
		appenders = 6
		keysEach  = 3
		writes    = 40 // per appender
		points    = 24
		seed      = 41
	)
	cfg := Config{Dir: "/data", Strategy: WriteAhead, WALSync: wal.SyncAlways, WALSegmentBytes: 1 << 10}
	keyOf := func(a, i int) string { return fmt.Sprintf("a%d.k%d", a, i%keysEach) }
	valOf := func(a, i int) string { return fmt.Sprintf("a%d.w%03d", a, i) }

	// run drives one workload over fsys and returns, per key, the write
	// index of its last acknowledged write (-1 when none was).
	run := func(fsys *vfs.Fault, crashAfter int64) map[string]int {
		c := cfg
		c.FS = fsys
		src := newKVSource()
		m, err := NewManager(c, src)
		if err != nil {
			t.Fatal(err)
		}
		if crashAfter >= 0 {
			fsys.SetCrashAfterOps(crashAfter)
		}
		acked := make([]map[string]int, appenders)
		stop := make(chan struct{})
		snapDone := make(chan struct{})
		go func() {
			defer close(snapDone)
			for {
				select {
				case <-stop:
					return
				default:
				}
				m.SnapshotNow()
			}
		}()
		var wg sync.WaitGroup
		for a := 0; a < appenders; a++ {
			acked[a] = map[string]int{}
			wg.Add(1)
			go func(a int) {
				defer wg.Done()
				for i := 0; i < writes; i++ {
					k, v := keyOf(a, i), valOf(a, i)
					src.set(k, []byte(v))
					seq, err := m.AppendWrite(k, []byte(v))
					if err == nil {
						err = m.WaitWrites(seq)
					}
					if err == nil {
						acked[a][k] = i
					}
				}
			}(a)
		}
		wg.Wait()
		close(stop)
		<-snapDone
		m.Close()
		out := map[string]int{}
		for a := range acked {
			for i := 0; i < keysEach; i++ {
				out[keyOf(a, i)] = -1
			}
			for k, i := range acked[a] {
				out[k] = i
			}
		}
		return out
	}

	probe := vfs.NewFault()
	run(probe, -1)
	total := probe.MutatingOps()
	t.Logf("seed %d: %d mutating ops in a clean run", seed, total)
	rng := rand.New(rand.NewSource(seed))
	for p := 0; p < points; p++ {
		k := rng.Int63n(total + 1)
		fsys := vfs.NewFault()
		lastAcked := run(fsys, k)
		got := recoverImage(t, fsys.CrashFS(), cfg)
		for key, last := range lastAcked {
			v, ok := got[key]
			if !ok {
				if last >= 0 {
					t.Fatalf("seed %d crash point %d: acked key %s (write %d) lost", seed, k, key, last)
				}
				continue
			}
			var a, i int
			if _, err := fmt.Sscanf(v, "a%d.w%d", &a, &i); err != nil || keyOf(a, i) != key {
				t.Fatalf("seed %d crash point %d: key %s recovered foreign value %q", seed, k, key, v)
			}
			if i < last {
				t.Fatalf("seed %d crash point %d: key %s recovered write %d, older than acked write %d", seed, k, key, i, last)
			}
		}
		if len(got) > len(lastAcked) {
			t.Fatalf("seed %d crash point %d: recovered %d keys, only %d written", seed, k, len(got), len(lastAcked))
		}
	}
}
