package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"sedna/internal/obs"
	"sedna/internal/vfs"
)

// TestGroupCommitCoalesces proves the tentpole property: many concurrent
// SyncAlways appenders share far fewer fsyncs than appends, yet every
// append returns only after a covering fsync.
func TestGroupCommitCoalesces(t *testing.T) {
	fsys := vfs.NewFault()
	reg := obs.NewRegistry()
	// The in-memory fsync completes instantly, so natural batching (appends
	// piling up behind a slow disk fsync) has no window to form; a short
	// GroupWindow stands in for the disk latency.
	l, err := Open(Options{Dir: "/wal", Sync: SyncAlways, GroupWindow: time.Millisecond, FS: fsys, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	const workers = 16
	const per = 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				seq, err := l.Append([]byte{byte(w), byte(i)})
				if err != nil {
					t.Error(err)
					return
				}
				if d := l.DurableSeq(); d < seq {
					t.Errorf("append %d returned before durable (durable=%d)", seq, d)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	total := uint64(workers * per)
	syncs := uint64(fsys.Syncs())
	if syncs == 0 || syncs >= total {
		t.Fatalf("fsyncs = %d for %d appends; group commit did not coalesce", syncs, total)
	}
	t.Logf("%d appends coalesced into %d fsyncs", total, syncs)
	if got := reg.Counter("wal.appends").Load(); got != total {
		t.Fatalf("wal.appends = %d, want %d", got, total)
	}
	if got := reg.Counter("wal.fsync_batches").Load(); got == 0 || got > syncs {
		t.Fatalf("wal.fsync_batches = %d (fsyncs %d)", got, syncs)
	}
}

// TestGroupCommitDurableAcrossCrash asserts the acked-write invariant at
// the filesystem level: whatever Append acknowledged under SyncAlways is
// present in the crash image.
func TestGroupCommitDurableAcrossCrash(t *testing.T) {
	fsys := vfs.NewFault()
	l, err := Open(Options{Dir: "/wal", Sync: SyncAlways, FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	var acked []uint64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				seq, err := l.Append([]byte(fmt.Sprintf("w%d-%d", w, i)))
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				acked = append(acked, seq)
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	// Crash WITHOUT Close: only fsynced state survives.
	img := fsys.CrashFS()
	seen := map[uint64]bool{}
	if _, err := ReplayWith(ReplayOptions{FS: img, Dir: "/wal"}, func(r Record) error {
		seen[r.Seq] = true
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, seq := range acked {
		if !seen[seq] {
			t.Fatalf("acked seq %d missing from crash image", seq)
		}
	}
	l.Close()
}

func TestStickyFsyncErrorDegradesLog(t *testing.T) {
	fsys := vfs.NewFault()
	reg := obs.NewRegistry()
	l, err := Open(Options{Dir: "/wal", Sync: SyncAlways, FS: fsys, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk on fire")
	fsys.FailFsync(boom)
	if _, err := l.Append([]byte("doomed")); !errors.Is(err, boom) {
		t.Fatalf("append during fsync failure = %v, want %v", err, boom)
	}
	if err := l.Failed(); !errors.Is(err, boom) {
		t.Fatalf("Failed() = %v", err)
	}
	// Sticky: even a record that would need no new fsync is refused.
	if _, err := l.Append([]byte("still doomed")); !errors.Is(err, boom) {
		t.Fatalf("append after sticky failure = %v", err)
	}
	if got := reg.Counter("wal.fsync_errors").Load(); got == 0 {
		t.Fatal("wal.fsync_errors not incremented")
	}
}

func TestTornWriteTruncatedAndRetryable(t *testing.T) {
	fsys := vfs.NewFault()
	l, err := Open(Options{Dir: "/wal", Sync: SyncAlways, FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append([]byte("first")); err != nil {
		t.Fatal(err)
	}
	// The next write tears after 3 bytes and reports ENOSPC.
	fsys.FailWritesAfter(3, nil)
	if _, err := l.Append([]byte("torn")); !errors.Is(err, vfs.ErrNoSpace) {
		t.Fatalf("torn append = %v", err)
	}
	// Space freed: the log must still be appendable and replayable — the
	// torn bytes were truncated away, not left to poison replay.
	fsys.FailWritesAfter(-1, nil)
	seq, err := l.Append([]byte("second"))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 2 {
		t.Fatalf("seq after torn write = %d, want 2 (no burned seq)", seq)
	}
	var got []string
	if _, err := ReplayWith(ReplayOptions{FS: fsys, Dir: "/wal"}, func(r Record) error {
		got = append(got, string(r.Payload))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "first" || got[1] != "second" {
		t.Fatalf("replay after torn write = %v", got)
	}
}

func TestSegmentCreateSurvivesCrashViaDirFsync(t *testing.T) {
	fsys := vfs.NewFault()
	l, err := Open(Options{Dir: "/wal", Sync: SyncAlways, SegmentBytes: 64, FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := l.Append([]byte("0123456789abcdef0123456789abcdef")); err != nil {
			t.Fatal(err)
		}
	}
	if fsys.DirSyncs() < 2 {
		t.Fatalf("dir fsyncs = %d, want one per segment create", fsys.DirSyncs())
	}
	// Crash without Close: every acked record must replay from the image,
	// which requires the rotated segments' directory entries to be durable.
	img := fsys.CrashFS()
	count := 0
	if _, err := ReplayWith(ReplayOptions{FS: img, Dir: "/wal"}, func(Record) error {
		count++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if count != 10 {
		t.Fatalf("crash image replayed %d of 10 acked records", count)
	}
	l.Close()
}

func TestQuarantineSalvagesLaterSegments(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, Options{SegmentBytes: 64})
	for i := 0; i < 12; i++ {
		l.Append([]byte("0123456789abcdef0123456789abcdef"))
	}
	l.Close()
	segs, _ := listSegments(vfs.OS, dir)
	if len(segs) < 3 {
		t.Fatalf("segments = %d, need >= 3", len(segs))
	}
	// Corrupt a payload byte mid-log (second segment, not the tail).
	path := filepath.Join(dir, segName(segs[1]))
	data, _ := os.ReadFile(path)
	data[recordHeader] ^= 0xff
	os.WriteFile(path, data, 0o644)

	// Strict replay still refuses.
	if err := Replay(dir, 0, func(Record) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("strict replay = %v, want ErrCorrupt", err)
	}

	var seqs []uint64
	stats, err := ReplayWith(ReplayOptions{Dir: dir, Quarantine: true}, func(r Record) error {
		seqs = append(seqs, r.Seq)
		return nil
	})
	if err != nil {
		t.Fatalf("quarantine replay = %v", err)
	}
	if stats.SegmentsQuarantined != 1 {
		t.Fatalf("segments quarantined = %d", stats.SegmentsQuarantined)
	}
	// The corrupt record and everything after it in its segment are lost —
	// never more than the whole segment, and the next segment's base pins
	// the exact count.
	segSpan := segs[2] - segs[1]
	if stats.RecordsQuarantined == 0 || stats.RecordsQuarantined > segSpan {
		t.Fatalf("records quarantined = %d, want in (0,%d]", stats.RecordsQuarantined, segSpan)
	}
	if uint64(len(seqs))+stats.RecordsQuarantined != 12 {
		t.Fatalf("salvaged %d + lost %d != 12", len(seqs), stats.RecordsQuarantined)
	}
	// Records after the quarantined segment made it.
	if seqs[len(seqs)-1] != 12 {
		t.Fatalf("last salvaged seq = %d, want 12", seqs[len(seqs)-1])
	}
	// The quarantined file is kept under its new name and no longer lists.
	segsAfter, _ := listSegments(vfs.OS, dir)
	if len(segsAfter) != len(segs)-1 {
		t.Fatalf("segments after quarantine = %d, want %d", len(segsAfter), len(segs)-1)
	}
	if _, err := os.Stat(path + quarantineSuffix); err != nil {
		t.Fatalf("quarantined bytes not preserved: %v", err)
	}
	// A second replay is clean — the damage is gone from the log.
	count := 0
	stats2, err := ReplayWith(ReplayOptions{Dir: dir, Quarantine: true}, func(Record) error {
		count++
		return nil
	})
	if err != nil || stats2.SegmentsQuarantined != 0 || count != len(seqs) {
		t.Fatalf("second replay: count=%d stats=%+v err=%v", count, stats2, err)
	}
}

func TestSelfHealingTailTruncatesOnOpen(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, Options{})
	l.Append([]byte("keep-1"))
	l.Append([]byte("keep-2"))
	l.Close()
	segs, _ := listSegments(vfs.OS, dir)
	path := filepath.Join(dir, segName(segs[0]))
	full, _ := os.ReadFile(path)
	os.WriteFile(path, full[:len(full)-3], 0o644) // torn tail

	l2 := openTest(t, dir, Options{})
	seq, err := l2.Append([]byte("keep-2-again"))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 2 {
		t.Fatalf("healed log reissued seq %d, want 2", seq)
	}
	l2.Close()
	// The file contains no torn bytes: replay sees intact records only.
	recs := collect(t, dir, 0)
	if len(recs) != 2 || string(recs[1].Payload) != "keep-2-again" {
		t.Fatalf("records after heal = %+v", recs)
	}
	st, _ := os.Stat(path)
	want := int64(len(full)) - int64(recordHeader) - int64(len("keep-2")) + int64(recordHeader) + int64(len("keep-2-again"))
	if st.Size() != want {
		t.Fatalf("segment size = %d, want %d (torn bytes erased)", st.Size(), want)
	}
}

func TestGroupWindowBatches(t *testing.T) {
	fsys := vfs.NewFault()
	l, err := Open(Options{Dir: "/wal", Sync: SyncAlways, GroupWindow: 2e6 /* 2ms */, FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, err := l.Append([]byte("payload")); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if syncs := fsys.Syncs(); syncs >= workers*10 {
		t.Fatalf("fsyncs = %d with group window, want coalescing", syncs)
	}
}

func TestTruncateDurableAcrossCrash(t *testing.T) {
	fsys := vfs.NewFault()
	l, err := Open(Options{Dir: "/wal", Sync: SyncAlways, SegmentBytes: 64, FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		l.Append([]byte("0123456789abcdef0123456789abcdef"))
	}
	l.Close()
	segsBefore, _ := listSegments(fsys, "/wal")
	if err := TruncateFS(fsys, "/wal", 9); err != nil {
		t.Fatal(err)
	}
	img := fsys.CrashFS()
	segsAfter, _ := listSegments(img, "/wal")
	if len(segsAfter) >= len(segsBefore) {
		t.Fatalf("truncate not durable in crash image (%d -> %d)", len(segsBefore), len(segsAfter))
	}
}
