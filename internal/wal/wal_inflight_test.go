package wal

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"sedna/internal/vfs"
)

// These tests hold an fsync in flight with vfs.Fault.HoldSyncs and check
// what the log does meanwhile: appends land at once and join the next
// fsync, rotation and Close wait for the fsync, and a failure of the held
// fsync fails every waiter. Each step that must not block is bounded, so a
// log that fsyncs under its mutex fails them instead of hanging.

const boundedWait = 5 * time.Second

func openFault(t *testing.T, fsys *vfs.Fault, opts Options) *Log {
	t.Helper()
	opts.Dir, opts.FS, opts.Sync = "/wal", fsys, SyncAlways
	l, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

type appendResult struct {
	seq uint64
	err error
}

func goAppend(l *Log, payload string) chan appendResult {
	out := make(chan appendResult, 1)
	go func() {
		seq, err := l.Append([]byte(payload))
		out <- appendResult{seq, err}
	}()
	return out
}

func goAppendNoWait(l *Log, payload string) chan appendResult {
	out := make(chan appendResult, 1)
	go func() {
		seq, err := l.AppendNoWait([]byte(payload))
		out <- appendResult{seq, err}
	}()
	return out
}

// within returns fn's result, failing the test if fn has not returned
// after boundedWait.
func within[T any](t *testing.T, what string, fn func() T) T {
	t.Helper()
	ch := make(chan T, 1)
	go func() { ch <- fn() }()
	select {
	case v := <-ch:
		return v
	case <-time.After(boundedWait):
		t.Fatalf("%s did not return within %v", what, boundedWait)
		panic("unreachable")
	}
}

func await[T any](t *testing.T, what string, ch chan T) T {
	t.Helper()
	return within(t, what, func() T { return <-ch })
}

// stillBlocked fails the test if ch delivers within a short grace period.
func stillBlocked[T any](t *testing.T, what string, ch chan T) {
	t.Helper()
	select {
	case v := <-ch:
		t.Fatalf("%s returned %+v while the fsync was held", what, v)
	case <-time.After(50 * time.Millisecond):
	}
}

func waitHeldSyncs(t *testing.T, fsys *vfs.Fault, n int) {
	t.Helper()
	for deadline := time.Now().Add(boundedWait); fsys.HeldSyncs() != n; {
		if time.Now().After(deadline) {
			t.Fatalf("held fsyncs = %d, want %d", fsys.HeldSyncs(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

func replayFault(t *testing.T, fsys vfs.FS) []Record {
	t.Helper()
	var out []Record
	if _, err := ReplayWith(ReplayOptions{FS: fsys, Dir: "/wal"}, func(r Record) error {
		out = append(out, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestAppendNoWaitDuringInFlightFsync: an append made while another
// record's group-commit fsync is in flight returns without waiting for it.
func TestAppendNoWaitDuringInFlightFsync(t *testing.T) {
	fsys := vfs.NewFault()
	l := openFault(t, fsys, Options{})
	release := fsys.HoldSyncs()
	defer release()

	first := goAppend(l, "a")
	waitHeldSyncs(t, fsys, 1)
	r := within(t, "AppendNoWait during a held fsync", func() appendResult {
		seq, err := l.AppendNoWait([]byte("b"))
		return appendResult{seq, err}
	})
	if r.err != nil || r.seq != 2 {
		t.Fatalf("AppendNoWait during the fsync = %d, %v; want 2, nil", r.seq, r.err)
	}
	stillBlocked(t, "the Append whose fsync is held", first)
	release()
	if r := await(t, "first Append", first); r.err != nil || r.seq != 1 {
		t.Fatalf("first Append = %d, %v", r.seq, r.err)
	}
}

// TestAppendDuringInFlightFsyncJoinsNextFsync: a record appended during an
// fsync is not covered by it. DurableSeq stays below the record and its
// WaitDurable returns only after a later fsync.
func TestAppendDuringInFlightFsyncJoinsNextFsync(t *testing.T) {
	fsys := vfs.NewFault()
	l := openFault(t, fsys, Options{})
	release1 := fsys.HoldSyncs()
	defer release1()

	first := goAppend(l, "a")
	waitHeldSyncs(t, fsys, 1)
	seq := within(t, "AppendNoWait during a held fsync", func() uint64 {
		seq, err := l.AppendNoWait([]byte("b"))
		if err != nil {
			t.Error(err)
		}
		return seq
	})
	second := make(chan error, 1)
	go func() { second <- l.WaitDurable(seq) }()

	release2 := fsys.HoldSyncs() // holds the next fsync, not the one in flight
	defer release2()
	release1()
	if r := await(t, "first Append", first); r.err != nil || r.seq != 1 {
		t.Fatalf("first Append = %d, %v", r.seq, r.err)
	}
	if d := l.DurableSeq(); d != 1 {
		t.Fatalf("DurableSeq after the first fsync = %d, want 1", d)
	}
	waitHeldSyncs(t, fsys, 1) // the second record's own fsync
	stillBlocked(t, "WaitDurable of the record appended during the fsync", second)
	if d := l.DurableSeq(); d >= seq {
		t.Fatalf("DurableSeq = %d covers seq %d before its fsync returned", d, seq)
	}
	if recs := replayFault(t, fsys.CrashFS()); len(recs) != 1 {
		t.Fatalf("crash image holds %d records, want only the first fsync's 1", len(recs))
	}
	release2()
	if err := await(t, "WaitDurable after the next fsync", second); err != nil {
		t.Fatal(err)
	}
	if d := l.DurableSeq(); d < seq {
		t.Fatalf("DurableSeq = %d after the covering fsync, want >= %d", d, seq)
	}
	if got := fsys.Syncs(); got != 2 {
		t.Fatalf("fsyncs = %d, want 2 (one per window)", got)
	}
}

// TestRotationAndCloseWaitForInFlightFsync: appenders that find the segment
// full during an fsync wait for it and rotate once between them; Close
// during an fsync waits for it too. Neither closes the segment under the
// fsync (vfs.Fault would fail the held fsync, and the log would go
// sticky), and every record replays.
func TestRotationAndCloseWaitForInFlightFsync(t *testing.T) {
	fsys := vfs.NewFault()
	l := openFault(t, fsys, Options{SegmentBytes: 64})
	rec := strings.Repeat("r", 32) // 48 bytes with its header
	release := fsys.HoldSyncs()
	defer release()

	first := goAppend(l, rec+"1")
	waitHeldSyncs(t, fsys, 1)
	r := within(t, "AppendNoWait during a held fsync", func() appendResult {
		seq, err := l.AppendNoWait([]byte(rec + "2"))
		return appendResult{seq, err}
	})
	if r.err != nil || r.seq != 2 {
		t.Fatalf("second append = %d, %v", r.seq, r.err)
	}
	// The segment is full now: both of these must rotate, and may not
	// close the segment under the held fsync.
	third, fourth := goAppendNoWait(l, rec+"3"), goAppendNoWait(l, rec+"4")
	stillBlocked(t, "a rotating append", third)
	stillBlocked(t, "a rotating append", fourth)
	release()
	for _, ch := range []chan appendResult{first, third, fourth} {
		if r := await(t, "append", ch); r.err != nil {
			t.Fatal(r.err)
		}
	}
	if segs, _ := listSegments(fsys, "/wal"); len(segs) != 2 {
		t.Fatalf("segments = %v, want 2 (one rotation)", segs)
	}
	if err := l.Failed(); err != nil {
		t.Fatalf("log went sticky: %v", err)
	}

	release = fsys.HoldSyncs()
	defer release()
	synced := make(chan error, 1)
	go func() { synced <- l.Sync() }()
	waitHeldSyncs(t, fsys, 1)
	closed := make(chan error, 1)
	go func() { closed <- l.Close() }()
	stillBlocked(t, "Close", closed)
	release()
	if err := await(t, "Sync", synced); err != nil {
		t.Fatalf("held Sync = %v", err)
	}
	if err := await(t, "Close", closed); err != nil {
		t.Fatalf("Close = %v", err)
	}
	if err := l.Failed(); err != nil {
		t.Fatalf("log went sticky: %v", err)
	}
	recs := replayFault(t, fsys.CrashFS())
	if len(recs) != 4 {
		t.Fatalf("crash image replayed %d records, want 4", len(recs))
	}
	for i, rc := range recs {
		if rc.Seq != uint64(i+1) || !strings.HasPrefix(string(rc.Payload), rec) {
			t.Fatalf("record %d = seq %d %q", i, rc.Seq, rc.Payload)
		}
	}
}

// TestFailedInFlightFsyncFailsItsBatchAndLaterAppends: when the held fsync
// fails, the waiters of its batch and of the records appended during it
// fail, and the log acknowledges nothing afterwards.
func TestFailedInFlightFsyncFailsItsBatchAndLaterAppends(t *testing.T) {
	fsys := vfs.NewFault()
	l := openFault(t, fsys, Options{})
	release := fsys.HoldSyncs()
	defer release()

	first := goAppend(l, "a")
	waitHeldSyncs(t, fsys, 1)
	second := goAppend(l, "b")
	within(t, "the append during the fsync", func() bool {
		for l.NextSeq() != 3 {
			time.Sleep(time.Millisecond)
		}
		return true
	})
	boom := errors.New("disk on fire")
	fsys.FailFsync(boom)
	release()
	for name, ch := range map[string]chan appendResult{"batch": first, "during": second} {
		if r := await(t, name+" Append", ch); !errors.Is(r.err, boom) {
			t.Fatalf("%s Append = %d, %v; want %v", name, r.seq, r.err, boom)
		}
	}
	if err := l.Failed(); !errors.Is(err, boom) {
		t.Fatalf("Failed() = %v", err)
	}
	if d := l.DurableSeq(); d != 0 {
		t.Fatalf("DurableSeq = %d after the only fsync failed", d)
	}
	if _, err := l.Append([]byte("c")); !errors.Is(err, boom) {
		t.Fatalf("Append after the failure = %v", err)
	}
	if err := l.WaitDurable(1); !errors.Is(err, boom) {
		t.Fatalf("WaitDurable after the failure = %v", err)
	}
	if err := l.Sync(); !errors.Is(err, boom) {
		t.Fatalf("Sync after the failure = %v", err)
	}
}

// TestTornWriteDuringInFlightFsync: an append that tears while an fsync is
// in flight erases only its own bytes, the held fsync still covers the
// record it began with, and the log stays appendable.
func TestTornWriteDuringInFlightFsync(t *testing.T) {
	fsys := vfs.NewFault()
	l := openFault(t, fsys, Options{})
	release := fsys.HoldSyncs()
	defer release()

	first := goAppend(l, "first")
	waitHeldSyncs(t, fsys, 1)
	fsys.FailWritesAfter(3, nil)
	r := within(t, "a torn append during a held fsync", func() appendResult {
		seq, err := l.AppendNoWait([]byte("torn"))
		return appendResult{seq, err}
	})
	if !errors.Is(r.err, vfs.ErrNoSpace) {
		t.Fatalf("torn append = %d, %v; want %v", r.seq, r.err, vfs.ErrNoSpace)
	}
	fsys.FailWritesAfter(-1, nil)
	release()
	if r := await(t, "first Append", first); r.err != nil || r.seq != 1 {
		t.Fatalf("first Append = %d, %v", r.seq, r.err)
	}
	if seq, err := l.Append([]byte("second")); err != nil || seq != 2 {
		t.Fatalf("append after the torn one = %d, %v; want 2, nil", seq, err)
	}
	recs := replayFault(t, fsys.CrashFS())
	if len(recs) != 2 || string(recs[0].Payload) != "first" || string(recs[1].Payload) != "second" {
		t.Fatalf("crash image = %+v", recs)
	}
}

// TestCrashPropertyConcurrentAppenders: concurrent SyncAlways appenders,
// crashed at a sweep of filesystem operations. The crash image must replay
// a gapless log from seq 1 holding each record's own payload and every
// record whose Append returned nil.
func TestCrashPropertyConcurrentAppenders(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		appenders := 4 + rng.Intn(5)
		const per = 10
		sizes := make([]int, appenders*per)
		for i := range sizes {
			sizes[i] = 1 + rng.Intn(64)
		}
		// A dry run counts the filesystem operations of the workload; the
		// count varies with how appends group, so sweep a little past it.
		ops := crashRun(t, appenders, per, sizes, -1)
		for k := int64(0); k <= ops+8; k++ {
			crashRun(t, appenders, per, sizes, k)
		}
	}
}

// crashRun runs one crash point (k < 0: no crash) and returns the number of
// mutating filesystem operations the run made.
func crashRun(t *testing.T, appenders, per int, sizes []int, k int64) int64 {
	t.Helper()
	fsys := vfs.NewFault()
	l, err := Open(Options{Dir: "/wal", Sync: SyncAlways, SegmentBytes: 256, FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	if k >= 0 {
		fsys.SetCrashAfterOps(k)
	}
	var mu sync.Mutex
	payloads := map[uint64]string{}
	var acked []uint64
	var wg sync.WaitGroup
	for a := 0; a < appenders; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				p := fmt.Sprintf("a%d-%d-%s", a, i, strings.Repeat("x", sizes[a*per+i]))
				seq, err := l.Append([]byte(p))
				mu.Lock()
				if seq != 0 {
					payloads[seq] = p
				}
				if err == nil {
					acked = append(acked, seq)
				}
				mu.Unlock()
				if err != nil {
					if k < 0 {
						t.Errorf("append without a crash: %v", err)
					}
					return
				}
			}
		}(a)
	}
	wg.Wait()
	ops := fsys.MutatingOps()
	img := fsys.CrashFS()
	l.Close()

	recs := replayFault(t, img)
	for i, r := range recs {
		if r.Seq != uint64(i+1) {
			t.Fatalf("crash after %d ops: record %d has seq %d, want a gapless log from 1", k, i, r.Seq)
		}
		if want, ok := payloads[r.Seq]; !ok || string(r.Payload) != want {
			t.Fatalf("crash after %d ops: seq %d replayed %q, appended %q", k, r.Seq, r.Payload, want)
		}
	}
	for _, seq := range acked {
		if seq > uint64(len(recs)) {
			t.Fatalf("crash after %d ops: acked seq %d lost (%d records recovered)", k, seq, len(recs))
		}
	}
	// The recovered log resumes right after its last record.
	l2, err := Open(Options{Dir: "/wal", Sync: SyncAlways, FS: img})
	if err != nil {
		t.Fatalf("crash after %d ops: reopen: %v", k, err)
	}
	if next := l2.NextSeq(); next != uint64(len(recs))+1 {
		t.Fatalf("crash after %d ops: reopened log continues at %d, want %d", k, next, len(recs)+1)
	}
	l2.Close()
	return ops
}
