// Package wal implements Sedna's write-ahead log, one of the paper's two
// persistency strategies (Table I: "periodically flush or write-ahead logs
// according to users' needs"). The log is a sequence of segment files of
// length-prefixed, CRC-protected records; recovery replays every intact
// record and stops cleanly at the first torn tail, which is exactly the
// guarantee a crashed Sedna node needs to rebuild its memory image.
//
// Durability is driven by group commit: under SyncAlways, concurrent
// appenders coalesce into one fsync — the first waiter becomes the sync
// leader, everyone who appended before the leader's fsync began rides the
// same batch, and each caller returns only once the fsync covering its
// sequence number completed. The fsync runs without the log mutex, so an
// append that arrives meanwhile lands at once and joins the next batch,
// whose leader starts as soon as the fsync in flight returns. That gives
// SyncAlways semantics at a per-batch rather than per-record fsync cost. A
// failed fsync is sticky: the kernel may have dropped the dirty pages, so
// the log stops acknowledging writes instead of pretending a later fsync
// could still cover them.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sedna/internal/obs"
	"sedna/internal/vfs"
)

// SyncPolicy controls when appended records are forced to stable storage,
// the speed/durability dial the paper exposes to users (§II, Table I).
type SyncPolicy int

const (
	// SyncNever leaves flushing to the OS; fastest, weakest.
	SyncNever SyncPolicy = iota
	// SyncInterval fsyncs at most once per interval from a background
	// goroutine.
	SyncInterval
	// SyncAlways returns from Append only after an fsync covering the
	// record completed; concurrent appends share fsyncs via group commit.
	SyncAlways
)

// String names the policy for flags and figures.
func (p SyncPolicy) String() string {
	switch p {
	case SyncNever:
		return "never"
	case SyncInterval:
		return "interval"
	case SyncAlways:
		return "always"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// Options configures a Log.
type Options struct {
	// Dir is the directory holding segment files. It is created when
	// missing.
	Dir string
	// SegmentBytes rotates to a fresh segment when the current one
	// exceeds this size. Zero selects 64 MiB.
	SegmentBytes int64
	// Sync selects the durability policy.
	Sync SyncPolicy
	// SyncEvery is the flush period for SyncInterval; zero selects 50ms.
	SyncEvery time.Duration
	// GroupWindow is how long a group-commit leader waits before issuing
	// its fsync, letting more appends join the batch. Zero means no
	// artificial delay: batches still form naturally out of the appends
	// that arrive while the previous fsync is in flight.
	GroupWindow time.Duration
	// GroupBytes short-circuits the GroupWindow wait once this many bytes
	// are already pending. Zero selects 256 KiB.
	GroupBytes int64
	// FS is the filesystem; nil selects the real one (vfs.OS). Tests
	// inject vfs.Fault to deliver fsync errors, torn writes and crashes.
	FS vfs.FS
	// Obs receives the log's metrics (wal.appends, wal.fsync_batches,
	// wal.fsync_wait_ns, wal.fsync_errors); nil disables.
	Obs *obs.Registry
}

// Record is one logged mutation. The WAL does not interpret the payload;
// Sedna logs its replica-level operations (op code + key + encoded row).
type Record struct {
	// Seq is the record's log sequence number, assigned by Append and
	// reported during replay.
	Seq uint64
	// Payload is the opaque record body.
	Payload []byte
}

// ErrCorrupt reports a record that failed its CRC inside the log body (not
// at the tail, where truncation is expected after a crash and tolerated).
var ErrCorrupt = errors.New("wal: corrupt record")

// ErrClosed reports use after Close.
var ErrClosed = errors.New("wal: closed")

const (
	recordHeader = 4 + 8 + 4 // length, seq, crc
	segPrefix    = "seg-"
	segSuffix    = ".wal"
	// quarantineSuffix is appended to a segment that failed its CRC
	// mid-log; the bytes are kept for forensics but the segment no longer
	// participates in replay or sequence numbering.
	quarantineSuffix = ".quarantined"
)

// recBufPool recycles record encode buffers (header + payload), following
// the owned-buffer discipline of the transport frame pool: Append draws a
// buffer, writes it to the segment, and returns it before unlocking.
var recBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4<<10); return &b }}

// Log is an append-only segmented write-ahead log. All methods are safe for
// concurrent use.
type Log struct {
	opts Options
	fs   vfs.FS

	mu       sync.Mutex
	seg      vfs.File
	segBase  uint64 // first seq of the open segment
	segSize  int64
	nextSeq  uint64
	appended uint64 // highest seq written to the OS
	dirty    bool   // records written since the last fsync began
	closed   bool
	// fsyncing marks an fsync of seg in flight with mu released; rotation,
	// Close and the next fsync wait on fsyncDone (a Cond on mu) for it.
	fsyncing  bool
	fsyncDone *sync.Cond

	// Group-commit state. Lock order is mu before gmu; no lock is held
	// while an fsync runs.
	gmu     sync.Mutex
	gcond   *sync.Cond
	durable uint64 // highest fsync-covered seq
	syncing bool   // a group-commit leader is in flight

	pending atomic.Int64             // bytes appended since the last fsync
	failed  atomic.Pointer[syncFail] // sticky fsync failure

	flushStop chan struct{}
	flushDone chan struct{}

	nAppends, nBatches  *obs.Counter
	nFsyncErrs, nWaitNs *obs.Counter
	hWait               *obs.Histogram
}

type syncFail struct{ err error }

// Open creates or resumes the log in opts.Dir. Existing segments are left
// in place; Append continues after the highest sequence found. A torn or
// corrupt tail in the newest segment is truncated away so new appends
// land after the intact prefix instead of hiding behind unreadable bytes.
func Open(opts Options) (*Log, error) {
	if opts.Dir == "" {
		return nil, errors.New("wal: Dir required")
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 64 << 20
	}
	if opts.SyncEvery <= 0 {
		opts.SyncEvery = 50 * time.Millisecond
	}
	if opts.GroupBytes <= 0 {
		opts.GroupBytes = 256 << 10
	}
	if opts.FS == nil {
		opts.FS = vfs.OS
	}
	if err := opts.FS.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	l := &Log{
		opts: opts, fs: opts.FS, nextSeq: 1,
		nAppends:   opts.Obs.Counter("wal.appends"),
		nBatches:   opts.Obs.Counter("wal.fsync_batches"),
		nFsyncErrs: opts.Obs.Counter("wal.fsync_errors"),
		nWaitNs:    opts.Obs.Counter("wal.fsync_wait_ns"),
		hWait:      opts.Obs.Histogram("wal.fsync_wait"),
	}
	l.gcond = sync.NewCond(&l.gmu)
	l.fsyncDone = sync.NewCond(&l.mu)

	if err := l.openSegmentLocked(); err != nil {
		return nil, err
	}
	l.durable = l.appended // everything on disk at open is as durable as it gets
	if opts.Sync == SyncInterval {
		l.flushStop = make(chan struct{})
		l.flushDone = make(chan struct{})
		go l.flushLoop()
	}
	return l, nil
}

func segName(base uint64) string {
	return fmt.Sprintf("%s%020d%s", segPrefix, base, segSuffix)
}

func listSegments(fsys vfs.FS, dir string) ([]uint64, error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var bases []uint64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		numStr := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
		base, err := strconv.ParseUint(numStr, 10, 64)
		if err != nil {
			continue
		}
		bases = append(bases, base)
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
	return bases, nil
}

// openSegmentLocked resumes the newest existing segment (self-healing its
// tail) or creates the first one. New segment files are followed by a
// directory fsync: without it a crash can forget the file exists even
// though its records were fsynced.
func (l *Log) openSegmentLocked() error {
	segs, err := listSegments(l.fs, l.opts.Dir)
	if err != nil {
		return err
	}
	created := false
	var base uint64
	if len(segs) > 0 {
		base = segs[len(segs)-1]
	} else {
		base = l.nextSeq
		created = true
	}
	path := filepath.Join(l.opts.Dir, segName(base))

	var intactLen int64
	if !created {
		// Scan the resumed segment: sequence numbering continues after the
		// highest intact record, and any bytes past the intact prefix (a
		// torn append, or bit rot in the tail) are truncated away so the
		// next append is reachable by replay.
		maxSeq, okLen, scanErr := scanSegment(l.fs, path)
		if scanErr != nil {
			return scanErr
		}
		if maxSeq >= l.nextSeq {
			l.nextSeq = maxSeq + 1
		}
		if maxSeq == 0 && base >= l.nextSeq {
			// Empty tail segment: keep numbering consistent.
			l.nextSeq = base
		}
		intactLen = okLen
	}

	f, err := l.fs.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	size := st.Size()
	if !created && size > intactLen {
		if err := f.Truncate(intactLen); err != nil {
			f.Close()
			return fmt.Errorf("wal: heal tail of %s: %w", path, err)
		}
		size = intactLen
	}
	if created {
		if err := l.fs.SyncDir(l.opts.Dir); err != nil {
			f.Close()
			return err
		}
	}
	l.seg = f
	l.segBase = base
	l.segSize = size
	l.appended = l.nextSeq - 1
	return nil
}

// Failed returns the sticky fsync error, or nil while the log is healthy.
// Once non-nil the log acknowledges nothing further; the node should stop
// acking durable writes and report itself degraded.
func (l *Log) Failed() error {
	if f := l.failed.Load(); f != nil {
		return f.err
	}
	return nil
}

func (l *Log) fail(err error) {
	l.failed.CompareAndSwap(nil, &syncFail{err: err})
	l.nFsyncErrs.Inc()
}

// Append writes one record and returns its sequence number, honouring the
// configured sync policy before returning: under SyncAlways it blocks until
// an fsync covering the record completed (sharing that fsync with every
// concurrent appender). Append is AppendNoWait followed by WaitDurable.
func (l *Log) Append(payload []byte) (uint64, error) {
	seq, err := l.AppendNoWait(payload)
	if err != nil {
		return 0, err
	}
	if l.opts.Sync != SyncAlways {
		return seq, nil
	}
	return seq, l.WaitDurable(seq)
}

// AppendNoWait writes one record and returns without waiting for
// durability, whatever the sync policy. Callers needing the SyncAlways
// guarantee follow up with WaitDurable(seq); the split lets a caller do
// atomic bookkeeping against the assigned sequence number (e.g. the
// dirty-key set feeding delta snapshots) without blocking every writer
// behind the group-commit fsync.
func (l *Log) AppendNoWait(payload []byte) (uint64, error) {
	l.mu.Lock()
	for {
		if l.closed {
			l.mu.Unlock()
			return 0, ErrClosed
		}
		if err := l.Failed(); err != nil {
			l.mu.Unlock()
			return 0, fmt.Errorf("wal: degraded: %w", err)
		}
		if l.segSize < l.opts.SegmentBytes {
			break
		}
		// The full segment may not be closed under an fsync in flight;
		// after waiting, re-check: another appender may have rotated.
		if l.fsyncing {
			l.fsyncDone.Wait()
			continue
		}
		if err := l.rotateLocked(); err != nil {
			l.mu.Unlock()
			return 0, err
		}
	}
	seq := l.nextSeq

	bufp := recBufPool.Get().(*[]byte)
	buf := (*bufp)[:0]
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	buf = append(buf, payload...)
	n, werr := l.seg.Write(buf)
	*bufp = buf
	recBufPool.Put(bufp)
	if werr != nil {
		// A short write left a torn record at the tail; erase it so later
		// appends stay reachable by replay. If even that fails the file
		// state is unknowable — go sticky-degraded.
		if n > 0 {
			if terr := l.seg.Truncate(l.segSize); terr != nil {
				l.fail(fmt.Errorf("wal: truncate after torn write: %w", terr))
			}
		}
		l.mu.Unlock()
		return 0, werr
	}
	l.nextSeq++
	l.segSize += int64(len(buf))
	l.appended = seq
	l.dirty = true
	l.pending.Add(int64(len(buf)))
	l.mu.Unlock()
	l.nAppends.Inc()
	return seq, nil
}

// WaitDurable blocks until an fsync covering seq completed. The first
// caller to find no sync in flight becomes the leader and issues the fsync
// for everyone who appended before it ran.
func (l *Log) WaitDurable(seq uint64) error {
	start := time.Now()
	l.gmu.Lock()
	for {
		if l.durable >= seq {
			l.gmu.Unlock()
			wait := time.Since(start)
			l.nWaitNs.Add(uint64(wait))
			l.hWait.Observe(wait)
			return nil
		}
		if err := l.Failed(); err != nil {
			l.gmu.Unlock()
			return fmt.Errorf("wal: degraded: %w", err)
		}
		if !l.syncing {
			l.syncing = true
			l.gmu.Unlock()
			l.leaderSync()
			l.gmu.Lock()
			continue
		}
		l.gcond.Wait()
	}
}

// leaderSync runs one group-commit round: optionally dwell for GroupWindow
// to let the batch grow, then fsync whatever has been appended. The log
// mutex is free during the fsync, so appends keep landing; they are not
// covered by it, and their waiters elect the next leader when it returns.
func (l *Log) leaderSync() {
	if w := l.opts.GroupWindow; w > 0 && l.pending.Load() < l.opts.GroupBytes {
		time.Sleep(w)
	}
	l.sync(true)
}

// sync is the one fsync routine of the log, serving the group-commit
// leader (lead), Sync, flushLoop and Close. Under l.mu it waits out any
// fsync in flight, reads the highest appended sequence and the open
// segment, and claims the next fsync; it runs the fsync with l.mu
// released, and only once it returned publishes the sequence it covers.
// Records in previous segments were fsynced at rotation.
func (l *Log) sync(lead bool) error {
	l.mu.Lock()
	seg, target, err := l.beginSyncLocked()
	l.mu.Unlock()
	if seg != nil {
		err = seg.Sync()
		l.mu.Lock()
		l.endSyncLocked(err)
		l.mu.Unlock()
	}
	l.advanceDurable(target, err, lead)
	return err
}

// beginSyncLocked waits for any fsync in flight, then claims the next one:
// it returns the segment to fsync and the highest sequence that fsync will
// cover, or a nil segment when nothing was written since the last fsync
// began (target is then already covered, unless the log failed). Callers
// must hold l.mu and, with a non-nil segment, call endSyncLocked.
func (l *Log) beginSyncLocked() (vfs.File, uint64, error) {
	for l.fsyncing {
		l.fsyncDone.Wait()
	}
	target := l.appended
	if err := l.Failed(); err != nil {
		return nil, target, err
	}
	if !l.dirty || l.seg == nil {
		return nil, target, nil
	}
	l.dirty = false
	l.pending.Store(0)
	l.fsyncing = true
	return l.seg, target, nil
}

// endSyncLocked records the outcome of the fsync beginSyncLocked claimed
// and wakes whoever waits for it. A failure goes sticky before the wake, so
// no waiter can fsync the same pages again and trust the answer.
func (l *Log) endSyncLocked(err error) {
	if err != nil {
		l.fail(err)
	} else {
		l.nBatches.Inc()
	}
	l.fsyncing = false
	l.fsyncDone.Broadcast()
}

// advanceDurable publishes a completed fsync and wakes every waiter whose
// sequence it covers (or all of them, on failure — they observe Failed).
// lead ends the group-commit leader's round in the same critical section,
// so a waiter the fsync did not cover is woken to lead the next one.
func (l *Log) advanceDurable(target uint64, err error, lead bool) {
	l.gmu.Lock()
	if lead {
		l.syncing = false
	}
	if err == nil && target > l.durable {
		l.durable = target
	}
	l.gmu.Unlock()
	l.gcond.Broadcast()
}

// rotateLocked fsyncs and closes the full segment and opens the next one,
// holding l.mu throughout. The caller has waited out any fsync in flight.
func (l *Log) rotateLocked() error {
	seg, target, err := l.beginSyncLocked()
	if seg != nil {
		err = seg.Sync()
		l.endSyncLocked(err)
	}
	if err != nil {
		return err
	}
	l.advanceDurable(target, nil, false)
	if err := l.seg.Close(); err != nil {
		return err
	}
	path := filepath.Join(l.opts.Dir, segName(l.nextSeq))
	f, err := l.fs.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	// Make the new segment's directory entry durable before writing records
	// into it; otherwise a crash can lose a whole fsynced segment.
	if err := l.fs.SyncDir(l.opts.Dir); err != nil {
		f.Close()
		return err
	}
	l.seg = f
	l.segBase = l.nextSeq
	l.segSize = 0
	return nil
}

// Sync forces buffered records to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	closed := l.closed
	l.mu.Unlock()
	if closed {
		return nil
	}
	return l.sync(false)
}

func (l *Log) flushLoop() {
	defer close(l.flushDone)
	t := time.NewTicker(l.opts.SyncEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			l.Sync()
		case <-l.flushStop:
			l.Sync()
			return
		}
	}
}

// NextSeq returns the sequence number the next Append will use.
func (l *Log) NextSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq
}

// DurableSeq returns the highest sequence covered by a completed fsync.
func (l *Log) DurableSeq() uint64 {
	l.gmu.Lock()
	defer l.gmu.Unlock()
	return l.durable
}

// Close flushes and closes the log. It waits for an fsync in flight
// before it closes the segment.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.mu.Unlock()
	if l.flushStop != nil {
		close(l.flushStop)
		<-l.flushDone
	}
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
	// Nothing can dirty the log any more, so once this sync has waited out
	// the fsync in flight and run its own, no other fsync can start.
	serr := l.sync(false)
	l.mu.Lock()
	cerr := l.seg.Close()
	l.seg = nil
	l.mu.Unlock()
	if serr != nil && !errors.Is(serr, ErrClosed) {
		return serr
	}
	return cerr
}

// ReplayStats reports what a replay salvaged and what it gave up on.
type ReplayStats struct {
	// Records is the count of intact records delivered to the callback.
	Records uint64
	// SegmentsQuarantined counts segments renamed aside after a mid-log
	// CRC failure; their unreadable remainder is lost but every later
	// segment still replays.
	SegmentsQuarantined uint64
	// RecordsQuarantined counts records lost to quarantined segments —
	// exact when a later segment pins the sequence boundary, a lower
	// bound of 1 otherwise.
	RecordsQuarantined uint64
}

// ReplayOptions parameterises ReplayWith.
type ReplayOptions struct {
	// FS is the filesystem; nil selects vfs.OS.
	FS vfs.FS
	// Dir is the log directory.
	Dir string
	// From skips records with Seq < From.
	From uint64
	// Quarantine makes mid-log corruption survivable: the damaged
	// segment's intact prefix replays, the file is renamed aside, and
	// replay continues with the next segment. Without it (the strict
	// default) mid-log corruption aborts with ErrCorrupt.
	Quarantine bool
}

// Replay invokes fn for every record with Seq >= from, in order, across all
// segments. A torn record at the very tail of the newest segment ends the
// replay without error (the crash happened mid-append); corruption anywhere
// else returns ErrCorrupt.
func Replay(dir string, from uint64, fn func(Record) error) error {
	_, err := ReplayWith(ReplayOptions{Dir: dir, From: from}, fn)
	return err
}

// ReplayWith is Replay with an injectable filesystem and optional
// quarantining of corrupt segments.
func ReplayWith(opts ReplayOptions, fn func(Record) error) (ReplayStats, error) {
	fsys := opts.FS
	if fsys == nil {
		fsys = vfs.OS
	}
	var stats ReplayStats
	segs, err := listSegments(fsys, opts.Dir)
	if err != nil {
		if os.IsNotExist(err) {
			return stats, nil
		}
		return stats, err
	}
	for i, base := range segs {
		lastSegment := i == len(segs)-1
		path := filepath.Join(opts.Dir, segName(base))
		res := replaySegment(fsys, path, opts.From, lastSegment, func(r Record) error {
			stats.Records++
			return fn(r)
		})
		if res.err == nil {
			continue
		}
		if !errors.Is(res.err, ErrCorrupt) || !opts.Quarantine {
			return stats, res.err
		}
		// Quarantine: keep the damaged bytes for forensics, drop the
		// segment from the log, and carry on with the rest.
		if qerr := fsys.Rename(path, path+quarantineSuffix); qerr != nil {
			return stats, fmt.Errorf("wal: quarantine %s: %w", path, qerr)
		}
		if qerr := fsys.SyncDir(opts.Dir); qerr != nil {
			return stats, qerr
		}
		stats.SegmentsQuarantined++
		// The next segment's base pins exactly how many records this one
		// held; everything after the last intact record is lost. When the
		// corruption hit the very first record, lastSeq is zero — the
		// segment base still bounds the count.
		lastGood := res.lastSeq
		if lastGood < base-1 {
			lastGood = base - 1
		}
		lost := uint64(1)
		if i+1 < len(segs) && segs[i+1] > lastGood+1 {
			lost = segs[i+1] - lastGood - 1
		}
		stats.RecordsQuarantined += lost
	}
	return stats, nil
}

// segScan is the outcome of reading one segment.
type segScan struct {
	lastSeq  uint64 // highest intact seq delivered
	intactLn int64  // byte length of the intact record prefix
	err      error  // nil, ErrCorrupt-wrapped, or a callback/io error
}

// replaySegment walks one segment. A short or CRC-failing record that runs
// to EOF is a torn tail: tolerated (silently ends the scan) when
// tolerateTear, ErrCorrupt otherwise. A CRC failure with more bytes after
// it is corruption regardless.
func replaySegment(fsys vfs.FS, path string, from uint64, tolerateTear bool, fn func(Record) error) segScan {
	var sc segScan
	data, err := fsys.ReadFile(path)
	if err != nil {
		sc.err = err
		return sc
	}
	off := 0
	for off < len(data) {
		if len(data)-off < recordHeader {
			if tolerateTear {
				return sc
			}
			sc.err = fmt.Errorf("%w: torn header in %s", ErrCorrupt, path)
			return sc
		}
		n := int(binary.LittleEndian.Uint32(data[off:]))
		seq := binary.LittleEndian.Uint64(data[off+4:])
		crc := binary.LittleEndian.Uint32(data[off+12:])
		if n < 0 || len(data)-off-recordHeader < n {
			if tolerateTear {
				return sc
			}
			sc.err = fmt.Errorf("%w: torn payload in %s", ErrCorrupt, path)
			return sc
		}
		payload := data[off+recordHeader : off+recordHeader+n]
		if crc32.ChecksumIEEE(payload) != crc {
			if tolerateTear && off+recordHeader+n == len(data) {
				return sc // torn final record
			}
			sc.err = fmt.Errorf("%w: bad crc at seq %d in %s", ErrCorrupt, seq, path)
			return sc
		}
		if seq >= from {
			if err := fn(Record{Seq: seq, Payload: append([]byte(nil), payload...)}); err != nil {
				sc.err = err
				return sc
			}
		}
		sc.lastSeq = seq
		off += recordHeader + n
		sc.intactLn = int64(off)
	}
	return sc
}

// Truncate removes whole segments whose records all precede upTo; it is
// called after a snapshot makes the prefix redundant. The segment containing
// upTo is kept.
func Truncate(dir string, upTo uint64) error {
	return TruncateFS(vfs.OS, dir, upTo)
}

// TruncateFS is Truncate over an injectable filesystem. Removals are made
// durable with a directory fsync.
func TruncateFS(fsys vfs.FS, dir string, upTo uint64) error {
	segs, err := listSegments(fsys, dir)
	if err != nil {
		return err
	}
	removed := false
	for i, base := range segs {
		// A segment may be deleted when the NEXT segment starts at or
		// before upTo (so every record here is < upTo).
		if i+1 < len(segs) && segs[i+1] <= upTo {
			if err := fsys.Remove(filepath.Join(dir, segName(base))); err != nil {
				return err
			}
			removed = true
		}
	}
	if removed {
		return fsys.SyncDir(dir)
	}
	return nil
}

// scanSegment returns the highest intact sequence number in the segment and
// the byte length of its intact prefix, stopping (without error) at the
// first record that fails validation.
func scanSegment(fsys vfs.FS, path string) (uint64, int64, error) {
	sc := replaySegment(fsys, path, 0, false, func(Record) error { return nil })
	if sc.err != nil && !errors.Is(sc.err, ErrCorrupt) {
		return 0, 0, sc.err
	}
	return sc.lastSeq, sc.intactLn, nil
}
