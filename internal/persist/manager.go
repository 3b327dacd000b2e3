package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"path/filepath"
	"sync"
	"time"

	"sedna/internal/obs"
	"sedna/internal/vfs"
	"sedna/internal/wal"
)

// Strategy selects the durability mode, the paper's user-facing trade-off
// between speed and availability (Table I).
type Strategy int

const (
	// None keeps data in memory only; replicas are the sole protection.
	None Strategy = iota
	// Periodic flushes a full snapshot on an interval.
	Periodic
	// WriteAhead logs every mutation before acknowledging it and
	// checkpoints the log on the same interval: a full snapshot, after
	// which the covered log prefix is truncated.
	WriteAhead
)

// String names the strategy for logs and flags.
func (s Strategy) String() string {
	switch s {
	case None:
		return "none"
	case Periodic:
		return "periodic"
	case WriteAhead:
		return "wal"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Config parameterises a Manager.
type Config struct {
	// Dir is the node's persistence root; snapshots live in Dir and the
	// WAL in Dir/wal.
	Dir string
	// Strategy selects the durability mode.
	Strategy Strategy
	// FlushInterval is the snapshot period (Periodic's flush, WriteAhead's
	// checkpoint); zero selects 30s.
	FlushInterval time.Duration
	// WALSync is the log's sync policy under WriteAhead.
	WALSync wal.SyncPolicy
	// WALSegmentBytes overrides the log's segment size; zero keeps the
	// log's default.
	WALSegmentBytes int64
	// WALGroupWindow is the group-commit dwell passed to the log.
	WALGroupWindow time.Duration
	// RecoveryWorkers shards Recover's apply across this many goroutines
	// (same key always lands on the same shard, preserving per-key
	// order). Values below 2 recover serially; parallel recovery requires
	// an apply callback that is safe for concurrent use.
	RecoveryWorkers int
	// FS is the filesystem; nil selects the real one. The crash harness
	// injects vfs.Fault.
	FS vfs.FS
	// Obs receives persistence metrics (persist.snapshots,
	// persist.recovery_ms, wal.records_quarantined and the wal.* family);
	// nil disables.
	Obs *obs.Registry
}

// Source provides the memory image for snapshots.
type Source interface {
	// SnapshotRange must invoke emit once per live entry.
	SnapshotRange(emit func(key string, blob []byte))
}

// Manager drives a node's persistence according to the configured strategy.
type Manager struct {
	cfg  Config
	src  Source
	log  *wal.Log
	fsys vfs.FS

	// snapMu serialises snapshots.
	snapMu sync.Mutex

	mu     sync.Mutex
	closed bool

	stop chan struct{}
	done chan struct{}

	nSnapshots   *obs.Counter
	nQuarantined *obs.Counter
	gRecoveryMs  *obs.Gauge
}

// NewManager opens (or creates) the persistence state in cfg.Dir. Call
// Recover before serving traffic, then Start to begin periodic flushing.
func NewManager(cfg Config, src Source) (*Manager, error) {
	if cfg.Strategy != None && cfg.Dir == "" {
		return nil, errors.New("persist: Dir required")
	}
	if cfg.FlushInterval <= 0 {
		cfg.FlushInterval = 30 * time.Second
	}
	if cfg.FS == nil {
		cfg.FS = vfs.OS
	}
	m := &Manager{
		cfg: cfg, src: src, fsys: cfg.FS,
		nSnapshots:   cfg.Obs.Counter("persist.snapshots"),
		nQuarantined: cfg.Obs.Counter("wal.records_quarantined"),
		gRecoveryMs:  cfg.Obs.Gauge("persist.recovery_ms"),
	}
	if cfg.Strategy == WriteAhead {
		l, err := wal.Open(wal.Options{
			Dir:          m.walDir(),
			Sync:         cfg.WALSync,
			SegmentBytes: cfg.WALSegmentBytes,
			GroupWindow:  cfg.WALGroupWindow,
			FS:           cfg.FS,
			Obs:          cfg.Obs,
		})
		if err != nil {
			return nil, err
		}
		m.log = l
	}
	return m, nil
}

func (m *Manager) walDir() string { return filepath.Join(m.cfg.Dir, "wal") }

// Degraded reports whether durability is lost: the WAL hit a sticky fsync
// failure and no longer acknowledges writes. The node should stop acking
// durable writes and report itself unhealthy.
func (m *Manager) Degraded() bool {
	return m.log != nil && m.log.Failed() != nil
}

// Mutation record payload: u32 key length, key, blob. An empty blob encodes
// a deletion.
func encodeMutation(key string, blob []byte) []byte {
	b := make([]byte, 0, 4+len(key)+len(blob))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(key)))
	b = append(b, key...)
	b = append(b, blob...)
	return b
}

func decodeMutation(p []byte) (key string, blob []byte, err error) {
	if len(p) < 4 {
		return "", nil, errors.New("persist: short mutation record")
	}
	kl := int(binary.LittleEndian.Uint32(p))
	if len(p) < 4+kl {
		return "", nil, errors.New("persist: truncated mutation key")
	}
	return string(p[4 : 4+kl]), p[4+kl:], nil
}

// LogWrite records a row mutation. Under None and Periodic it is a no-op;
// under WriteAhead it appends to the log and returns only after the
// configured sync policy is satisfied. A nil blob logs a deletion. Callers
// must apply the mutation to the store BEFORE logging it: a checkpoint
// truncates every record below the watermark it read before ranging over
// the store, so each such record must already be visible to that range.
// LogWrite is AppendWrite followed by WaitWrites.
func (m *Manager) LogWrite(key string, blob []byte) error {
	seq, err := m.AppendWrite(key, blob)
	if err != nil {
		return err
	}
	return m.WaitWrites(seq)
}

// AppendWrite appends one mutation record without waiting for durability
// and returns its sequence number (0 when there is no log). A caller that
// writes many rows appends each right after applying it to the store, so
// the log keeps the store's per-key order, and then makes one WaitWrites on
// the highest sequence: k rows pay one group-commit fsync instead of k. No
// appended row may be acknowledged before that wait returns.
func (m *Manager) AppendWrite(key string, blob []byte) (uint64, error) {
	if m.log == nil {
		return 0, nil
	}
	return m.log.AppendNoWait(encodeMutation(key, blob))
}

// WaitWrites returns once every record appended up to seq satisfies the
// sync policy: under SyncAlways it waits for an fsync covering seq, under
// the other policies it returns at once. seq 0 waits for nothing.
func (m *Manager) WaitWrites(seq uint64) error {
	if m.log == nil || seq == 0 || m.cfg.WALSync != wal.SyncAlways {
		return nil
	}
	return m.log.WaitDurable(seq)
}

// AppendedSeq returns the highest sequence appended to the log so far (0
// when there is no log): WaitWrites(AppendedSeq()) covers every record
// appended before the call.
func (m *Manager) AppendedSeq() uint64 {
	if m.log == nil {
		return 0
	}
	return m.log.NextSeq() - 1
}

// Recover rebuilds the memory image: the snapshot the manifest names, then
// the WAL suffix past the manifest watermark (the whole log when no
// manifest exists yet).
// apply receives entries in recovery order (later entries supersede earlier
// ones); a nil blob means deletion. Mid-log corruption quarantines the
// damaged segment and salvages the rest (counted in
// wal.records_quarantined). With cfg.RecoveryWorkers > 1, apply is invoked
// from that many goroutines — same-key calls stay ordered — and must be
// safe for concurrent use.
func (m *Manager) Recover(apply func(key string, blob []byte) error) error {
	if m.cfg.Strategy == None {
		return nil
	}
	start := time.Now()
	emit, finish := m.applier(apply)
	err := m.recoverInto(emit)
	if ferr := finish(); err == nil {
		err = ferr
	}
	if err == nil {
		m.gRecoveryMs.Set(time.Since(start).Milliseconds())
	}
	return err
}

func (m *Manager) recoverInto(emit func(key string, blob []byte) error) error {
	var from uint64
	man, ok, err := ReadManifest(m.fsys, m.cfg.Dir)
	if err != nil {
		return err
	}
	if ok {
		if _, err := readSnapshot(m.fsys, filepath.Join(m.cfg.Dir, man.Chain[0]), emit); err != nil {
			return err
		}
		from = man.Watermark
	}
	if m.cfg.Strategy == Periodic {
		return nil
	}
	stats, err := wal.ReplayWith(wal.ReplayOptions{FS: m.fsys, Dir: m.walDir(), From: from, Quarantine: true}, func(r wal.Record) error {
		key, blob, derr := decodeMutation(r.Payload)
		if derr != nil {
			return derr
		}
		if len(blob) == 0 {
			return emit(key, nil)
		}
		return emit(key, blob)
	})
	m.nQuarantined.Add(stats.RecordsQuarantined)
	return err
}

// applier wraps apply for recovery: serial by default; with
// RecoveryWorkers > 1 it shards by key hash across worker goroutines so
// per-vnode replay proceeds in parallel while same-key order is preserved
// (same key, same shard, FIFO).
func (m *Manager) applier(apply func(key string, blob []byte) error) (emit func(string, []byte) error, finish func() error) {
	workers := m.cfg.RecoveryWorkers
	if workers < 2 {
		return apply, func() error { return nil }
	}
	type pair struct {
		key  string
		blob []byte
	}
	chans := make([]chan pair, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := range chans {
		chans[i] = make(chan pair, 256)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for p := range chans[i] {
				if errs[i] != nil {
					continue // drain after first failure
				}
				errs[i] = apply(p.key, p.blob)
			}
		}(i)
	}
	emit = func(key string, blob []byte) error {
		h := fnv.New32a()
		h.Write([]byte(key))
		chans[h.Sum32()%uint32(workers)] <- pair{key: key, blob: blob}
		return nil
	}
	finish = func() error {
		for _, ch := range chans {
			close(ch)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}
	return emit, finish
}

// SnapshotNow checkpoints immediately: it writes a full image of the
// source, commits it to the manifest, prunes every other snapshot file and,
// under WriteAhead, truncates the log prefix the image covers.
//
// The watermark is read before the image is ranged, and no lock spans the
// two: every caller applies a mutation to the store before appending it
// (see LogWrite), so each record below the watermark is already visible to
// the range that follows. A record at or above it replays over the image.
func (m *Manager) SnapshotNow() error {
	if m.cfg.Strategy == None {
		return nil
	}
	m.snapMu.Lock()
	defer m.snapMu.Unlock()

	var watermark uint64 = 1
	if m.log != nil {
		watermark = m.log.NextSeq()
		// The records the snapshot supersedes must be durable before the
		// manifest watermark commits past them.
		if err := m.log.Sync(); err != nil {
			return err
		}
	}
	name := snapName(watermark)
	if err := writeSnapshot(m.fsys, m.cfg.Dir, name, watermark, m.src.SnapshotRange); err != nil {
		return err
	}
	if err := WriteManifest(m.fsys, m.cfg.Dir, Manifest{Watermark: watermark, Chain: []string{name}}); err != nil {
		return err
	}
	m.nSnapshots.Inc()
	if err := pruneSnapshots(m.fsys, m.cfg.Dir, name); err != nil {
		return err
	}
	if m.log != nil {
		return wal.TruncateFS(m.fsys, m.walDir(), watermark)
	}
	return nil
}

// Start launches the snapshot loop: Periodic's flush, WriteAhead's
// checkpoint.
func (m *Manager) Start() {
	if m.cfg.Strategy == None {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.stop != nil || m.closed {
		return
	}
	m.stop = make(chan struct{})
	m.done = make(chan struct{})
	go func(stop, done chan struct{}) {
		defer close(done)
		t := time.NewTicker(m.cfg.FlushInterval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				m.SnapshotNow()
			case <-stop:
				return
			}
		}
	}(m.stop, m.done)
}

// Close stops the flush loop and closes the WAL. It does not take a final
// snapshot; callers wanting one should SnapshotNow first.
func (m *Manager) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	stop, done := m.stop, m.done
	m.stop, m.done = nil, nil
	m.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	if m.log != nil {
		return m.log.Close()
	}
	return nil
}
