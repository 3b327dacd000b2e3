package persist

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"sedna/internal/obs"
	"sedna/internal/vfs"
	"sedna/internal/wal"
)

// kvSource is the in-memory Source the harness drives; it doubles as the
// model the harness checks against.
type kvSource struct {
	mu sync.Mutex
	m  map[string][]byte
}

func newKVSource() *kvSource { return &kvSource{m: map[string][]byte{}} }

func (s *kvSource) set(k string, v []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[k] = append([]byte(nil), v...)
}

func (s *kvSource) del(k string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.m, k)
}

func (s *kvSource) SnapshotRange(emit func(key string, blob []byte)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, v := range s.m {
		emit(k, v)
	}
}

func (s *kvSource) snapshot() map[string]string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]string, len(s.m))
	for k, v := range s.m {
		out[k] = string(v)
	}
	return out
}

// harnessOp is one step of the deterministic crash workload: a set, a
// delete, or a snapshot. A batched step is appended without a durability
// wait and is acknowledged by the next unbatched step's wait, the way a
// replica frame appends each row and makes one wait for all of them.
type harnessOp struct {
	key     string
	val     string // "" with del=true deletes
	del     bool
	snap    bool
	batched bool
}

// harnessWorkload is the fixed op sequence the crash harness replays for
// every crash point. Values embed the op index so successive states are
// distinguishable; snapshots are sprinkled mid-stream so crash points land
// inside snapshot writes, manifest commits and WAL truncations too.
func harnessWorkload() []harnessOp {
	var ops []harnessOp
	for i := 0; i < 40; i++ {
		switch {
		case i%13 == 7:
			ops = append(ops, harnessOp{snap: true})
		case i%7 == 3:
			ops = append(ops, harnessOp{key: fmt.Sprintf("k%d", i%5), del: true})
		case i%11 == 5:
			ops = append(ops, harnessBatch(i)...)
		default:
			ops = append(ops, harnessOp{key: fmt.Sprintf("k%d", i%5), val: fmt.Sprintf("v%d", i)})
		}
	}
	ops = append(ops, harnessOp{snap: true})
	for i := 40; i < 50; i++ {
		ops = append(ops, harnessOp{key: fmt.Sprintf("k%d", i%5), val: fmt.Sprintf("v%d", i)})
	}
	return append(ops, harnessBatch(50)...)
}

// harnessBatch is a four-row batch at workload index i: three sets and a
// delete over distinct keys, each value naming its batch. Only its last
// row waits, so only that wait acknowledges the batch.
func harnessBatch(i int) []harnessOp {
	var b []harnessOp
	for j := 0; j < 4; j++ {
		op := harnessOp{key: fmt.Sprintf("k%d", (i+j)%5), batched: j < 3}
		if j == 2 {
			op.del = true
		} else {
			op.val = fmt.Sprintf("b%d.%d", i, j)
		}
		b = append(b, op)
	}
	return b
}

// runHarnessWorkload executes the workload against a Manager over fsys,
// mirroring the core ordering (store mutation before its log append). It
// returns the index of the last acked op (-1 if none). Errors after the
// crash point fires are expected and ignored.
func runHarnessWorkload(m *Manager, src *kvSource, ops []harnessOp) int {
	lastAcked := -1
	for i, op := range ops {
		if op.snap {
			m.SnapshotNow()
			continue
		}
		var blob []byte
		if op.del {
			src.del(op.key)
		} else {
			src.set(op.key, []byte(op.val))
			blob = []byte(op.val)
		}
		seq, err := m.AppendWrite(op.key, blob)
		if op.batched {
			continue
		}
		if err == nil {
			err = m.WaitWrites(seq)
		}
		if err == nil {
			lastAcked = i
		}
	}
	return lastAcked
}

// prefixStates returns the model state after every prefix of ops (index p
// holds the state after applying ops[:p]; snapshot ops do not change it).
func prefixStates(ops []harnessOp) []map[string]string {
	states := make([]map[string]string, 0, len(ops)+1)
	cur := map[string]string{}
	copyState := func() map[string]string {
		out := make(map[string]string, len(cur))
		for k, v := range cur {
			out[k] = v
		}
		return out
	}
	states = append(states, copyState())
	for _, op := range ops {
		switch {
		case op.snap:
		case op.del:
			delete(cur, op.key)
		default:
			cur[op.key] = op.val
		}
		states = append(states, copyState())
	}
	return states
}

func statesEqual(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func recoverImage(t *testing.T, fsys vfs.FS, cfg Config) map[string]string {
	t.Helper()
	cfg.FS = fsys
	m, err := NewManager(cfg, newKVSource())
	if err != nil {
		t.Fatalf("open for recovery: %v", err)
	}
	defer m.Close()
	got := map[string]string{}
	if err := m.Recover(func(key string, blob []byte) error {
		if blob == nil {
			delete(got, key)
		} else {
			got[key] = string(blob)
		}
		return nil
	}); err != nil {
		t.Fatalf("recover: %v", err)
	}
	return got
}

// durabilityLeg is one way of running the harness workload. The "wal" leg
// drops the workload's snapshot steps, so recovery replays the log alone;
// the "hybrid" leg keeps them, so recovery crosses a snapshot plus the log
// suffix after it, and crash points land inside snapshot writes, manifest
// commits and WAL truncations.
type durabilityLeg struct {
	name      string
	strategy  Strategy
	snapshots bool
}

var walLegs = []durabilityLeg{
	{name: "wal", strategy: WriteAhead},
	{name: "hybrid", strategy: WriteAhead, snapshots: true},
}

// legOps is ops as leg runs them.
func legOps(leg durabilityLeg, ops []harnessOp) []harnessOp {
	if leg.snapshots {
		return ops
	}
	var out []harnessOp
	for _, op := range ops {
		if !op.snap {
			out = append(out, op)
		}
	}
	return out
}

// TestCrashHarnessZeroAckedWriteLoss is the tentpole invariant: for EVERY
// injected crash point in the workload — mid-append, mid-fsync, mid
// snapshot write, between manifest rename and WAL truncation, everywhere —
// recovery from the crash image yields a state that (a) is exactly the
// model after some prefix of the workload, and (b) that prefix contains
// every acknowledged write. A crash inside a batch may keep a prefix of
// its rows; none of them was acknowledged before the batch's one wait.
func TestCrashHarnessZeroAckedWriteLoss(t *testing.T) {
	for _, leg := range walLegs {
		leg := leg
		ops := legOps(leg, harnessWorkload())
		states := prefixStates(ops)
		t.Run(leg.name, func(t *testing.T) {
			baseCfg := Config{
				Dir:             "/data",
				Strategy:        leg.strategy,
				WALSync:         wal.SyncAlways,
				WALSegmentBytes: 512, // force rotations under the harness
			}

			// Clean run to count the crash points.
			probe := vfs.NewFault()
			cfg := baseCfg
			cfg.FS = probe
			src := newKVSource()
			m, err := NewManager(cfg, src)
			if err != nil {
				t.Fatal(err)
			}
			runHarnessWorkload(m, src, ops)
			m.Close()
			total := probe.MutatingOps()
			if total < 50 {
				t.Fatalf("suspiciously few crash points: %d", total)
			}
			t.Logf("%d crash points", total)

			for k := int64(0); k <= total; k++ {
				fsys := vfs.NewFault()
				cfg := baseCfg
				cfg.FS = fsys
				src := newKVSource()
				m, err := NewManager(cfg, src)
				if err != nil {
					t.Fatal(err)
				}
				fsys.SetCrashAfterOps(k)
				lastAcked := runHarnessWorkload(m, src, ops)
				m.Close()

				got := recoverImage(t, fsys.CrashFS(), baseCfg)
				matched := false
				for p := lastAcked + 1; p < len(states); p++ {
					if statesEqual(states[p], got) {
						matched = true
						break
					}
				}
				if !matched {
					// Diagnose: does it at least match an earlier prefix
					// (acked-write loss) or no prefix at all (corruption)?
					anyPrefix := -1
					for p := range states {
						if statesEqual(states[p], got) {
							anyPrefix = p
							break
						}
					}
					if anyPrefix >= 0 {
						t.Fatalf("crash point %d: recovered prefix %d but last acked op is %d — acked-write loss", k, anyPrefix, lastAcked)
					}
					t.Fatalf("crash point %d: recovered state matches no workload prefix: %v", k, got)
				}
			}
		})
	}
}

// TestConfigMatrixRecoveryEquivalence sweeps the durability configuration
// space (go-nutt style): every {leg} × {SyncPolicy} × {SegmentBytes,
// FlushInterval} cell runs the same workload through a clean shutdown and
// must recover the identical image.
func TestConfigMatrixRecoveryEquivalence(t *testing.T) {
	legs := append([]durabilityLeg{{name: Periodic.String(), strategy: Periodic, snapshots: true}}, walLegs...)
	policies := []wal.SyncPolicy{wal.SyncNever, wal.SyncInterval, wal.SyncAlways}
	segments := []int64{128, 64 << 10}
	intervals := []time.Duration{time.Millisecond, time.Hour}

	all := harnessWorkload()
	want := prefixStates(all)[len(all)]

	for _, leg := range legs {
		ops := legOps(leg, all)
		for _, policy := range policies {
			if leg.strategy == Periodic && policy != wal.SyncNever {
				continue // Periodic has no WAL; one policy cell is enough
			}
			for _, segBytes := range segments {
				for _, interval := range intervals {
					leg, policy, segBytes, interval := leg, policy, segBytes, interval
					name := fmt.Sprintf("%s/%s/seg%d/flush%s", leg.name, policy, segBytes, interval)
					t.Run(name, func(t *testing.T) {
						dir := t.TempDir()
						cfg := Config{
							Dir:             dir,
							Strategy:        leg.strategy,
							WALSync:         policy,
							WALSegmentBytes: segBytes,
							FlushInterval:   interval,
						}
						src := newKVSource()
						m, err := NewManager(cfg, src)
						if err != nil {
							t.Fatal(err)
						}
						m.Start()
						if lastAcked := runHarnessWorkload(m, src, ops); lastAcked < 0 && leg.strategy != Periodic {
							t.Fatal("no write was acked")
						}
						// Periodic persists only what a snapshot saw: take a
						// final one so the full image is on disk. A leg
						// without snapshot steps recovers from its log.
						if leg.snapshots {
							if err := m.SnapshotNow(); err != nil {
								t.Fatal(err)
							}
						}
						if err := m.Close(); err != nil {
							t.Fatal(err)
						}
						got := recoverImage(t, nil, cfg)
						if !statesEqual(want, got) {
							t.Fatalf("recovered %v, want %v", got, want)
						}
					})
				}
			}
		}
	}
}

// TestAppendWritesShareOneDurableWait: rows appended one by one and
// covered by one WaitWrites cost one fsync, not one per row, and come back
// from the crash image in append order.
func TestAppendWritesShareOneDurableWait(t *testing.T) {
	fsys := vfs.NewFault()
	cfg := Config{Dir: "/data", Strategy: WriteAhead, WALSync: wal.SyncAlways, FS: fsys}
	m, err := NewManager(cfg, newKVSource())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	keys := make([]string, 16)
	blobs := make([][]byte, 16)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%02d", i%8) // each key twice: order matters
		blobs[i] = []byte(fmt.Sprintf("v%02d", i))
	}
	blobs[15] = nil // and a deletion
	syncs := fsys.Syncs()
	var last uint64
	for i := range keys {
		seq, err := m.AppendWrite(keys[i], blobs[i])
		if err != nil {
			t.Fatal(err)
		}
		last = seq
	}
	if err := m.WaitWrites(last); err != nil {
		t.Fatal(err)
	}
	if got := fsys.Syncs() - syncs; got != 1 {
		t.Fatalf("%d fsyncs for 16 rows under one wait, want 1", got)
	}
	got := recoverImage(t, fsys.CrashFS(), cfg)
	want := map[string]string{}
	for i := 8; i < 15; i++ {
		want[keys[i]] = string(blobs[i])
	}
	if !statesEqual(got, want) {
		t.Fatalf("recovered %v, want %v", got, want)
	}
}

// TestDegradedAfterStickyFsyncError: a sticky fsync failure flips the
// manager to degraded and every later durable write is refused.
func TestDegradedAfterStickyFsyncError(t *testing.T) {
	fsys := vfs.NewFault()
	reg := obs.NewRegistry()
	cfg := Config{Dir: "/data", Strategy: WriteAhead, WALSync: wal.SyncAlways, FS: fsys, Obs: reg}
	m, err := NewManager(cfg, newKVSource())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.LogWrite("a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if m.Degraded() {
		t.Fatal("degraded before any fault")
	}
	fsys.FailFsync(fmt.Errorf("medium error"))
	if err := m.LogWrite("b", []byte("2")); err == nil {
		t.Fatal("durable write acked during fsync failure")
	}
	if !m.Degraded() {
		t.Fatal("not degraded after sticky fsync error")
	}
	if err := m.LogWrite("c", []byte("3")); err == nil {
		t.Fatal("durable write acked while degraded")
	}
	if reg.Counter("wal.fsync_errors").Load() == 0 {
		t.Fatal("wal.fsync_errors not exported")
	}
}

// TestParallelRecoveryMatchesSerial replays the same image with 1 and 8
// recovery workers and expects identical results (per-key order holds
// because keys shard deterministically).
func TestParallelRecoveryMatchesSerial(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, Strategy: WriteAhead, WALSync: wal.SyncNever}
	src := newKVSource()
	m, err := NewManager(cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		k := fmt.Sprintf("k%d", i%97)
		v := []byte(fmt.Sprintf("v%d", i))
		src.set(k, v)
		if err := m.LogWrite(k, v); err != nil {
			t.Fatal(err)
		}
		if i == 250 {
			if err := m.SnapshotNow(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	serial := recoverImage(t, nil, cfg)

	cfgPar := cfg
	cfgPar.RecoveryWorkers = 8
	mp, err := NewManager(cfgPar, newKVSource())
	if err != nil {
		t.Fatal(err)
	}
	defer mp.Close()
	var mu sync.Mutex
	parallel := map[string]string{}
	if err := mp.Recover(func(key string, blob []byte) error {
		mu.Lock()
		defer mu.Unlock()
		if blob == nil {
			delete(parallel, key)
		} else {
			parallel[key] = string(blob)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !statesEqual(serial, parallel) {
		t.Fatalf("parallel recovery diverged: %d vs %d keys", len(parallel), len(serial))
	}
	if len(serial) != 97 {
		t.Fatalf("recovered %d keys, want 97", len(serial))
	}
}

// TestRecoverQuarantinesCorruptMidLog: a flipped byte mid-log no longer
// kills recovery — the damaged segment is quarantined, later segments are
// salvaged, and the loss is counted.
func TestRecoverQuarantinesCorruptMidLog(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	cfg := Config{Dir: dir, Strategy: WriteAhead, WALSync: wal.SyncAlways, WALSegmentBytes: 256}
	src := newKVSource()
	m, err := NewManager(cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		k := fmt.Sprintf("k%d", i)
		src.set(k, []byte("0123456789abcdef"))
		if err := m.LogWrite(k, []byte("0123456789abcdef")); err != nil {
			t.Fatal(err)
		}
	}
	m.Close()

	// Flip a payload byte in the second WAL segment.
	walDir := filepath.Join(dir, "wal")
	entries, err := os.ReadDir(walDir)
	if err != nil || len(entries) < 3 {
		t.Fatalf("segments = %d err=%v", len(entries), err)
	}
	path := filepath.Join(walDir, entries[1].Name())
	data, _ := os.ReadFile(path)
	data[len(data)/2] ^= 0xff
	os.WriteFile(path, data, 0o644)

	cfg.Obs = reg
	got := recoverImage(t, nil, cfg)
	if len(got) == 0 || len(got) >= 30 {
		t.Fatalf("salvaged %d keys, want partial recovery", len(got))
	}
	if reg.Counter("wal.records_quarantined").Load() == 0 {
		t.Fatal("wal.records_quarantined not counted")
	}
	// The last keys (after the damaged segment) must have been salvaged.
	if _, ok := got["k29"]; !ok {
		t.Fatal("records after the corrupt segment were not salvaged")
	}
}
