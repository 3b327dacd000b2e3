package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"sedna/internal/vfs"
	"sedna/internal/wal"
)

// mapSource is an in-memory Source for tests.
type mapSource struct {
	mu sync.Mutex
	m  map[string][]byte
}

func newMapSource() *mapSource { return &mapSource{m: map[string][]byte{}} }

func (s *mapSource) set(k string, v []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[k] = append([]byte(nil), v...)
}

func (s *mapSource) del(k string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.m, k)
}

func (s *mapSource) SnapshotRange(emit func(key string, blob []byte)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, v := range s.m {
		emit(k, v)
	}
}

func recoverInto(t *testing.T, m *Manager) map[string][]byte {
	t.Helper()
	got := map[string][]byte{}
	err := m.Recover(func(key string, blob []byte) error {
		if blob == nil {
			delete(got, key)
		} else {
			got[key] = append([]byte(nil), blob...)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	entries := map[string][]byte{"a": []byte("1"), "b": []byte("22"), "empty": nil}
	err := writeSnapshot(vfs.OS, dir, snapName(42), 42, func(emit func(string, []byte)) {
		for k, v := range entries {
			emit(k, v)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string][]byte{}
	watermark, err := readSnapshot(vfs.OS, filepath.Join(dir, snapName(42)), func(key string, blob []byte) error {
		got[key] = blob
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if watermark != 42 {
		t.Fatalf("watermark = %d", watermark)
	}
	if len(got) != len(entries) {
		t.Fatalf("got %d entries", len(got))
	}
	for k, v := range entries {
		if string(got[k]) != string(v) {
			t.Fatalf("entry %q = %q, want %q", k, got[k], v)
		}
	}
	if got["empty"] == nil {
		t.Fatal("empty value read back as nil, which recovery treats as a deletion")
	}
}

func TestSnapshotRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, snapName(1))
	if err := writeSnapshot(vfs.OS, dir, snapName(1), 1, func(emit func(string, []byte)) {
		emit("k", []byte("v"))
	}); err != nil {
		t.Fatal(err)
	}
	good, _ := os.ReadFile(path)
	read := func(data []byte) error {
		os.WriteFile(path, data, 0o644)
		_, err := readSnapshot(vfs.OS, path, func(string, []byte) error { return nil })
		return err
	}

	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0xff
	if err := read(flipped); !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("flipped byte: err = %v", err)
	}

	// A non-zero flags byte (the removed tombstone bit) is rejected even
	// under a valid checksum. Layout: magic 8, version 1, watermark 8,
	// count 8, key length 4, key "k", then the flags byte.
	flagged := append([]byte(nil), good[:len(good)-4]...)
	flagged[8+1+8+8+4+1] = 1
	flagged = binary.LittleEndian.AppendUint32(flagged, crc32.ChecksumIEEE(flagged))
	if err := read(flagged); !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("non-zero flags: err = %v", err)
	}
}

// TestRecoverRejectsSnapshotChain: a manifest naming more than one file is
// an incremental chain this version cannot load; Recover refuses it rather
// than loading the base alone.
func TestRecoverRejectsSnapshotChain(t *testing.T) {
	dir := t.TempDir()
	if err := WriteManifest(vfs.OS, dir, Manifest{Watermark: 3, Chain: []string{snapName(1), "delta-00000000000000000003.snap"}}); err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(Config{Dir: dir, Strategy: WriteAhead}, newMapSource())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	err = m.Recover(func(string, []byte) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "2-file snapshot chain") {
		t.Fatalf("Recover over a 2-file chain: err = %v", err)
	}
}

func TestPruneSnapshots(t *testing.T) {
	dir := t.TempDir()
	for _, w := range []uint64{1, 2, 3} {
		writeSnapshot(vfs.OS, dir, snapName(w), w, func(func(string, []byte)) {})
	}
	os.WriteFile(filepath.Join(dir, "MANIFEST"), nil, 0o644)
	if err := pruneSnapshots(vfs.OS, dir, snapName(3)); err != nil {
		t.Fatal(err)
	}
	entries, _ := os.ReadDir(dir)
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if len(names) != 2 || names[0] != "MANIFEST" || names[1] != snapName(3) {
		t.Fatalf("entries after prune = %v", names)
	}
}

func TestStrategyNoneIsNoOp(t *testing.T) {
	m, err := NewManager(Config{Strategy: None}, newMapSource())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.LogWrite("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := m.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	if got := recoverInto(t, m); len(got) != 0 {
		t.Fatalf("recovered %v under None", got)
	}
}

func TestWriteAheadRecovery(t *testing.T) {
	dir := t.TempDir()
	src := newMapSource()
	m, err := NewManager(Config{Dir: dir, Strategy: WriteAhead, WALSync: wal.SyncAlways}, src)
	if err != nil {
		t.Fatal(err)
	}
	m.LogWrite("a", []byte("1"))
	m.LogWrite("b", []byte("2"))
	m.LogWrite("a", []byte("3")) // overwrite
	m.LogWrite("b", nil)         // delete
	m.Close()

	m2, err := NewManager(Config{Dir: dir, Strategy: WriteAhead}, src)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	got := recoverInto(t, m2)
	if len(got) != 1 || string(got["a"]) != "3" {
		t.Fatalf("recovered = %v", got)
	}
}

func TestPeriodicRecovery(t *testing.T) {
	dir := t.TempDir()
	src := newMapSource()
	src.set("x", []byte("10"))
	src.set("y", []byte("20"))
	m, err := NewManager(Config{Dir: dir, Strategy: Periodic}, src)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	m.Close()
	// Mutations after the snapshot are lost under Periodic — that is the
	// documented trade-off.
	src.set("z", []byte("30"))

	m2, _ := NewManager(Config{Dir: dir, Strategy: Periodic}, newMapSource())
	defer m2.Close()
	got := recoverInto(t, m2)
	if len(got) != 2 || string(got["x"]) != "10" || string(got["y"]) != "20" {
		t.Fatalf("recovered = %v", got)
	}
}

func TestWriteAheadSnapshotPlusLogSuffix(t *testing.T) {
	dir := t.TempDir()
	src := newMapSource()
	m, err := NewManager(Config{Dir: dir, Strategy: WriteAhead, WALSync: wal.SyncAlways}, src)
	if err != nil {
		t.Fatal(err)
	}
	src.set("a", []byte("1"))
	m.LogWrite("a", []byte("1"))
	src.set("b", []byte("2"))
	m.LogWrite("b", []byte("2"))
	if err := m.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	// Post-snapshot mutations land only in the log.
	m.LogWrite("c", []byte("3"))
	m.LogWrite("a", nil)
	m.Close()

	m2, err := NewManager(Config{Dir: dir, Strategy: WriteAhead}, newMapSource())
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	got := recoverInto(t, m2)
	if len(got) != 2 || string(got["b"]) != "2" || string(got["c"]) != "3" {
		t.Fatalf("recovered = %v", got)
	}
}

func TestWriteAheadSnapshotTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	src := newMapSource()
	m, err := NewManager(Config{Dir: dir, Strategy: WriteAhead, WALSync: wal.SyncAlways}, src)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	big := make([]byte, 1024)
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("k%d", i)
		src.set(key, big)
		m.LogWrite(key, big)
	}
	walDir := filepath.Join(dir, "wal")
	before, _ := os.ReadDir(walDir)
	if err := m.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	// More writes to open a fresh segment boundary check.
	for i := 0; i < 10; i++ {
		m.LogWrite("later", big)
	}
	after, _ := os.ReadDir(walDir)
	if len(before) > 1 && len(after) >= len(before) {
		t.Fatalf("wal segments not truncated: %d -> %d", len(before), len(after))
	}
}

func TestPeriodicFlushLoop(t *testing.T) {
	dir := t.TempDir()
	src := newMapSource()
	src.set("k", []byte("v"))
	m, err := NewManager(Config{Dir: dir, Strategy: Periodic, FlushInterval: 10 * time.Millisecond}, src)
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, ok, _ := ReadManifest(vfs.OS, dir); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("flush loop never produced a snapshot")
		}
		time.Sleep(5 * time.Millisecond)
	}
	m.Close()
}

func TestManagerCloseIdempotent(t *testing.T) {
	m, err := NewManager(Config{Dir: t.TempDir(), Strategy: WriteAhead}, newMapSource())
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestMutationCodec(t *testing.T) {
	for _, tc := range []struct {
		key  string
		blob []byte
	}{
		{"k", []byte("v")},
		{"", nil},
		{"long-key-with/slashes", make([]byte, 4096)},
	} {
		key, blob, err := decodeMutation(encodeMutation(tc.key, tc.blob))
		if err != nil {
			t.Fatal(err)
		}
		if key != tc.key || string(blob) != string(tc.blob) {
			t.Fatalf("round trip failed for %q", tc.key)
		}
	}
	if _, _, err := decodeMutation([]byte{1, 2}); err == nil {
		t.Fatal("short record accepted")
	}
	if _, _, err := decodeMutation([]byte{10, 0, 0, 0, 'x'}); err == nil {
		t.Fatal("truncated key accepted")
	}
}
