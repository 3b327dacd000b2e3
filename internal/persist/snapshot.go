// Package persist implements Sedna's persistency strategies (§III, Table I:
// "periodically flush or write-ahead logs according users' needs"): binary
// snapshots of the memory image committed by a manifest, a manager that
// checkpoints the write-ahead log in internal/wal with those snapshots, and
// crash recovery that reloads the committed snapshot and replays the log
// suffix. The paper motivates this as the backstop for
// whole-cluster power loss (§III-C): replicas protect against individual
// node failures, periodic flushing against losing all three replicas at
// once.
package persist

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"

	"sedna/internal/vfs"
)

// Snapshot file format (little endian):
//
//	8  magic "SEDNASNP"
//	u8 version (2)
//	u64 WAL watermark (next sequence at capture time)
//	u64 entry count
//	entry: u32 key length, key, u8 flags (always 0), u32 blob length, blob
//	u32 CRC32 over everything above
//
// A snapshot is a full image, so every entry is a live value; the flags
// byte is kept for layout compatibility and any non-zero value is
// rejected. Files are written to a temp name, fsynced, renamed into place,
// and the directory is fsynced so the new name survives a crash.

var snapMagic = [8]byte{'S', 'E', 'D', 'N', 'A', 'S', 'N', 'P'}

const snapVersion = 2

// ErrCorruptSnapshot reports a snapshot that failed validation.
var ErrCorruptSnapshot = errors.New("persist: corrupt snapshot")

const (
	snapPrefix = "snap-"
	snapSuffix = ".snap"
)

func snapName(watermark uint64) string {
	return fmt.Sprintf("%s%020d%s", snapPrefix, watermark, snapSuffix)
}

// writeSnapshot writes the entries that iterate emits to the snapshot file
// dir/name, tagged with the WAL watermark, with full crash discipline:
// temp file, fsync, rename, directory fsync.
func writeSnapshot(fsys vfs.FS, dir, name string, watermark uint64, iterate func(emit func(key string, blob []byte))) error {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	buf := make([]byte, 0, 1<<16)
	buf = append(buf, snapMagic[:]...)
	buf = append(buf, snapVersion)
	buf = binary.LittleEndian.AppendUint64(buf, watermark)
	countAt := len(buf)
	buf = binary.LittleEndian.AppendUint64(buf, 0) // patched below
	var count uint64
	iterate(func(key string, blob []byte) {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(key)))
		buf = append(buf, key...)
		buf = append(buf, 0) // flags
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(blob)))
		buf = append(buf, blob...)
		count++
	})
	binary.LittleEndian.PutUint64(buf[countAt:], count)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	return writeDurable(fsys, dir, filepath.Join(dir, name), buf)
}

// writeDurable lands data at final so that after a crash either the old
// content or the complete new content is visible: write a temp, fsync it,
// rename over final, fsync the directory.
func writeDurable(fsys vfs.FS, dir, final string, data []byte) error {
	tmp := final + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := fsys.Rename(tmp, final); err != nil {
		return err
	}
	return fsys.SyncDir(dir)
}

// readSnapshot loads the snapshot at path, invoking apply per entry, and
// returns the WAL watermark recorded at capture time. An empty value
// arrives as a non-nil empty slice (nil means deletion to Recover's apply).
func readSnapshot(fsys vfs.FS, path string, apply func(key string, blob []byte) error) (uint64, error) {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return 0, err
	}
	if len(data) < len(snapMagic)+1+8+8+4 {
		return 0, fmt.Errorf("%w: too short", ErrCorruptSnapshot)
	}
	body, crcBytes := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(crcBytes) {
		return 0, fmt.Errorf("%w: bad checksum", ErrCorruptSnapshot)
	}
	off := 0
	if string(body[:8]) != string(snapMagic[:]) {
		return 0, fmt.Errorf("%w: bad magic", ErrCorruptSnapshot)
	}
	off += 8
	if version := body[off]; version != snapVersion {
		return 0, fmt.Errorf("%w: unknown version %d", ErrCorruptSnapshot, version)
	}
	off++
	watermark := binary.LittleEndian.Uint64(body[off:])
	off += 8
	count := binary.LittleEndian.Uint64(body[off:])
	off += 8
	for i := uint64(0); i < count; i++ {
		if len(body)-off < 4 {
			return 0, fmt.Errorf("%w: truncated entry %d", ErrCorruptSnapshot, i)
		}
		kl := int(binary.LittleEndian.Uint32(body[off:]))
		off += 4
		if len(body)-off < kl {
			return 0, fmt.Errorf("%w: truncated key %d", ErrCorruptSnapshot, i)
		}
		key := string(body[off : off+kl])
		off += kl
		if len(body)-off < 1 {
			return 0, fmt.Errorf("%w: truncated flags %d", ErrCorruptSnapshot, i)
		}
		if flags := body[off]; flags != 0 {
			return 0, fmt.Errorf("%w: entry %d has flags %#x", ErrCorruptSnapshot, i, flags)
		}
		off++
		if len(body)-off < 4 {
			return 0, fmt.Errorf("%w: truncated blob length %d", ErrCorruptSnapshot, i)
		}
		bl := int(binary.LittleEndian.Uint32(body[off:]))
		off += 4
		if len(body)-off < bl {
			return 0, fmt.Errorf("%w: truncated blob %d", ErrCorruptSnapshot, i)
		}
		blob := make([]byte, bl)
		copy(blob, body[off:off+bl])
		off += bl
		if err := apply(key, blob); err != nil {
			return 0, err
		}
	}
	if off != len(body) {
		return 0, fmt.Errorf("%w: %d trailing bytes", ErrCorruptSnapshot, len(body)-off)
	}
	return watermark, nil
}

// Manifest pins the committed snapshot and the WAL watermark recovery
// resumes from. WAL truncation is driven only by a committed manifest — a
// snapshot that crashed before its manifest rename simply never happened.
// Chain always names exactly one full snapshot; the field keeps the JSON
// shape (and so the CRC) of manifests that named a base plus deltas.
type Manifest struct {
	Version   int      `json:"version"`
	Watermark uint64   `json:"watermark"`
	Chain     []string `json:"chain"`
	CRC       uint32   `json:"crc"`
}

const manifestName = "MANIFEST"

func manifestCRC(m Manifest) uint32 {
	m.CRC = 0
	b, _ := json.Marshal(m)
	return crc32.ChecksumIEEE(b)
}

// WriteManifest commits m atomically (temp + rename + dir fsync).
func WriteManifest(fsys vfs.FS, dir string, m Manifest) error {
	m.Version = 1
	m.CRC = manifestCRC(m)
	b, err := json.Marshal(m)
	if err != nil {
		return err
	}
	return writeDurable(fsys, dir, filepath.Join(dir, manifestName), b)
}

// ReadManifest loads the committed manifest; ok is false when none exists.
func ReadManifest(fsys vfs.FS, dir string) (Manifest, bool, error) {
	var m Manifest
	b, err := fsys.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		if os.IsNotExist(err) {
			return m, false, nil
		}
		return m, false, err
	}
	if err := json.Unmarshal(b, &m); err != nil {
		return m, false, fmt.Errorf("persist: corrupt manifest: %w", err)
	}
	if manifestCRC(m) != m.CRC {
		return m, false, fmt.Errorf("persist: corrupt manifest: bad crc")
	}
	if len(m.Chain) != 1 {
		// A longer chain is a base plus incremental deltas, which this
		// version cannot load: refuse it rather than load the base alone.
		return m, false, fmt.Errorf("persist: manifest names a %d-file snapshot chain; only a single full snapshot is supported", len(m.Chain))
	}
	return m, true, nil
}

// pruneSnapshots removes every snapshot file in dir except keep, making the
// removals durable with a directory fsync.
func pruneSnapshots(fsys vfs.FS, dir, keep string) error {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return err
	}
	removed := false
	for _, e := range entries {
		name := e.Name()
		if name == keep || !strings.HasPrefix(name, snapPrefix) || !strings.HasSuffix(name, snapSuffix) {
			continue
		}
		if err := fsys.Remove(filepath.Join(dir, name)); err != nil {
			return err
		}
		removed = true
	}
	if removed {
		return fsys.SyncDir(dir)
	}
	return nil
}
