package vfs

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// ErrCrashed is returned by every Fault operation after the injected crash
// point fires: the process is "dead", nothing else reaches the disk.
var ErrCrashed = errors.New("vfs: crashed")

// ErrNoSpace is the default error for an exhausted write budget (ENOSPC).
var ErrNoSpace = errors.New("vfs: no space left on device")

// inode is one file's content. data may run ahead of synced: a crash keeps
// only data[:synced].
type inode struct {
	data   []byte
	synced int
}

// dirState is one directory. entries is the live name→inode view; durable
// is the view as of the last SyncDir — what a crash keeps. Directories
// themselves are durable from creation (the durability code creates its
// directories once at startup; modelling directory-entry durability for
// the files inside them is what catches real bugs).
type dirState struct {
	entries map[string]*inode
	durable map[string]*inode
}

// Fault is an in-memory FS that models crash-durability precisely and can
// inject disk faults. All methods are safe for concurrent use.
//
// Durability model: File.Sync makes a file's current bytes durable;
// SyncDir makes a directory's current name bindings durable. CrashFS
// returns the filesystem a post-crash process would observe: durable
// bindings only, each file truncated to its synced prefix. This is the
// adversarial model — data that was written but not fsynced, and names
// that were created/renamed but whose directory was not fsynced, are gone.
type Fault struct {
	mu   sync.Mutex
	dirs map[string]*dirState

	// fault injection state
	crashed      bool
	crashAfter   int64 // remaining mutating ops before crash; <0 disabled
	fsyncErr     error // sticky fsync failure once armed
	fsyncErrIn   int64 // remaining successful fsyncs before fsyncErr arms; <0 disabled
	writeBudget  int64 // remaining write bytes before writeErr; <0 unlimited
	writeErr     error
	nWrites      int64
	nSyncs       int64
	nDirSyncs    int64
	nMutatingOps int64
	syncHold     chan struct{} // file Syncs that begin wait on it; nil = not held
	nHeldSyncs   int
}

// NewFault returns an empty fault-injection filesystem.
func NewFault() *Fault {
	return &Fault{dirs: map[string]*dirState{}, crashAfter: -1, fsyncErrIn: -1, writeBudget: -1}
}

// --- fault injection controls ---

// Crash makes every subsequent operation fail with ErrCrashed.
func (f *Fault) Crash() {
	f.mu.Lock()
	f.crashed = true
	f.mu.Unlock()
}

// SetCrashAfterOps lets the next n mutating operations (writes, syncs,
// truncates, renames, removes, creates, dir syncs) succeed and crashes on
// the one after. n=0 crashes immediately.
func (f *Fault) SetCrashAfterOps(n int64) {
	f.mu.Lock()
	f.crashAfter = n
	f.mu.Unlock()
}

// FailFsync makes every subsequent fsync (file and directory) fail with
// err, stickily — matching real kernels, where a failed fsync may have
// dropped the dirty pages, so no later fsync can be trusted either.
func (f *Fault) FailFsync(err error) { f.FailFsyncAfter(0, err) }

// FailFsyncAfter lets the next n fsyncs succeed, then fails all later ones
// with err (sticky).
func (f *Fault) FailFsyncAfter(n int64, err error) {
	f.mu.Lock()
	f.fsyncErrIn = n
	f.fsyncErr = err
	f.mu.Unlock()
}

// FailWritesAfter grants a budget of n more written bytes; the write that
// would exceed it applies only the remaining budget (a short, torn write)
// and returns err. A nil err selects ErrNoSpace. Subsequent writes keep
// failing with a zero budget.
func (f *Fault) FailWritesAfter(n int64, err error) {
	if err == nil {
		err = ErrNoSpace
	}
	f.mu.Lock()
	f.writeBudget = n
	f.writeErr = err
	f.mu.Unlock()
}

// HoldSyncs makes every file Sync that begins from now on block, with the
// filesystem unlocked, until release is called; directory syncs are not
// held. A held Sync models an fsync in flight: writes and other syncs may
// run meanwhile, and it makes durable only the file length it saw when it
// began, so bytes written while it is held are lost by CrashFS even after
// it returns. Crash, fsync-failure and Close state are judged when it
// returns. A later HoldSyncs takes over the syncs that begin after it;
// syncs already held wait for their own release. release is idempotent.
func (f *Fault) HoldSyncs() (release func()) {
	gate := make(chan struct{})
	f.mu.Lock()
	f.syncHold = gate
	f.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			f.mu.Lock()
			if f.syncHold == gate {
				f.syncHold = nil
			}
			f.mu.Unlock()
			close(gate)
		})
	}
}

// HeldSyncs reports how many file Syncs are blocked by HoldSyncs right now.
func (f *Fault) HeldSyncs() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.nHeldSyncs
}

// MutatingOps reports how many mutating operations have completed; a crash
// harness enumerates crash points by replaying a workload with
// SetCrashAfterOps(k) for every k up to this count.
func (f *Fault) MutatingOps() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.nMutatingOps
}

// Syncs reports completed file fsyncs (group-commit batch accounting).
func (f *Fault) Syncs() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.nSyncs
}

// DirSyncs reports completed directory fsyncs.
func (f *Fault) DirSyncs() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.nDirSyncs
}

// CrashFS returns a new filesystem holding exactly the durable state: for
// every directory, the name bindings as of its last SyncDir; for every
// surviving file, the bytes as of its last Sync. The returned FS has no
// faults armed — it is what the restarted process mounts.
func (f *Fault) CrashFS() *Fault {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := NewFault()
	for path, d := range f.dirs {
		nd := &dirState{entries: map[string]*inode{}, durable: map[string]*inode{}}
		for name, ino := range d.durable {
			cp := &inode{data: append([]byte(nil), ino.data[:ino.synced]...), synced: ino.synced}
			nd.entries[name] = cp
			nd.durable[name] = cp
		}
		out.dirs[path] = nd
	}
	return out
}

// --- internal helpers (all called with f.mu held) ---

// countOp gates one mutating operation against the crash point. It returns
// ErrCrashed when the filesystem is dead; otherwise it consumes one op.
func (f *Fault) countOp() error {
	if f.crashed {
		return ErrCrashed
	}
	if f.crashAfter == 0 {
		f.crashed = true
		return ErrCrashed
	}
	if f.crashAfter > 0 {
		f.crashAfter--
	}
	f.nMutatingOps++
	return nil
}

func (f *Fault) fsyncGate() error {
	if f.fsyncErrIn == 0 {
		return f.fsyncErr
	}
	if f.fsyncErrIn > 0 {
		f.fsyncErrIn--
	}
	return nil
}

func (f *Fault) dir(path string) *dirState { return f.dirs[filepath.Clean(path)] }

func (f *Fault) lookup(name string) (*dirState, string, *inode) {
	name = filepath.Clean(name)
	d := f.dirs[filepath.Dir(name)]
	if d == nil {
		return nil, "", nil
	}
	base := filepath.Base(name)
	return d, base, d.entries[base]
}

func notExist(op, name string) error {
	return &os.PathError{Op: op, Path: name, Err: os.ErrNotExist}
}

// --- FS implementation ---

// MkdirAll creates path and its parents. Directory creation is not counted
// as a mutating op and is durable immediately (see dirState).
func (f *Fault) MkdirAll(path string, perm os.FileMode) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return ErrCrashed
	}
	path = filepath.Clean(path)
	for {
		if f.dirs[path] == nil {
			f.dirs[path] = &dirState{entries: map[string]*inode{}, durable: map[string]*inode{}}
		}
		parent := filepath.Dir(path)
		if parent == path {
			return nil
		}
		path = parent
	}
}

// OpenFile supports the flag combinations the durability layer uses:
// O_CREATE with O_APPEND (WAL segments) or O_TRUNC (snapshot temps), and
// plain read opens are not needed (ReadFile covers them).
func (f *Fault) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return nil, ErrCrashed
	}
	d, base, ino := f.lookup(name)
	if d == nil {
		return nil, notExist("open", name)
	}
	switch {
	case ino == nil:
		if flag&os.O_CREATE == 0 {
			return nil, notExist("open", name)
		}
		if err := f.countOp(); err != nil {
			return nil, err
		}
		ino = &inode{}
		d.entries[base] = ino
	case flag&os.O_TRUNC != 0:
		if err := f.countOp(); err != nil {
			return nil, err
		}
		// Truncate-and-rewrite replaces the inode so a durable binding
		// elsewhere (the pre-rename name) keeps the old content.
		ino = &inode{}
		d.entries[base] = ino
	}
	return &faultFile{fs: f, name: filepath.Clean(name), ino: ino}, nil
}

// ReadFile returns the live content of name.
func (f *Fault) ReadFile(name string) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return nil, ErrCrashed
	}
	_, _, ino := f.lookup(name)
	if ino == nil {
		return nil, notExist("open", name)
	}
	return append([]byte(nil), ino.data...), nil
}

// WriteFile replaces name with data (a fresh, unsynced inode).
func (f *Fault) WriteFile(name string, data []byte, perm os.FileMode) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.countOp(); err != nil {
		return err
	}
	d, base, _ := f.lookup(name)
	if d == nil {
		return notExist("open", name)
	}
	n, err := f.chargeWrite(int64(len(data)))
	d.entries[base] = &inode{data: append([]byte(nil), data[:n]...)}
	return err
}

// chargeWrite debits the write budget and returns how many of n bytes land.
func (f *Fault) chargeWrite(n int64) (int64, error) {
	f.nWrites++
	if f.writeBudget < 0 {
		return n, nil
	}
	if n <= f.writeBudget {
		f.writeBudget -= n
		return n, nil
	}
	kept := f.writeBudget
	f.writeBudget = 0
	return kept, f.writeErr
}

// Rename moves the live binding; neither the disappearance of oldpath nor
// the appearance of newpath is durable until the respective SyncDir.
func (f *Fault) Rename(oldpath, newpath string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.countOp(); err != nil {
		return err
	}
	od, obase, ino := f.lookup(oldpath)
	if ino == nil {
		return notExist("rename", oldpath)
	}
	nd, nbase, _ := f.lookup(newpath)
	if nd == nil {
		return notExist("rename", newpath)
	}
	delete(od.entries, obase)
	nd.entries[nbase] = ino
	return nil
}

// Remove unlinks the live binding.
func (f *Fault) Remove(name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.countOp(); err != nil {
		return err
	}
	d, base, ino := f.lookup(name)
	if ino == nil {
		return notExist("remove", name)
	}
	delete(d.entries, base)
	return nil
}

// ReadDir lists the live entries of name (files then subdirectories).
func (f *Fault) ReadDir(name string) ([]os.DirEntry, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return nil, ErrCrashed
	}
	name = filepath.Clean(name)
	d := f.dirs[name]
	if d == nil {
		return nil, notExist("open", name)
	}
	var out []os.DirEntry
	for base, ino := range d.entries {
		out = append(out, faultDirEntry{name: base, size: int64(len(ino.data))})
	}
	for sub := range f.dirs {
		if filepath.Dir(sub) == name && sub != name {
			out = append(out, faultDirEntry{name: filepath.Base(sub), dir: true})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out, nil
}

// SyncDir makes name's current bindings durable.
func (f *Fault) SyncDir(name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.countOp(); err != nil {
		return err
	}
	if err := f.fsyncGate(); err != nil {
		return err
	}
	d := f.dir(name)
	if d == nil {
		return notExist("sync", name)
	}
	d.durable = make(map[string]*inode, len(d.entries))
	for base, ino := range d.entries {
		d.durable[base] = ino
	}
	f.nDirSyncs++
	return nil
}

// --- file handle ---

type faultFile struct {
	fs     *Fault
	name   string
	ino    *inode
	closed bool
}

func (ff *faultFile) Write(p []byte) (int, error) {
	ff.fs.mu.Lock()
	defer ff.fs.mu.Unlock()
	if ff.closed {
		return 0, os.ErrClosed
	}
	if err := ff.fs.countOp(); err != nil {
		return 0, err
	}
	n, err := ff.fs.chargeWrite(int64(len(p)))
	ff.ino.data = append(ff.ino.data, p[:n]...)
	if err != nil {
		return int(n), err
	}
	return int(n), nil
}

func (ff *faultFile) Sync() error {
	ff.fs.mu.Lock()
	defer ff.fs.mu.Unlock()
	if ff.closed {
		return os.ErrClosed
	}
	if err := ff.fs.countOp(); err != nil {
		return err
	}
	length := len(ff.ino.data)
	if gate := ff.fs.syncHold; gate != nil {
		ff.fs.nHeldSyncs++
		ff.fs.mu.Unlock()
		<-gate
		ff.fs.mu.Lock()
		ff.fs.nHeldSyncs--
		if ff.closed {
			return os.ErrClosed
		}
		if ff.fs.crashed {
			return ErrCrashed
		}
	}
	if err := ff.fs.fsyncGate(); err != nil {
		return err
	}
	// A truncate while the sync was held may have cut below length.
	if length > len(ff.ino.data) {
		length = len(ff.ino.data)
	}
	if length > ff.ino.synced {
		ff.ino.synced = length
	}
	ff.fs.nSyncs++
	return nil
}

func (ff *faultFile) Truncate(size int64) error {
	ff.fs.mu.Lock()
	defer ff.fs.mu.Unlock()
	if ff.closed {
		return os.ErrClosed
	}
	if err := ff.fs.countOp(); err != nil {
		return err
	}
	if size < 0 || size > int64(len(ff.ino.data)) {
		return fmt.Errorf("vfs: truncate %s to %d (size %d)", ff.name, size, len(ff.ino.data))
	}
	ff.ino.data = ff.ino.data[:size]
	if ff.ino.synced > int(size) {
		ff.ino.synced = int(size)
	}
	return nil
}

func (ff *faultFile) Stat() (os.FileInfo, error) {
	ff.fs.mu.Lock()
	defer ff.fs.mu.Unlock()
	if ff.closed {
		return nil, os.ErrClosed
	}
	return faultFileInfo{name: filepath.Base(ff.name), size: int64(len(ff.ino.data))}, nil
}

// Close releases the handle. Closing is not a durability point.
func (ff *faultFile) Close() error {
	ff.fs.mu.Lock()
	defer ff.fs.mu.Unlock()
	if ff.closed {
		return os.ErrClosed
	}
	ff.closed = true
	return nil
}

// --- os.FileInfo / os.DirEntry adapters ---

type faultFileInfo struct {
	name string
	size int64
	dir  bool
}

func (fi faultFileInfo) Name() string { return fi.name }
func (fi faultFileInfo) Size() int64  { return fi.size }
func (fi faultFileInfo) Mode() os.FileMode {
	if fi.dir {
		return os.ModeDir | 0o755
	}
	return 0o644
}
func (fi faultFileInfo) ModTime() time.Time { return time.Time{} }
func (fi faultFileInfo) IsDir() bool        { return fi.dir }
func (fi faultFileInfo) Sys() any           { return nil }

type faultDirEntry struct {
	name string
	size int64
	dir  bool
}

func (de faultDirEntry) Name() string { return de.name }
func (de faultDirEntry) IsDir() bool  { return de.dir }
func (de faultDirEntry) Type() fs.FileMode {
	if de.dir {
		return fs.ModeDir
	}
	return 0
}
func (de faultDirEntry) Info() (fs.FileInfo, error) {
	return faultFileInfo{name: de.name, size: de.size, dir: de.dir}, nil
}
