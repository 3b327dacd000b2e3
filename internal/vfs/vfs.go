// Package vfs abstracts the filesystem operations Sedna's durability layer
// performs (segment appends, fsync, atomic rename, directory fsync) behind
// an interface with two implementations: OS, a thin wrapper over the os
// package used in production, and Fault, an in-memory filesystem that
// models exactly what a power loss keeps — per-file synced prefixes and
// per-directory durable name bindings — and can inject fsync errors, short
// writes, ENOSPC and deterministic crash points, and hold fsyncs in
// flight. The WAL and snapshot code take a FS so the crash-injection
// harness can prove, for every crash point, that recovery loses no
// acknowledged write.
package vfs

import (
	"io"
	"os"
	"path/filepath"
)

// File is the subset of *os.File the durability layer uses.
type File interface {
	io.Writer
	// Sync forces written data to stable storage.
	Sync() error
	// Truncate changes the file size; the WAL uses it to erase a torn
	// record after a failed append.
	Truncate(size int64) error
	// Stat reports the file's current size.
	Stat() (os.FileInfo, error)
	Close() error
}

// FS is the filesystem surface of the durability layer. Implementations
// must be safe for concurrent use.
type FS interface {
	// OpenFile opens name with os.OpenFile semantics (the durability layer
	// only uses O_CREATE|O_WRONLY|O_APPEND and O_CREATE|O_WRONLY|O_TRUNC).
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// ReadFile returns the whole content of name.
	ReadFile(name string) ([]byte, error)
	// WriteFile replaces name's content (create or truncate).
	WriteFile(name string, data []byte, perm os.FileMode) error
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove unlinks name.
	Remove(name string) error
	// MkdirAll creates dir and its parents.
	MkdirAll(path string, perm os.FileMode) error
	// ReadDir lists dir.
	ReadDir(name string) ([]os.DirEntry, error)
	// SyncDir fsyncs the directory itself, making the name bindings
	// (creates, renames, removes) inside it durable. Without it a crash
	// can forget that a file exists even though its data was fsynced.
	SyncDir(name string) error
}

// OS is the production filesystem.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

func (osFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	return os.WriteFile(name, data, perm)
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

func (osFS) ReadDir(name string) ([]os.DirEntry, error) { return os.ReadDir(name) }

// SyncDir opens the directory and fsyncs it. On filesystems where
// directories cannot be fsynced the error is reported to the caller, which
// treats it like any other fsync failure.
func (osFS) SyncDir(name string) error {
	d, err := os.Open(filepath.Clean(name))
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}
