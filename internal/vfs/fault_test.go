package vfs

import (
	"errors"
	"os"
	"testing"
	"time"
)

var errBoom = errors.New("boom")

func mustWrite(t *testing.T, f File, data string) {
	t.Helper()
	if _, err := f.Write([]byte(data)); err != nil {
		t.Fatal(err)
	}
}

func readAll(t *testing.T, fs FS, name string) string {
	t.Helper()
	b, err := fs.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestFaultCrashKeepsSyncedPrefixOnly(t *testing.T) {
	f := NewFault()
	if err := f.MkdirAll("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	file, err := f.OpenFile("/d/a", os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	mustWrite(t, file, "durable")
	if err := file.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.SyncDir("/d"); err != nil {
		t.Fatal(err)
	}
	mustWrite(t, file, "-lost")

	img := f.CrashFS()
	if got := readAll(t, img, "/d/a"); got != "durable" {
		t.Fatalf("crash image = %q, want synced prefix only", got)
	}
	// The live view still has everything.
	if got := readAll(t, f, "/d/a"); got != "durable-lost" {
		t.Fatalf("live view = %q", got)
	}
}

func TestFaultUnsyncedDirEntryVanishes(t *testing.T) {
	f := NewFault()
	f.MkdirAll("/d", 0o755)
	file, _ := f.OpenFile("/d/new", os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	mustWrite(t, file, "x")
	if err := file.Sync(); err != nil {
		t.Fatal(err)
	}
	// Data fsynced but the directory entry was not: the file is gone.
	img := f.CrashFS()
	if _, err := img.ReadFile("/d/new"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("unsynced dir entry survived the crash: %v", err)
	}
	if err := f.SyncDir("/d"); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, f.CrashFS(), "/d/new"); got != "x" {
		t.Fatalf("after SyncDir crash image = %q", got)
	}
}

func TestFaultRenameDurability(t *testing.T) {
	f := NewFault()
	f.MkdirAll("/d", 0o755)
	file, _ := f.OpenFile("/d/snap.tmp", os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	mustWrite(t, file, "snapshot")
	file.Sync()
	f.SyncDir("/d")
	if err := f.Rename("/d/snap.tmp", "/d/snap"); err != nil {
		t.Fatal(err)
	}

	// Without a dir fsync the crash reveals the OLD name.
	img := f.CrashFS()
	if _, err := img.ReadFile("/d/snap"); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("un-fsynced rename is durable")
	}
	if got := readAll(t, img, "/d/snap.tmp"); got != "snapshot" {
		t.Fatalf("old name content = %q", got)
	}

	f.SyncDir("/d")
	img2 := f.CrashFS()
	if got := readAll(t, img2, "/d/snap"); got != "snapshot" {
		t.Fatalf("renamed content = %q", got)
	}
	if _, err := img2.ReadFile("/d/snap.tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("old name survived a synced rename")
	}
}

func TestFaultRemoveNotDurableUntilSyncDir(t *testing.T) {
	f := NewFault()
	f.MkdirAll("/d", 0o755)
	file, _ := f.OpenFile("/d/a", os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	mustWrite(t, file, "v")
	file.Sync()
	f.SyncDir("/d")
	if err := f.Remove("/d/a"); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, f.CrashFS(), "/d/a"); got != "v" {
		t.Fatalf("un-fsynced remove lost the file: %q", got)
	}
	f.SyncDir("/d")
	if _, err := f.CrashFS().ReadFile("/d/a"); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("file survived a synced remove")
	}
}

func TestFaultStickyFsyncError(t *testing.T) {
	f := NewFault()
	f.MkdirAll("/d", 0o755)
	file, _ := f.OpenFile("/d/a", os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	boom := errors.New("io error")
	f.FailFsyncAfter(1, boom)
	mustWrite(t, file, "1")
	if err := file.Sync(); err != nil {
		t.Fatalf("first sync: %v", err)
	}
	mustWrite(t, file, "2")
	if err := file.Sync(); !errors.Is(err, boom) {
		t.Fatalf("second sync = %v, want injected error", err)
	}
	// Sticky: later syncs fail too.
	if err := file.Sync(); !errors.Is(err, boom) {
		t.Fatalf("third sync = %v, want sticky error", err)
	}
	if err := f.SyncDir("/d"); !errors.Is(err, boom) {
		t.Fatalf("dir sync = %v, want sticky error", err)
	}
}

func TestFaultWriteBudgetTornWrite(t *testing.T) {
	f := NewFault()
	f.MkdirAll("/d", 0o755)
	file, _ := f.OpenFile("/d/a", os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	f.FailWritesAfter(4, nil)
	n, err := file.Write([]byte("abcdef"))
	if n != 4 || !errors.Is(err, ErrNoSpace) {
		t.Fatalf("torn write = (%d, %v)", n, err)
	}
	if got := readAll(t, f, "/d/a"); got != "abcd" {
		t.Fatalf("content after torn write = %q", got)
	}
	if n, err := file.Write([]byte("x")); n != 0 || err == nil {
		t.Fatalf("post-budget write = (%d, %v)", n, err)
	}
}

func TestFaultCrashAfterOps(t *testing.T) {
	f := NewFault()
	f.MkdirAll("/d", 0o755)
	f.SetCrashAfterOps(2) // allow create + one write
	file, err := f.OpenFile("/d/a", os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := file.Write([]byte("1")); err != nil {
		t.Fatal(err)
	}
	if _, err := file.Write([]byte("2")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("third op = %v, want ErrCrashed", err)
	}
	if err := file.Sync(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash sync = %v", err)
	}
}

func TestFaultTruncateRestoresSize(t *testing.T) {
	f := NewFault()
	f.MkdirAll("/d", 0o755)
	file, _ := f.OpenFile("/d/a", os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	mustWrite(t, file, "keep")
	file.Sync()
	mustWrite(t, file, "-torn")
	if err := file.Truncate(4); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, f, "/d/a"); got != "keep" {
		t.Fatalf("after truncate = %q", got)
	}
	st, _ := file.Stat()
	if st.Size() != 4 {
		t.Fatalf("size = %d", st.Size())
	}
}

func TestFaultReadDir(t *testing.T) {
	f := NewFault()
	f.MkdirAll("/root/sub", 0o755)
	for _, name := range []string{"/root/b", "/root/a"} {
		file, _ := f.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		file.Close()
	}
	ents, err := f.ReadDir("/root")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	if len(names) != 3 || names[0] != "a" || names[1] != "b" || names[2] != "sub" {
		t.Fatalf("entries = %v", names)
	}
	if !ents[2].IsDir() {
		t.Fatal("sub not a dir")
	}
}

func TestOSSyncDir(t *testing.T) {
	dir := t.TempDir()
	if err := OS.SyncDir(dir); err != nil {
		t.Fatalf("SyncDir on a real dir: %v", err)
	}
	if err := OS.WriteFile(dir+"/f", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := OS.ReadFile(dir + "/f")
	if err != nil || string(b) != "x" {
		t.Fatalf("round trip = %q, %v", b, err)
	}
}

// TestFaultHeldSyncCoversOnlyItsStartLength: a Sync held by HoldSyncs lets
// writes through meanwhile, and makes durable only the bytes the file held
// when it began; what was written during it is lost by a crash even after
// it returned, until a later Sync covers it.
func TestFaultHeldSyncCoversOnlyItsStartLength(t *testing.T) {
	f := NewFault()
	f.MkdirAll("/d", 0o755)
	file, _ := f.OpenFile("/d/a", os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err := f.SyncDir("/d"); err != nil {
		t.Fatal(err)
	}
	mustWrite(t, file, "before")

	release := f.HoldSyncs()
	defer release()
	done := make(chan error, 1)
	go func() { done <- file.Sync() }()
	waitHeld(t, f, 1)
	wrote := make(chan error, 1)
	go func() { _, err := file.Write([]byte("-during")); wrote <- err }()
	select {
	case err := <-wrote:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a write blocked behind the held Sync")
	}
	select {
	case err := <-done:
		t.Fatalf("held Sync returned %v before release", err)
	default:
	}
	if got := readAll(t, f.CrashFS(), "/d/a"); got != "" {
		t.Fatalf("crash image during the held Sync = %q, want nothing durable yet", got)
	}

	release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, f.CrashFS(), "/d/a"); got != "before" {
		t.Fatalf("crash image after the held Sync = %q, want only the bytes it began with", got)
	}
	if err := file.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, f.CrashFS(), "/d/a"); got != "before-during" {
		t.Fatalf("crash image after a later Sync = %q", got)
	}
	if got := f.Syncs(); got != 2 {
		t.Fatalf("Syncs() = %d, want 2", got)
	}
}

// TestFaultHeldSyncJudgedOnReturn: fsync failures armed and crashes made
// while a Sync is held decide its outcome, and nothing it began with
// becomes durable.
func TestFaultHeldSyncJudgedOnReturn(t *testing.T) {
	for _, tc := range []struct {
		name string
		arm  func(f *Fault)
		want error
	}{
		{"fsync error", func(f *Fault) { f.FailFsync(errBoom) }, errBoom},
		{"crash", func(f *Fault) { f.Crash() }, ErrCrashed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := NewFault()
			f.MkdirAll("/d", 0o755)
			file, _ := f.OpenFile("/d/a", os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			f.SyncDir("/d")
			mustWrite(t, file, "x")
			release := f.HoldSyncs()
			done := make(chan error, 1)
			go func() { done <- file.Sync() }()
			waitHeld(t, f, 1)
			tc.arm(f)
			release()
			if err := <-done; !errors.Is(err, tc.want) {
				t.Fatalf("held Sync = %v, want %v", err, tc.want)
			}
			if got := readAll(t, f.CrashFS(), "/d/a"); got != "" {
				t.Fatalf("crash image = %q, want nothing durable", got)
			}
		})
	}
}

func waitHeld(t *testing.T, f *Fault, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); f.HeldSyncs() != n; {
		if time.Now().After(deadline) {
			t.Fatalf("HeldSyncs() = %d, want %d", f.HeldSyncs(), n)
		}
		time.Sleep(time.Millisecond)
	}
}
