package main

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"sedna/internal/kv"
	"sedna/internal/memstore"
	"sedna/internal/persist"
	"sedna/internal/ring"
	"sedna/internal/transport"
	"sedna/internal/wal"
)

// Probes call a leaf package's public functions directly, with the
// workload's own keys and the rows a replica would store for them. They run
// after the cluster is gone, so nothing competes for the two cores. A probe
// says what a layer costs alone; the README says why a sub-microsecond
// share of a 0.6 ms read predicts no end-to-end move.

// perCall times n calls of fn, five times over, and returns the median
// round's nanoseconds per call.
func perCall(n int, fn func(i int)) float64 {
	var rounds []float64
	for r := 0; r < 5; r++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		rounds = append(rounds, float64(time.Since(start))/float64(n))
	}
	return medianFloat(rounds)
}

// allocsPerCall counts the process's heap allocations over n calls of fn.
func allocsPerCall(n int, fn func(i int)) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// probeSink keeps the compiler from discarding a probed call's result.
var probeSink []byte

// storedRow is the row a replica holds for key i after one dotted write.
func (r *runner) storedRow(i int) *kv.Row {
	return kv.RowFromWrite(kv.Versioned{
		Value: r.value(i, 1), TS: kv.Timestamp{Wall: 1, Node: 1}, Source: "client", Dot: kv.Dot{Node: 1, Counter: 1},
	}, true)
}

func (r *runner) probeKV(add func(name string, v float64, n int)) {
	const n = 20000
	rows := make([]*kv.Row, 256)
	blobs := make([][]byte, len(rows))
	for i := range rows {
		rows[i] = r.storedRow(i)
		blobs[i] = kv.EncodeRow(rows[i])
	}
	add("kv.encode_row_ns", perCall(n, func(i int) { probeSink = kv.EncodeRow(rows[i%len(rows)]) }), n)
	var scratch kv.Row
	add("kv.decode_row_ns", perCall(n, func(i int) {
		if err := kv.DecodeRowInto(&scratch, blobs[i%len(blobs)]); err != nil {
			panic(err) // the blob was encoded a few lines up
		}
	}), n)
	// Each write supersedes the one before it, as a blind WriteLatest does
	// once the coordinator has stamped it with its own row clock.
	row, value := r.storedRow(0), r.value(0, 2)
	counter := uint64(1)
	add("kv.apply_causal_ns", perCall(n, func(int) {
		counter++
		row.ApplyCausal(kv.Versioned{
			Value: value, TS: kv.Timestamp{Wall: int64(counter), Node: 1}, Source: "client",
			Dot: kv.Dot{Node: 1, Counter: counter}, Ctx: kv.DVV{{Node: 1, Base: counter - 1}},
		}, true, 0)
	}), n)
	add("kv.row_bytes_per_user_byte", float64(len(blobs[0]))/float64(len(r.keys.Key(0))+r.spec.valueBytes), 1)
}

func (r *runner) probeMemstore(add func(name string, v float64, n int)) {
	const n = 20000
	store := memstore.New(memstore.Config{MemoryLimit: 64 << 20})
	keys := make([]string, 1024)
	blob := kv.EncodeRow(r.storedRow(0))
	for i := range keys {
		keys[i] = string(r.keys.Key(i))
		if err := store.Set(keys[i], blob, 0, 0); err != nil {
			panic(err) // 1024 rows cannot exceed 64 MiB
		}
	}
	add("memstore.get_ns", perCall(n, func(i int) { store.Get(keys[i%len(keys)]) }), n)
	// What a replica apply does: hand the store a freshly built row.
	update := func(i int) {
		store.UpdateOwned(keys[i%len(keys)], func(old []byte, ok bool) ([]byte, bool) {
			return append(make([]byte, 0, len(old)), old...), true
		})
	}
	add("memstore.update_ns", perCall(n, update), n)
	add("memstore.allocs_per_update", allocsPerCall(n, update), n)
}

func (r *runner) probeRing(live *ring.Ring, add func(name string, v float64, n int)) {
	const n = 20000
	keys := make([]kv.Key, 1024)
	for i := range keys {
		keys[i] = r.keys.Key(i)
	}
	add("ring.owners_ns", perCall(n, func(i int) { live.OwnersForKey(keys[i%len(keys)]) }), n)
}

type noSnapshot struct{}

func (noSnapshot) SnapshotRange(func(key string, blob []byte)) {}

// probeDurability times one synced append, alone, on the real filesystem:
// through the WAL directly and through the persistence manager above it.
func (r *runner) probeDurability(dir string, add func(name string, v float64, n int)) error {
	const n = 300
	blob := kv.EncodeRow(r.storedRow(0))
	key := string(r.keys.Key(0))
	log, err := wal.Open(wal.Options{Dir: filepath.Join(dir, "probe-wal"), Sync: wal.SyncAlways})
	if err != nil {
		return err
	}
	payload := append([]byte(key), blob...)
	var lat []int64
	for i := 0; i < n && err == nil; i++ {
		start := time.Now()
		_, err = log.Append(payload)
		lat = append(lat, int64(time.Since(start)))
	}
	if cerr := log.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	add("wal.append_sync_us", us(median(lat)), n)

	m, err := persist.NewManager(persist.Config{Dir: filepath.Join(dir, "probe-persist"), Strategy: persist.WriteAhead, WALSync: wal.SyncAlways}, noSnapshot{})
	if err != nil {
		return err
	}
	lat = lat[:0]
	for i := 0; i < n && err == nil; i++ {
		start := time.Now()
		err = m.LogWrite(key, blob)
		lat = append(lat, int64(time.Since(start)))
	}
	if cerr := m.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	add("persist.log_write_us", us(median(lat)), n)
	return nil
}

// probeEcho times TCPTransport.Call against an echo handler the benchmark
// owns: 100 B there and back, one caller, both ends in this process.
func probeEcho(add func(name string, v float64, n int)) error {
	const n = 3000
	server := transport.NewTCP("127.0.0.1:0")
	err := server.Serve(func(_ context.Context, _ string, req transport.Message) (transport.Message, error) {
		return transport.Message{Op: req.Op, Body: append([]byte(nil), req.Body...)}, nil
	})
	if err != nil {
		return err
	}
	defer server.Close()
	caller := transport.NewTCP("")
	defer caller.Close()
	req := transport.Message{Op: 0x7f01, Body: make([]byte, 100)}
	var lat []int64
	call := func(int) {
		start := time.Now()
		if _, cerr := caller.Call(context.Background(), server.Addr(), req); cerr != nil && err == nil {
			err = cerr
		}
		lat = append(lat, int64(time.Since(start)))
	}
	for i := 0; i < n; i++ {
		call(i)
	}
	add("transport.echo_rtt_us", us(median(lat)), n)
	add("transport.echo_allocs_per_call", allocsPerCall(n, call), n)
	return err
}

// runProbes runs every probe. dir is a scratch directory on the filesystem
// the clusters use.
func (r *runner) runProbes(dir string, live *ring.Ring, add func(name string, v float64, n int)) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	r.probeKV(add)
	r.probeMemstore(add)
	r.probeRing(live, add)
	if err := r.probeDurability(dir, add); err != nil {
		return err
	}
	return probeEcho(add)
}
