package client_test

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"sedna/internal/client"
	"sedna/internal/core"
	"sedna/internal/kv"
	"sedna/internal/transport"
	"sedna/internal/wire"
)

// tombstoneLog is the deleting client's Caller: it records when each
// coordinator write (a Delete's tombstone) leaves the client, per key, and
// then holds the frame for delay, as a slow link would. A Delete's context
// is fixed before its tombstone is sent, so a write that began after the
// send cannot be covered by it.
type tombstoneLog struct {
	transport.Caller
	delay time.Duration

	mu   sync.Mutex
	sent map[kv.Key][]time.Time
}

func (l *tombstoneLog) Call(ctx context.Context, addr string, req transport.Message) (transport.Message, error) {
	if req.Op == core.OpCoordWrite {
		key := kv.Key(wire.NewDec(req.Body).Str())
		l.mu.Lock()
		l.sent[key] = append(l.sent[key], time.Now())
		l.mu.Unlock()
		time.Sleep(l.delay)
	}
	return l.Caller.Call(ctx, addr, req)
}

// sentAfter reports whether a tombstone for key left the client after t.
func (l *tombstoneLog) sentAfter(key kv.Key, t time.Time) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range l.sent[key] {
		if s.After(t) {
			return true
		}
	}
	return false
}

// writeOp is one WriteLatest of the history.
type writeOp struct {
	writer     int
	key        kv.Key
	value      string
	start, end time.Time
	acked      bool
}

// TestConcurrentDeleteKeepsAckedWrites races blind WriteLatest writers
// against a client that keeps deleting the same keys. Each writer owns two
// keys, so a writer's value is only superseded by its own later writes or
// by a Delete. At the end every acked write must still be present in
// ReadSiblings unless an op that could have observed it superseded it: a
// later write of the same writer, or a Delete whose tombstone left the
// client after the write began. A Delete that never observed a write must
// leave it as a sibling; a last-writer-wins tombstone destroys it.
func TestConcurrentDeleteKeepsAckedWrites(t *testing.T) {
	const writers, keysPerWriter, opsPerWriter = 3, 2, 120
	c := testCluster(t, 3, 45)
	ctx := context.Background()
	for _, seed := range []int64{1, 2} {
		log := &tombstoneLog{Caller: c.Net.Endpoint(fmt.Sprintf("deleter-%d", seed)),
			delay: 2 * time.Millisecond, sent: map[kv.Key][]time.Time{}}
		deleter, err := client.New(client.Config{Servers: c.NodeAddrs, Caller: log, Source: "deleter"})
		if err != nil {
			t.Fatal(err)
		}
		keyOf := func(w, i int) kv.Key { return kv.Join("cdel", fmt.Sprint(seed), fmt.Sprintf("w%d-k%d", w, i)) }

		var (
			mu      sync.Mutex
			history []writeOp
			wg      sync.WaitGroup
		)
		// A writer stops the deletes of its keys as it starts its last
		// write, so that write is only superseded by a Delete already in
		// flight, or by one whose read came before the stop was seen.
		stops := make([]chan struct{}, writers)
		for w := range stops {
			stops[w] = make(chan struct{})
		}
		for w := 0; w < writers; w++ {
			cl, err := c.Client()
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func(w int, rng *rand.Rand) {
				defer wg.Done()
				for i := 0; i < opsPerWriter; i++ {
					if i == opsPerWriter-1 {
						close(stops[w])
					}
					op := writeOp{writer: w, key: keyOf(w, rng.Intn(keysPerWriter)), value: fmt.Sprintf("w%d-%d", w, i)}
					op.start = time.Now()
					op.acked = cl.WriteLatest(ctx, op.key, []byte(op.value)) == nil
					op.end = time.Now()
					mu.Lock()
					history = append(history, op)
					mu.Unlock()
					time.Sleep(time.Duration(rng.Intn(300)) * time.Microsecond)
				}
			}(w, rand.New(rand.NewSource(seed*100+int64(w))))
		}
		// One deleting client; a goroutine per key keeps a Delete of that
		// key in flight for most of the run.
		var (
			dwg            sync.WaitGroup
			deletes, fails int
			firstErr       error
		)
		for w := 0; w < writers; w++ {
			for i := 0; i < keysPerWriter; i++ {
				dwg.Add(1)
				go func(key kv.Key, stop chan struct{}, rng *rand.Rand) {
					defer dwg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						err := deleter.Delete(ctx, key)
						mu.Lock()
						deletes++
						if err != nil {
							fails++
							firstErr = cmp.Or(firstErr, err)
						}
						mu.Unlock()
						time.Sleep(time.Duration(rng.Intn(500)) * time.Microsecond)
					}
				}(keyOf(w, i), stops[w], rand.New(rand.NewSource(seed*1000+int64(w*keysPerWriter+i))))
			}
		}
		wg.Wait()
		dwg.Wait()
		if fails > 0 {
			t.Errorf("seed %d: %d of %d deletes failed, first: %v", seed, fails, deletes, firstErr)
		}

		checked := 0
		for _, op := range history {
			if !op.acked {
				continue
			}
			superseded := log.sentAfter(op.key, op.start)
			for _, later := range history {
				if later.writer == op.writer && later.key == op.key && later.start.After(op.end) {
					superseded = true
				}
			}
			if superseded {
				continue
			}
			checked++
			sib, err := deleter.ReadSiblings(ctx, op.key)
			if err != nil {
				t.Fatalf("seed %d: read %s: %v", seed, op.key, err)
			}
			found := false
			for _, v := range sib.Values {
				found = found || string(v.Data) == op.value
			}
			if !found {
				t.Errorf("seed %d: %s: acked write %q lost; no op that could have observed it superseded it (siblings %d)",
					seed, op.key, op.value, len(sib.Values))
			}
		}
		t.Logf("seed %d: %d writes, %d deletes, %d writes checked", seed, len(history), deletes, checked)
	}
}

// TestDeleteRemovesOtherSourcesWrite: a Delete retires an acked write from
// another source, including a write_all list entry, because its context
// comes from a quorum read rather than from the coordinator's own row.
func TestDeleteRemovesOtherSourcesWrite(t *testing.T) {
	c := testCluster(t, 3, 46)
	a, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		key := kv.Join("cdel", "x", fmt.Sprintf("k%d", i))
		if err := a.WriteAll(ctx, key, []byte("from-a")); err != nil {
			t.Fatal(err)
		}
		if err := b.Delete(ctx, key); err != nil {
			t.Fatal(err)
		}
		if _, err := a.ReadAll(ctx, key); !errors.Is(err, core.ErrNotFound) {
			t.Fatalf("%s: read after the other source's Delete = %v, want ErrNotFound", key, err)
		}
	}
}
