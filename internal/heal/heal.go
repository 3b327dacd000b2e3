// Package heal implements Sedna's failure-healing pipeline: the write-path
// half of §III-C's "asynchronous replica re-duplication after failure".
//
// Every replica write or repair that fails is captured as a hint — the
// (node, key, row) triple that should have landed — in a bounded per-node
// queue. A background replayer drains a node's queue once the node answers
// again, pacing its probes with jittered exponential backoff while the node
// stays dark. Because replay pushes the row through the replica repair
// (a CRDT merge), re-delivery is idempotent and ordering-insensitive, so the
// cluster converges from the write path alone — no client read required.
//
// The companion Sweeper provides the low-rate anti-entropy pass: vnodes
// whose ownership changed after a confirmed death are marked dirty and
// re-merged to every owner, one vnode at a time, so replicas that missed
// updates during the failure window converge even when no hint survived.
package heal

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"time"

	"sedna/internal/kv"
	"sedna/internal/obs"
	"sedna/internal/ring"
)

// ReplayFunc delivers one hint: it merges row into node's copy of key.
// Implementations are typically the quorum transport's RepairReplica.
type ReplayFunc func(ctx context.Context, node ring.NodeID, key kv.Key, row *kv.Row) error

// Config parameterises a Healer.
type Config struct {
	// Replay delivers one hint to its destination. Required.
	Replay ReplayFunc
	// QueueCapacity bounds each per-node queue; when full the oldest hint
	// is dropped and counted. Zero selects 1024.
	QueueCapacity int
	// BaseBackoff is the delay after the first failed replay to a node;
	// zero selects 100ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential backoff; zero selects 5s.
	MaxBackoff time.Duration
	// ReplayTimeout bounds one replay delivery; zero selects 500ms.
	ReplayTimeout time.Duration
	// Seed fixes the backoff jitter; zero selects 1 (deterministic tests).
	Seed int64
	// Obs receives the heal.* metrics; nil disables.
	Obs *obs.Registry
	// Logf receives diagnostics; nil disables.
	Logf func(format string, args ...any)
}

// hint is one pending delivery; hints for the same (node, key) coalesce by
// merging rows, so a queue holds at most one entry per key. gen counts the
// in-place coalesces: a replay that started at one generation must not
// retire the hint if the generation moved while the delivery was in flight,
// because the row now carries data the delivery never shipped.
type hint struct {
	key kv.Key
	row *kv.Row
	gen uint64
}

// nodeQueue is the bounded per-node hint queue plus its replay backoff
// state. Guarded by the Healer's mutex.
type nodeQueue struct {
	order   []*hint          // FIFO
	byKey   map[kv.Key]*hint // coalescing index
	dropped uint64           // hints evicted by overflow
	backoff time.Duration    // current replay backoff (0 = try now)
	nextTry time.Time        // earliest next replay attempt
}

// Healer owns the hint queues and the background replayer.
type Healer struct {
	cfg Config

	mu     sync.Mutex
	queues map[ring.NodeID]*nodeQueue
	rng    *rand.Rand

	kick    chan struct{}
	stop    chan struct{}
	done    chan struct{}
	once    sync.Once
	started bool // guarded by mu

	nEnqueued, nDropped  *obs.Counter
	nReplayed, nFailures *obs.Counter
	gPending             *obs.Gauge
}

// New validates cfg and returns a stopped Healer; call Start to launch the
// replayer.
func New(cfg Config) (*Healer, error) {
	if cfg.Replay == nil {
		return nil, errors.New("heal: Replay required")
	}
	if cfg.QueueCapacity <= 0 {
		cfg.QueueCapacity = 1024
	}
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = 100 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 5 * time.Second
	}
	if cfg.ReplayTimeout <= 0 {
		cfg.ReplayTimeout = 500 * time.Millisecond
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	return &Healer{
		cfg:       cfg,
		queues:    map[ring.NodeID]*nodeQueue{},
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		kick:      make(chan struct{}, 1),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
		nEnqueued: cfg.Obs.Counter("heal.hints_enqueued"),
		nDropped:  cfg.Obs.Counter("heal.hints_dropped"),
		nReplayed: cfg.Obs.Counter("heal.hints_replayed"),
		nFailures: cfg.Obs.Counter("heal.replay_failures"),
		gPending:  cfg.Obs.Gauge("heal.hints_pending"),
	}, nil
}

func (h *Healer) logf(format string, args ...any) {
	if h.cfg.Logf != nil {
		h.cfg.Logf("heal: "+format, args...)
	}
}

// Start launches the replayer goroutine. Hints enqueued before Start are
// kept and drain once it runs.
func (h *Healer) Start() {
	h.mu.Lock()
	if h.started {
		h.mu.Unlock()
		return
	}
	h.started = true
	h.mu.Unlock()
	go h.replayLoop()
}

// Close stops the replayer; pending hints are discarded. Safe on a Healer
// that was never started.
func (h *Healer) Close() {
	h.once.Do(func() { close(h.stop) })
	h.mu.Lock()
	started := h.started
	h.mu.Unlock()
	if started {
		<-h.done
	}
}

// Enqueue records that row failed to reach node's copy of key. Hints for
// the same (node, key) merge; when the node's queue is full the oldest hint
// is dropped and counted (heal.hints_dropped), keeping memory bounded while
// the anti-entropy sweep covers what was lost.
func (h *Healer) Enqueue(node ring.NodeID, key kv.Key, row *kv.Row) {
	if row == nil {
		return
	}
	h.mu.Lock()
	q := h.queues[node]
	if q == nil {
		q = &nodeQueue{byKey: map[kv.Key]*hint{}}
		h.queues[node] = q
	}
	if existing := q.byKey[key]; existing != nil {
		if existing.row.Merge(row) {
			existing.gen++
		}
		h.mu.Unlock()
		h.nEnqueued.Inc()
		return
	}
	if len(q.order) >= h.cfg.QueueCapacity {
		oldest := q.order[0]
		q.order = q.order[1:]
		delete(q.byKey, oldest.key)
		q.dropped++
		h.nDropped.Inc()
		h.gPending.Add(-1)
	}
	hn := &hint{key: key, row: row.Clone()}
	q.order = append(q.order, hn)
	q.byKey[key] = hn
	h.mu.Unlock()
	h.nEnqueued.Inc()
	h.gPending.Add(1)
	h.wake()
}

// NotifyAlive resets node's replay backoff — typically called when the
// node's circuit breaker closes — so queued hints drain immediately.
func (h *Healer) NotifyAlive(node ring.NodeID) {
	h.mu.Lock()
	if q := h.queues[node]; q != nil {
		q.backoff = 0
		q.nextTry = time.Time{}
	}
	h.mu.Unlock()
	h.wake()
}

// Pending returns the total hints queued across all nodes.
func (h *Healer) Pending() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := 0
	for _, q := range h.queues {
		n += len(q.order)
	}
	return n
}

// PendingFor returns the hints queued for one node.
func (h *Healer) PendingFor(node ring.NodeID) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	if q := h.queues[node]; q != nil {
		return len(q.order)
	}
	return 0
}

// Dropped returns the total hints evicted by queue overflow.
func (h *Healer) Dropped() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	var n uint64
	for _, q := range h.queues {
		n += q.dropped
	}
	return n
}

func (h *Healer) wake() {
	select {
	case h.kick <- struct{}{}:
	default:
	}
}

// replayLoop waits until some queue is due, then drains it until the node
// fails again.
func (h *Healer) replayLoop() {
	defer close(h.done)
	for {
		node, wait, ok := h.nextDue()
		if !ok {
			// Nothing queued: sleep until a hint arrives.
			select {
			case <-h.stop:
				return
			case <-h.kick:
			}
			continue
		}
		if wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-h.stop:
				t.Stop()
				return
			case <-h.kick:
				t.Stop()
			case <-t.C:
			}
			continue
		}
		h.drain(node)
		select {
		case <-h.stop:
			return
		default:
		}
	}
}

// nextDue picks the queue with the earliest nextTry. ok is false when every
// queue is empty.
func (h *Healer) nextDue() (node ring.NodeID, wait time.Duration, ok bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	var best ring.NodeID
	var bestAt time.Time
	found := false
	for n, q := range h.queues {
		if len(q.order) == 0 {
			continue
		}
		if !found || q.nextTry.Before(bestAt) {
			best, bestAt, found = n, q.nextTry, true
		}
	}
	if !found {
		return "", 0, false
	}
	return best, time.Until(bestAt), true
}

// drain replays node's hints in FIFO order until the queue empties or a
// delivery fails (which schedules the next attempt with jittered backoff).
func (h *Healer) drain(node ring.NodeID) {
	for {
		select {
		case <-h.stop:
			return
		default:
		}
		h.mu.Lock()
		q := h.queues[node]
		if q == nil || len(q.order) == 0 {
			h.mu.Unlock()
			return
		}
		head := q.order[0]
		gen := head.gen
		row := head.row.Clone()
		h.mu.Unlock()

		ctx, cancel := context.WithTimeout(context.Background(), h.cfg.ReplayTimeout)
		err := h.cfg.Replay(ctx, node, head.key, row)
		cancel()

		h.mu.Lock()
		if err != nil {
			h.nFailures.Inc()
			if q.backoff <= 0 {
				q.backoff = h.cfg.BaseBackoff
			} else {
				q.backoff *= 2
				if q.backoff > h.cfg.MaxBackoff {
					q.backoff = h.cfg.MaxBackoff
				}
			}
			// Jitter in [backoff, 1.5*backoff) de-synchronises the
			// cluster's replayers when a node comes back.
			jitter := time.Duration(h.rng.Int63n(int64(q.backoff)/2 + 1))
			q.nextTry = time.Now().Add(q.backoff + jitter)
			pending := len(q.order)
			h.mu.Unlock()
			h.logf("replay to %s failed (%d pending): %v", node, pending, err)
			return
		}
		// Success: remove the hint only if it was not coalesced with newer
		// data while the delivery was in flight. Coalescing merges into the
		// SAME hint object, so object identity cannot detect it — the
		// generation counter can: a moved generation means the queue entry
		// now carries more than we delivered, so keep it for another round.
		if q.byKey[head.key] == head && head.gen == gen && len(q.order) > 0 && q.order[0] == head {
			q.order = q.order[1:]
			delete(q.byKey, head.key)
			h.gPending.Add(-1)
		}
		q.backoff = 0
		q.nextTry = time.Time{}
		h.mu.Unlock()
		h.nReplayed.Inc()
	}
}
