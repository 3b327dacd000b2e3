// Package quorum implements Sedna's replication protocol (§III-C): N
// replicas per datum, eventually consistent under the quorum constraints
//
//	R + W > N   and   W > N/2,
//
// lock-free timestamped writes in two flavours (write_latest overwrites the
// whole value, write_all only the element from the same source), reads that
// wait for R equal copies, and read repair that pushes the merged freshest
// state back to stale or recovering replicas.
//
// The engine is transport-agnostic: internal/core wires it to the replica
// RPCs, tests wire it to an in-memory fake with injected failures.
package quorum

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"sedna/internal/kv"
	"sedna/internal/obs"
	"sedna/internal/ring"
	"sedna/internal/transport"
)

// Mode selects the replica-side conflict rule.
type Mode int

const (
	// Latest is write_latest: a newer timestamp replaces the whole row.
	Latest Mode = iota
	// All is write_all: only the element from the same source is
	// compared and replaced.
	All
)

// String names the mode.
func (m Mode) String() string {
	if m == Latest {
		return "latest"
	}
	return "all"
}

// WriteStatus is a replica's verdict on one write.
type WriteStatus int

const (
	// WriteOK means the replica accepted the write ("ok").
	WriteOK WriteStatus = iota
	// WriteOutdated means the replica holds something newer ("outdated").
	WriteOutdated
)

// Transport issues replica-level operations. Every replica write or read is
// a frame: one message carries every key of an engine call that one replica
// node holds, and a single-key op is a frame of one. Implementations must
// honour ctx. A frame-level error means the replica is unreachable or
// failed and fails every key in the frame; otherwise the acks align
// index-for-index with the request slice, and a per-item error is that
// replica's verdict on one key (a protocol-level "outdated" is a
// WriteStatus, not an error).
type Transport interface {
	// WriteReplicaBatch applies each item's versioned value to its row on
	// node.
	WriteReplicaBatch(ctx context.Context, node ring.NodeID, items []NodeWrite) ([]WriteAck, error)
	// ReadReplicaBatch fetches each key's row from node; a missing row
	// comes back as an empty Row, not an error.
	ReadReplicaBatch(ctx context.Context, node ring.NodeID, keys []kv.Key) ([]ReadAck, error)
	// RepairReplica merges the given row into node's copy (anti-entropy).
	RepairReplica(ctx context.Context, node ring.NodeID, key kv.Key, row *kv.Row) error
}

// Config fixes the quorum parameters.
type Config struct {
	// N is the replication degree; the paper uses 3.
	N int
	// R and W are the read and write quorums; the paper's example uses
	// R = W = 2 with N = 3.
	R int
	W int
	// Timeout bounds one replica operation; zero selects 500ms.
	Timeout time.Duration
	// RetryBudget bounds the total re-sends one engine call may issue
	// across all its replicas; a re-send is a whole frame, or one repair.
	// Every replica op here is idempotent — reads, repairs, and timestamped
	// writes whose exact duplicate is recognised as already applied — so
	// re-sending is safe. Zero disables retries.
	RetryBudget int
	// RetryBackoff is the base delay before a re-send, doubled per attempt
	// and jittered; zero selects 10ms.
	RetryBackoff time.Duration
}

// DefaultConfig returns the paper's N=3, R=2, W=2.
func DefaultConfig() Config {
	return Config{N: 3, R: 2, W: 2, Timeout: 500 * time.Millisecond,
		RetryBudget: 2, RetryBackoff: 10 * time.Millisecond}
}

// Validate enforces the paper's two constraints.
func (c Config) Validate() error {
	if c.N <= 0 || c.R <= 0 || c.W <= 0 {
		return errors.New("quorum: N, R, W must be positive")
	}
	if c.R+c.W <= c.N {
		return fmt.Errorf("quorum: need R+W > N, got R=%d W=%d N=%d", c.R, c.W, c.N)
	}
	if 2*c.W <= c.N {
		return fmt.Errorf("quorum: need W > N/2, got W=%d N=%d", c.W, c.N)
	}
	if c.R > c.N || c.W > c.N {
		return fmt.Errorf("quorum: R and W cannot exceed N (R=%d W=%d N=%d)", c.R, c.W, c.N)
	}
	return nil
}

// ErrQuorumFailed reports too few reachable replicas.
var ErrQuorumFailed = errors.New("quorum: not enough replicas reachable")

// WriteResult summarises one quorum write.
type WriteResult struct {
	// Acked counts replicas that accepted the write.
	Acked int
	// Outdated reports that the quorum judged the write stale: the caller
	// receives the paper's "outdated" reply.
	Outdated bool
	// Failed lists replicas that did not respond; the caller schedules
	// recovery for them (§III-C).
	Failed []ring.NodeID
}

// ReadResult summarises one quorum read.
type ReadResult struct {
	// Row is the merged row (never nil; may hold no values).
	Row *kv.Row
	// Consistent reports that at least R replicas returned equal rows.
	Consistent bool
	// Stale lists replicas whose copies lagged and were repaired.
	Stale []ring.NodeID
	// Failed lists unreachable replicas.
	Failed []ring.NodeID
}

// Engine executes quorum operations over a Transport.
type Engine struct {
	cfg Config
	rt  Transport

	// onRepairError, when set, observes every failed repair delivery with
	// the row that should have landed; core feeds it into the hint queue.
	onRepairError atomic.Pointer[func(node ring.NodeID, key kv.Key, row *kv.Row)]
	// onWriteError observes every replica write that ultimately failed.
	// It fires from the write goroutine itself, so failures are captured
	// even when the quorum already settled and Write returned — the
	// straggler's miss must not be lost just because the caller moved on.
	onWriteError atomic.Pointer[func(node ring.NodeID, key kv.Key, v kv.Versioned, mode Mode)]

	hWriteWait, hReadWait *obs.Histogram
	nConflicts            *obs.Counter
	nReadRepairs          *obs.Counter
	nInconsistent         *obs.Counter
	nRepairErrors         *obs.Counter
	nRetries              *obs.Counter
	nOverload             *obs.Counter
	nBatchKeys            *obs.Counter
	nBatchFrames          *obs.Counter
	nBatchKeyFailures     *obs.Counter
}

// NewEngine validates the config and returns an engine.
func NewEngine(cfg Config, rt Transport) (*Engine, error) {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 500 * time.Millisecond
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Engine{cfg: cfg, rt: rt}, nil
}

// Instrument wires the engine into an obs registry: quorum wait histograms
// (time from fan-out to quorum decision) and counters for write conflicts,
// read repairs and inconsistent reads. Nil handles stay no-ops, so an
// uninstrumented engine pays nothing.
func (e *Engine) Instrument(r *obs.Registry) {
	if r == nil {
		return
	}
	e.hWriteWait = r.Histogram("quorum.write.wait")
	e.hReadWait = r.Histogram("quorum.read.wait")
	e.nConflicts = r.Counter("quorum.conflicts")
	e.nReadRepairs = r.Counter("quorum.read_repairs")
	e.nInconsistent = r.Counter("quorum.inconsistent_reads")
	e.nRepairErrors = r.Counter("quorum.repair_errors")
	e.nRetries = r.Counter("quorum.retries")
	e.nOverload = r.Counter("quorum.overload_pushback")
	e.nBatchKeys = r.Counter("quorum.batch.keys")
	e.nBatchFrames = r.Counter("quorum.batch.frames")
	e.nBatchKeyFailures = r.Counter("quorum.batch.key_failures")
}

// OnRepairError installs fn to observe every failed repair delivery (both
// the asynchronous read-repair path and synchronous Repair). The row passed
// to fn is a private clone. Safe to call concurrently with operations.
func (e *Engine) OnRepairError(fn func(node ring.NodeID, key kv.Key, row *kv.Row)) {
	e.onRepairError.Store(&fn)
}

// OnWriteError installs fn to observe every replica write that failed after
// retries, with the versioned value that should have landed and the write
// mode it carried (hint construction is mode-dependent). Unlike the
// WriteResult.Failed list — which only covers replies that arrived before
// the quorum settled — this hook sees stragglers too.
func (e *Engine) OnWriteError(fn func(node ring.NodeID, key kv.Key, v kv.Versioned, mode Mode)) {
	e.onWriteError.Store(&fn)
}

// writeFailed records one ultimately-failed replica write.
func (e *Engine) writeFailed(node ring.NodeID, key kv.Key, v kv.Versioned, mode Mode) {
	if fn := e.onWriteError.Load(); fn != nil {
		(*fn)(node, key, v, mode)
	}
}

// repairFailed records one failed repair delivery.
func (e *Engine) repairFailed(node ring.NodeID, key kv.Key, row *kv.Row) {
	e.nRepairErrors.Inc()
	if fn := e.onRepairError.Load(); fn != nil {
		(*fn)(node, key, row.Clone())
	}
}

// retryable classifies an error for re-send purposes: remote handler
// verdicts mean the node answered, caller cancellations are not the node's
// fault, and an open breaker means re-sending would only fast-fail again.
// transport.ErrOverloaded (a shed, not a death) deliberately stays
// retryable: the jittered backoff below is exactly the pushback response
// the staged transport asks for.
func retryable(err error) bool {
	if err == nil || transport.IsRemote(err) {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, transport.ErrBreakerOpen) {
		return false
	}
	return true
}

// retry reports whether a failed replica op should be re-sent, consuming
// one unit of the op's shared budget and sleeping the jittered exponential
// backoff (bounded by ctx) before returning true.
func (e *Engine) retry(ctx context.Context, budget *int32, attempt int, err error) bool {
	if e.cfg.RetryBudget <= 0 || !retryable(err) {
		return false
	}
	if errors.Is(err, transport.ErrOverloaded) {
		e.nOverload.Inc()
	}
	if atomic.AddInt32(budget, -1) < 0 {
		return false
	}
	base := e.cfg.RetryBackoff
	if base <= 0 {
		base = 10 * time.Millisecond
	}
	// Clamp the exponent BEFORE shifting: a large attempt count would
	// overflow base << attempt to a non-positive duration, skip the d > max
	// clamp, and fire the timer immediately — a hot retry loop.
	shift := attempt
	if shift > 3 {
		shift = 3 // cap matches the 8*base backoff ceiling
	}
	d := base << shift
	if max := 8 * base; d > max || d <= 0 {
		d = max
	}
	d += time.Duration(rand.Int63n(int64(base)/2 + 1))
	t := time.NewTimer(d)
	select {
	case <-ctx.Done():
		t.Stop()
		return false
	case <-t.C:
	}
	e.nRetries.Inc()
	return true
}

// Config returns the engine's quorum parameters.
func (e *Engine) Config() Config { return e.cfg }

// Write sends v to every replica in parallel and succeeds once W replicas
// acked (§III-C: "if more than W nodes return the same version number then
// the write is considered success"). It is WriteBatch with one item.
func (e *Engine) Write(ctx context.Context, replicas []ring.NodeID, key kv.Key, v kv.Versioned, mode Mode) (WriteResult, error) {
	r := e.WriteBatch(ctx, []BatchWrite{{Key: key, Replicas: replicas, V: v, Mode: mode}})[0]
	return r.WriteResult, r.Err
}

// Read fetches the row from every replica, waits for R equal copies, and
// returns the merged freshest row. It is ReadBatch with one item.
func (e *Engine) Read(ctx context.Context, replicas []ring.NodeID, key kv.Key) (ReadResult, error) {
	r := e.ReadBatch(ctx, []BatchRead{{Key: key, Replicas: replicas}})[0]
	return r.ReadResult, r.Err
}

// maxEqualGroup returns the size of the largest set of pairwise-equal rows.
func maxEqualGroup(rows []*kv.Row) int {
	best := 0
	for i := range rows {
		n := 0
		for j := range rows {
			if rows[i].Equal(rows[j]) {
				n++
			}
		}
		if n > best {
			best = n
		}
	}
	return best
}

func (e *Engine) repairAsync(replicas []ring.NodeID, key kv.Key, row *kv.Row, stale []ring.NodeID) {
	clone := row.Clone()
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), e.cfg.Timeout)
		defer cancel()
		var wg sync.WaitGroup
		for _, node := range stale {
			wg.Add(1)
			go func(node ring.NodeID) {
				defer wg.Done()
				if err := e.rt.RepairReplica(ctx, node, key, clone); err != nil {
					// No in-place retry: the hint queue owns redelivery.
					e.repairFailed(node, key, clone)
				}
			}(node)
		}
		wg.Wait()
	}()
}

// Repair synchronously merges row into every listed replica, used by
// recovery tasks re-building a lost node.
func (e *Engine) Repair(ctx context.Context, nodes []ring.NodeID, key kv.Key, row *kv.Row) error {
	ctx, cancel := context.WithTimeout(ctx, e.cfg.Timeout)
	defer cancel()
	var firstErr error
	var mu sync.Mutex
	var wg sync.WaitGroup
	budget := int32(e.cfg.RetryBudget)
	for _, node := range nodes {
		wg.Add(1)
		go func(node ring.NodeID) {
			defer wg.Done()
			err := e.rt.RepairReplica(ctx, node, key, row)
			for attempt := 0; err != nil && e.retry(ctx, &budget, attempt, err); attempt++ {
				err = e.rt.RepairReplica(ctx, node, key, row)
			}
			if err != nil {
				e.repairFailed(node, key, row)
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}(node)
	}
	wg.Wait()
	return firstErr
}
