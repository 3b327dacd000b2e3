package quorum

import (
	"context"
	"fmt"
	"sync"
	"time"

	"sedna/internal/kv"
	"sedna/internal/obs"
	"sedna/internal/ring"
)

// This file implements the one replication step every engine call takes:
// ReadBatch and WriteBatch take one or many keys, group them by replica
// node, ship one frame per node carrying all of that node's keys, and
// settle the quorum PER KEY as replies arrive. A single-key Read or Write
// is a call with one item. A batch is therefore never all-or-nothing: a
// dark replica fails exactly the keys it owns, and those keys flow through
// the read-repair and hint hooks.

// NodeWrite is one key's write as shipped to one replica node inside a
// frame.
type NodeWrite struct {
	Key  kv.Key
	V    kv.Versioned
	Mode Mode
}

// WriteAck is one replica's per-key verdict inside a frame.
type WriteAck struct {
	Status WriteStatus
	Err    error
}

// ReadAck is one replica's per-key row inside a frame. A missing row
// is an empty Row; Err marks a per-key replica failure (e.g. a corrupt row).
type ReadAck struct {
	Row *kv.Row
	Err error
}

// BatchWrite is one key of a WriteBatch call.
type BatchWrite struct {
	Key      kv.Key
	Replicas []ring.NodeID
	V        kv.Versioned
	Mode     Mode
}

// BatchRead is one key of a ReadBatch call.
type BatchRead struct {
	Key      kv.Key
	Replicas []ring.NodeID
}

// KeyWriteResult is the per-key outcome of a WriteBatch: the quorum write
// summary plus a per-key error (quorum not reached). Outdated is a verdict,
// not an error.
type KeyWriteResult struct {
	WriteResult
	Err error
}

// KeyReadResult is the per-key outcome of a ReadBatch.
type KeyReadResult struct {
	ReadResult
	Err error
}

// groupByNode inverts the per-key replica sets into one frame per node; the
// returned map holds indices into the batch.
func groupByNode(n int, replicasOf func(i int) []ring.NodeID) map[ring.NodeID][]int {
	groups := map[ring.NodeID][]int{}
	for i := 0; i < n; i++ {
		for _, node := range replicasOf(i) {
			groups[node] = append(groups[node], i)
		}
	}
	return groups
}

// --- pooled batch scratch ---
//
// Every batch call used to allocate a fresh per-key status vector plus one
// frame slice per replica node; at batch rates that is the dominant source
// of collector garbage, so the vectors are pooled. Pooled state never
// escapes: anything handed to the caller (Failed lists) is either copied or
// freshly appended per batch, and the per-node frame slices die inside the
// detached fan-out goroutines that return them.

// writeKeyState tracks one key's quorum settling inside WriteBatch.
type writeKeyState struct {
	need, total     int
	acked, outdated int
	answered        int
	failed          []ring.NodeID
	firstErr        error
	done            bool
}

// readKeyGot is one replica's row for one key inside ReadBatch.
type readKeyGot struct {
	node ring.NodeID
	row  *kv.Row
}

// readKeyState tracks one key's quorum settling inside ReadBatch.
type readKeyState struct {
	need, total int
	answered    int
	rows        []readKeyGot
	failed      []ring.NodeID
	done        bool
}

var (
	writeStatePool = sync.Pool{New: func() any { return new([]writeKeyState) }}
	readStatePool  = sync.Pool{New: func() any { return new([]readKeyState) }}
	nodeWritePool  = sync.Pool{New: func() any { return new([]NodeWrite) }}
	nodeKeysPool   = sync.Pool{New: func() any { return new([]kv.Key) }}
)

func getWriteStates(n int) *[]writeKeyState {
	sp := writeStatePool.Get().(*[]writeKeyState)
	if cap(*sp) < n {
		*sp = make([]writeKeyState, n)
	} else {
		*sp = (*sp)[:n]
		clear(*sp)
	}
	return sp
}

func getReadStates(n int) *[]readKeyState {
	sp := readStatePool.Get().(*[]readKeyState)
	if cap(*sp) < n {
		*sp = make([]readKeyState, n)
	} else {
		*sp = (*sp)[:n]
		clear(*sp)
	}
	return sp
}

func getNodeWrites(n int) *[]NodeWrite {
	sp := nodeWritePool.Get().(*[]NodeWrite)
	if cap(*sp) < n {
		*sp = make([]NodeWrite, n)
	} else {
		*sp = (*sp)[:n]
	}
	return sp
}

// putNodeWrites clears the frame before pooling so the pool does not pin
// value bytes or keys until the next reuse.
func putNodeWrites(sp *[]NodeWrite) {
	clear(*sp)
	nodeWritePool.Put(sp)
}

func getNodeKeys(n int) *[]kv.Key {
	sp := nodeKeysPool.Get().(*[]kv.Key)
	if cap(*sp) < n {
		*sp = make([]kv.Key, n)
	} else {
		*sp = (*sp)[:n]
	}
	return sp
}

func putNodeKeys(sp *[]kv.Key) {
	clear(*sp)
	nodeKeysPool.Put(sp)
}

// WriteBatch sends every item's value to its replicas using one frame per
// distinct node and settles the W-of-N quorum independently per key: a key
// succeeds once W replicas acked, and does not wait for stragglers beyond
// its quorum. The result slice aligns with items. Failed replica writes —
// including stragglers that miss a key's early settle — feed the
// OnWriteError hook, not the returned Failed list.
func (e *Engine) WriteBatch(ctx context.Context, items []BatchWrite) []KeyWriteResult {
	out := make([]KeyWriteResult, len(items))
	if len(items) == 0 {
		return out
	}
	start := time.Now()
	defer func() {
		e.hWriteWait.Observe(time.Since(start))
		obs.Mark(ctx, "quorum.write_done")
	}()
	e.nBatchKeys.Add(uint64(len(items)))
	obs.Mark(ctx, "quorum.fanout")

	stp := getWriteStates(len(items))
	defer writeStatePool.Put(stp)
	st := *stp
	undecided := 0
	for i, it := range items {
		if len(it.Replicas) == 0 {
			out[i].Err = fmt.Errorf("%w: no replicas for key %q", ErrQuorumFailed, it.Key)
			st[i].done = true
			continue
		}
		need := e.cfg.W
		if need > len(it.Replicas) {
			need = len(it.Replicas)
		}
		st[i] = writeKeyState{need: need, total: len(it.Replicas)}
		undecided++
	}
	if undecided == 0 {
		return out
	}
	groups := groupByNode(len(items), func(i int) []ring.NodeID {
		if st[i].done {
			return nil
		}
		return items[i].Replicas
	})

	type nodeReply struct {
		node ring.NodeID
		idxs []int
		acks []WriteAck
		err  error
	}
	ch := make(chan nodeReply, len(groups))
	budget := int32(e.cfg.RetryBudget)
	for node, idxs := range groups {
		go func(node ring.NodeID, idxs []int) {
			// Each frame gets the full timeout, detached from the collector:
			// a key settling early must not abort the frame still in flight
			// to a straggler (the replica would silently miss the update and
			// stay stale until read repair), and a frame that ultimately
			// fails must still feed the hint hook. Only a frame-level error
			// is re-sent; a per-item verdict is the replica's answer.
			cctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), e.cfg.Timeout)
			defer cancel()
			framep := getNodeWrites(len(idxs))
			defer putNodeWrites(framep)
			frame := *framep
			for j, i := range idxs {
				frame[j] = NodeWrite{Key: items[i].Key, V: items[i].V, Mode: items[i].Mode}
			}
			e.nBatchFrames.Inc()
			acks, err := e.rt.WriteReplicaBatch(cctx, node, frame)
			for attempt := 0; err != nil && e.retry(cctx, &budget, attempt, err); attempt++ {
				acks, err = e.rt.WriteReplicaBatch(cctx, node, frame)
			}
			for j, i := range idxs {
				if err != nil || acks[j].Err != nil {
					e.writeFailed(node, items[i].Key, items[i].V, items[i].Mode)
				}
			}
			ch <- nodeReply{node: node, idxs: idxs, acks: acks, err: err}
		}(node, idxs)
	}

	decided := 0
	for replies := 0; decided < undecided && replies < len(groups); replies++ {
		r := <-ch
		for j, i := range r.idxs {
			s := &st[i]
			if s.done {
				continue
			}
			s.answered++
			status, ackErr := WriteOK, r.err
			if r.err == nil {
				status, ackErr = r.acks[j].Status, r.acks[j].Err
			}
			switch {
			case ackErr != nil:
				if s.firstErr == nil {
					s.firstErr = ackErr
				}
				s.failed = append(s.failed, r.node)
			case status == WriteOK:
				s.acked++
			default:
				s.outdated++
			}
			// Per-key settle (§III-C): a quorum of acks wins, a quorum of outdated (or a settled split with
			// any outdated) reports the raced write, and only once every
			// replica answered short of the quorum does the key fail.
			switch {
			case s.acked >= s.need:
				s.done = true
			case s.outdated >= s.need, s.acked+s.outdated >= s.need && s.outdated > 0:
				s.done = true
				out[i].Outdated = true
			case s.answered == s.total:
				s.done = true
				if s.firstErr != nil {
					out[i].Err = fmt.Errorf("%w: %d/%d acks for key %q (first error: %v)",
						ErrQuorumFailed, s.acked, s.need, items[i].Key, s.firstErr)
				} else {
					out[i].Err = fmt.Errorf("%w: %d/%d acks for key %q",
						ErrQuorumFailed, s.acked, s.need, items[i].Key)
				}
			}
			if s.done {
				decided++
				out[i].Acked = s.acked
				out[i].Failed = append([]ring.NodeID(nil), s.failed...)
				if out[i].Outdated {
					e.nConflicts.Inc()
				}
				if out[i].Err != nil {
					e.nBatchKeyFailures.Inc()
				}
			}
		}
	}
	return out
}

// ReadBatch fetches every key's row from its replicas using one frame per
// distinct node and settles the R-of-N quorum independently per key: a key
// is decided as soon as R equal copies are in hand, or once every replica
// answered. A decided key merges what arrived — the CRDT union, so the
// freshest combined state — flags itself inconsistent when fewer than R
// copies equal the merge (eventual consistency), and pushes the merged row
// to the laggards asynchronously (§III-C's read repair). The result slice
// aligns with items.
func (e *Engine) ReadBatch(ctx context.Context, items []BatchRead) []KeyReadResult {
	out := make([]KeyReadResult, len(items))
	if len(items) == 0 {
		return out
	}
	start := time.Now()
	defer func() {
		e.hReadWait.Observe(time.Since(start))
		obs.Mark(ctx, "quorum.read_done")
	}()
	e.nBatchKeys.Add(uint64(len(items)))
	obs.Mark(ctx, "quorum.fanout")

	stp := getReadStates(len(items))
	defer readStatePool.Put(stp)
	st := *stp
	undecided := 0
	for i, it := range items {
		if len(it.Replicas) == 0 {
			out[i].Err = fmt.Errorf("%w: no replicas for key %q", ErrQuorumFailed, it.Key)
			st[i].done = true
			continue
		}
		need := e.cfg.R
		if need > len(it.Replicas) {
			need = len(it.Replicas)
		}
		st[i] = readKeyState{need: need, total: len(it.Replicas)}
		undecided++
	}
	if undecided == 0 {
		return out
	}
	groups := groupByNode(len(items), func(i int) []ring.NodeID {
		if st[i].done {
			return nil
		}
		return items[i].Replicas
	})

	type nodeReply struct {
		node ring.NodeID
		idxs []int
		acks []ReadAck
		err  error
	}
	ch := make(chan nodeReply, len(groups))
	budget := int32(e.cfg.RetryBudget)
	for node, idxs := range groups {
		go func(node ring.NodeID, idxs []int) {
			cctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), e.cfg.Timeout)
			defer cancel()
			keysp := getNodeKeys(len(idxs))
			defer putNodeKeys(keysp)
			keys := *keysp
			for j, i := range idxs {
				keys[j] = items[i].Key
			}
			e.nBatchFrames.Inc()
			acks, err := e.rt.ReadReplicaBatch(cctx, node, keys)
			for attempt := 0; err != nil && e.retry(cctx, &budget, attempt, err); attempt++ {
				acks, err = e.rt.ReadReplicaBatch(cctx, node, keys)
			}
			ch <- nodeReply{node: node, idxs: idxs, acks: acks, err: err}
		}(node, idxs)
	}

	// rowsScratch is reused across settle calls and early-exit checks; only
	// the collector loop (single goroutine) touches it.
	var rowsScratch []*kv.Row

	// settle finalises one decided key: merge what arrived, flag
	// inconsistency, and push the merged row to the laggards.
	settle := func(i int, s *readKeyState) {
		merged := &kv.Row{}
		for _, g := range s.rows {
			merged.Merge(g.row)
		}
		merged.Dirty = false
		res := ReadResult{Row: merged, Failed: s.failed}
		var stale []ring.NodeID
		equal := 0
		for _, g := range s.rows {
			if g.row.Equal(merged) {
				equal++
			} else {
				stale = append(stale, g.node)
			}
		}
		res.Consistent = equal >= s.need
		res.Stale = stale
		if !res.Consistent {
			e.nInconsistent.Inc()
		}
		if len(stale) > 0 {
			e.nReadRepairs.Add(uint64(len(stale)))
			e.repairAsync(items[i].Replicas, items[i].Key, merged, stale)
		}
		out[i].ReadResult = res
	}

	decided := 0
	for replies := 0; decided < undecided && replies < len(groups); replies++ {
		r := <-ch
		for j, i := range r.idxs {
			s := &st[i]
			if s.done {
				continue
			}
			s.answered++
			ackErr := r.err
			var row *kv.Row
			if r.err == nil {
				row, ackErr = r.acks[j].Row, r.acks[j].Err
			}
			if ackErr != nil {
				s.failed = append(s.failed, r.node)
			} else {
				if row == nil {
					row = &kv.Row{}
				}
				s.rows = append(s.rows, readKeyGot{node: r.node, row: row})
			}
			// Early exit per key: R equal rows already in hand.
			if !s.done && len(s.rows) >= s.need {
				rowsScratch = rowsScratch[:0]
				for _, g := range s.rows {
					rowsScratch = append(rowsScratch, g.row)
				}
				if maxEqualGroup(rowsScratch) >= s.need {
					s.done = true
				}
			}
			if !s.done && s.answered == s.total {
				s.done = true
				if len(s.rows) < s.need {
					out[i].Err = fmt.Errorf("%w: %d/%d replies for key %q",
						ErrQuorumFailed, len(s.rows), s.need, items[i].Key)
					out[i].Failed = append([]ring.NodeID(nil), s.failed...)
					e.nBatchKeyFailures.Inc()
				}
			}
			if s.done {
				decided++
				if out[i].Err == nil {
					settle(i, s)
				}
			}
		}
	}
	return out
}
