package core

import (
	"context"
	"errors"
	"fmt"
	"hash/maphash"
	"sync"
	"time"

	"sedna/internal/heal"
	"sedna/internal/kv"
	"sedna/internal/memstore"
	"sedna/internal/obs"
	"sedna/internal/quorum"
	"sedna/internal/ring"
	"sedna/internal/transport"
	"sedna/internal/wire"
)

// --- local replica storage ---

// rowScratchPool recycles decode-scratch rows for the replica apply paths.
// A pooled row may retain stale aliases into a previous blob until its next
// DecodeRowInto overwrites them, which is why scratch rows never escape the
// function that drew them from the pool.
var rowScratchPool = sync.Pool{New: func() any { return new(kv.Row) }}

// resetScratchRow prepares a pooled row for reuse, keeping slice capacity.
func resetScratchRow(r *kv.Row) {
	r.Dirty = false
	r.Values = r.Values[:0]
	r.Monitors = r.Monitors[:0]
	r.Clock = r.Clock[:0]
	r.Obs = 0
}

// logOrderStripes is the number of key stripes in Server.logOrder.
const logOrderStripes = 256

// logOrderSeed keys the stripe hash of logOrderLock.
var logOrderSeed = maphash.MakeSeed()

// logOrderLock returns the lock that orders key's log records. Recovery
// keeps the last logged row of a key, so every path that changes a row and
// logs it holds this lock from the memstore change through the log append:
// the log then takes a key's rows in the order the memstore did, and a row
// logged late can never replace a newer one that was already acked. The
// durability wait happens after the lock is released, so writers still
// share group-commit fsyncs; and nothing that can block on the network runs
// under it.
func (s *Server) logOrderLock(key string) *sync.Mutex {
	return &s.logOrder[maphash.String(logOrderSeed, key)%logOrderStripes]
}

// replicaWrite is one item of a replica write frame: the request, what
// staging it into the memstore produced, and its outcome.
type replicaWrite struct {
	key  kv.Key
	v    kv.Versioned
	mode quorum.Mode

	err error
	// blob is the accepted row's new encoding, appended to the log; nil
	// when the store did not change.
	blob []byte
	// duplicate marks a replay of an event the row already observed; cur is
	// the stored blob at detection time (nil when the row is absent), and
	// settled records that the duplicate appended cur to pay the key's
	// durability debt.
	duplicate bool
	cur       []byte
	settled   bool
}

// applyReplicaWrites applies a frame of versioned values to the local
// replica and fills in each item's error (nil: applied). Each item is staged
// into the memstore and its record appended to the log under the key's
// log-order lock; then ONE durability wait on the highest sequence covers
// the whole frame, and only after it does any item finish. The rule is
// group the wait, never the ack: a frame of k rows pays one group-commit
// wait instead of k, and no item's status exists before that wait
// returned. When the log refuses a row, or the wait fails, every affected
// row records its durability debt and its item fails.
func (s *Server) applyReplicaWrites(ws []replicaWrite) {
	var last uint64
	for i := range ws {
		w := &ws[i]
		s.nReplicaWrites.Inc()
		// Ownership gate: after a migration cutover the old and new quorums
		// may not overlap, so a replica that lost the vnode must reject
		// instead of acking a write the new owners will never see. It may
		// refresh the ring over the network, so it runs before the lock.
		if w.err = s.checkWriteOwnership(w.key); w.err != nil {
			continue
		}
		mu := s.logOrderLock(string(w.key))
		mu.Lock()
		s.stageReplicaWrite(w)
		var seq uint64
		switch {
		case w.err != nil:
		case w.blob != nil:
			var perr error
			if seq, perr = s.pers.AppendWrite(string(w.key), w.blob); perr != nil {
				// The memstore holds the row but the log refused it:
				// remember the debt so a retry of the same write cannot ack
				// through the duplicate path without durability.
				s.noteUndurable(w.key)
				w.blob, w.err = nil, perr
			} else {
				// The record holds the current row, so it pays any debt an
				// earlier apply of the key left.
				s.clearUndurable(w.key)
			}
		case w.duplicate:
			// A duplicate only counts as applied once the first attempt is
			// durable. Its record was appended under this lock before the
			// duplicate was seen, so waiting for everything appended so far
			// covers it even while its fsync is still in flight. When the
			// first attempt's append failed instead, the key owes a log
			// write and the duplicate pays it now.
			var perr error
			seq, w.settled, perr = s.settleUndurable(w.key, w.cur)
			if perr != nil {
				w.err = perr
			} else if !w.settled {
				seq = s.pers.AppendedSeq()
			}
		}
		mu.Unlock()
		last = max(last, seq)
	}
	werr := s.pers.WaitWrites(last)
	for i := range ws {
		w := &ws[i]
		switch {
		case w.err != nil:
		case werr != nil:
			if w.blob != nil || w.settled {
				s.noteUndurable(w.key)
			}
			if w.blob != nil || w.duplicate {
				w.err = werr
			}
		case w.blob != nil:
			s.markDirty(w.key)
			s.recordWrite(w.key, len(w.blob))
			// Dual-write window: while this vnode streams out, the
			// accepted value is also queued to the migration recipient.
			s.forwardDualWrite(w.key, w.v, w.mode == quorum.Latest)
		}
	}
}

// stageReplicaWrite applies one dotted value to the local row under the
// store's per-key atomicity with kv.Row.ApplyCausal, the one replica write
// rule, for write_latest and write_all alike. It does not log: the caller
// holds the key's log-order lock and appends every w.blob it leaves set.
//
// This is the zero-copy write path's final stage: the old blob is decoded
// into a pooled scratch row whose values ALIAS the blob (DecodeRowInto), the
// merged row is encoded once into a pre-sized buffer, and the store adopts
// that buffer via UpdateOwned — so w.v.Value (which may itself be a view
// into a pooled transport frame) is copied exactly once, by AppendRow.
func (s *Server) stageReplicaWrite(w *replicaWrite) {
	if w.v.Dot.IsZero() {
		// Input check: every coordinator mints a dot, and a dotless value
		// has no causal identity a row clock could record.
		w.err = fmt.Errorf("%w: write of %q carries no dot", ErrBadRequest, w.key)
		return
	}
	v, latest := w.v, w.mode == quorum.Latest
	duplicate := false
	var newBlob, curBlob []byte
	row := rowScratchPool.Get().(*kv.Row)
	defer rowScratchPool.Put(row)
	err := s.store.UpdateOwned(string(w.key), func(old []byte, ok bool) ([]byte, bool) {
		resetScratchRow(row)
		if ok {
			if derr := kv.DecodeRowInto(row, old); derr != nil {
				resetScratchRow(row)
			}
		}
		// The write supersedes exactly what the writer read and retains
		// concurrent siblings. A covered dot is a replay of an event this
		// replica already observed (a retry after a lost ack): it answers
		// "ok" without re-logging, so the re-send is idempotent.
		if !row.ApplyCausal(v, latest, s.cfg.SiblingCap) {
			duplicate = true
			if !ok {
				return nil, false
			}
			curBlob = old
			return old, true // same slice: UpdateOwned short-circuits
		}
		newBlob = kv.AppendRow(make([]byte, 0, kv.EncodedRowSize(row)), row)
		return newBlob, true
	})
	if err != nil {
		w.err = err
		return
	}
	w.duplicate = duplicate
	w.cur = curBlob
	if !duplicate {
		w.blob = newBlob
	}
}

// noteUndurable records that key's stored row is ahead of the log; the
// fast path stays lock-free via the counter.
func (s *Server) noteUndurable(key kv.Key) {
	s.undurMu.Lock()
	if s.undurable == nil {
		s.undurable = map[kv.Key]struct{}{}
	}
	if _, ok := s.undurable[key]; !ok {
		s.undurable[key] = struct{}{}
		s.nUndurable.Add(1)
	}
	s.undurMu.Unlock()
}

// clearUndurable drops key's durability debt after a successful log write.
func (s *Server) clearUndurable(key kv.Key) {
	if s.nUndurable.Load() == 0 {
		return
	}
	s.undurMu.Lock()
	if _, ok := s.undurable[key]; ok {
		delete(s.undurable, key)
		s.nUndurable.Add(-1)
	}
	s.undurMu.Unlock()
}

// settleUndurable pays a durability debt an earlier apply of key left
// behind (its memstore change went through but its log append did not):
// when key owes a log write it appends cur, the stored row, clears the debt
// and reports settled with the record's sequence. The caller holds key's
// log-order lock, must wait for seq before it acks, and records the debt
// again if that wait fails. cur is nil when the row vanished, and then
// nothing is owed.
func (s *Server) settleUndurable(key kv.Key, cur []byte) (seq uint64, settled bool, err error) {
	if s.nUndurable.Load() == 0 || cur == nil {
		return 0, false, nil
	}
	s.undurMu.Lock()
	_, owed := s.undurable[key]
	s.undurMu.Unlock()
	if !owed {
		return 0, false, nil
	}
	if seq, err = s.pers.AppendWrite(string(key), cur); err != nil {
		return 0, false, err
	}
	s.clearUndurable(key)
	return seq, true, nil
}

// readReplicaRow returns a copy of the local row (empty when absent). Rows
// that escape to quorum merging or user code always go through this copying
// decode; the RPC read handlers use readReplicaBlob instead.
func (s *Server) readReplicaRow(key kv.Key) (*kv.Row, error) {
	s.nReplicaReads.Inc()
	it, ok := s.store.Get(string(key))
	s.recordRead(key, len(it.Value))
	if !ok {
		return &kv.Row{}, nil
	}
	row, err := kv.DecodeRow(it.Value)
	if err != nil {
		return nil, fmt.Errorf("core: corrupt row %q: %w", key, err)
	}
	return row, nil
}

// emptyRowBlob is the canonical encoding of an absent row.
var emptyRowBlob = kv.EncodeRow(&kv.Row{})

// readReplicaBlob returns the local row's encoded blob without decoding it:
// the store's blob IS the wire encoding, so the read RPC handlers copy it
// straight into the response frame with no decode/re-encode round trip. The
// result aliases the store's copy — read-only and stable (the store
// replaces, never mutates, values) — and must not be written to.
func (s *Server) readReplicaBlob(key kv.Key) []byte {
	s.nReplicaReads.Inc()
	it, ok := s.store.Get(string(key))
	s.recordRead(key, len(it.Value))
	if !ok {
		return emptyRowBlob
	}
	return it.Value
}

// mergeReplicaRow folds a repair row into the local copy. Like
// applyReplicaWrites it decodes the old blob as a view and hands the store an
// owned re-encoding, so in's values are copied exactly once.
func (s *Server) mergeReplicaRow(key kv.Key, in *kv.Row) error {
	s.nRepairs.Inc()
	if gerr := s.checkWriteOwnership(key); gerr != nil {
		return gerr
	}
	changed := false
	var newBlob, curBlob []byte
	row := rowScratchPool.Get().(*kv.Row)
	defer rowScratchPool.Put(row)
	mu := s.logOrderLock(string(key))
	mu.Lock()
	err := s.store.UpdateOwned(string(key), func(old []byte, ok bool) ([]byte, bool) {
		resetScratchRow(row)
		if ok {
			if derr := kv.DecodeRowInto(row, old); derr != nil {
				resetScratchRow(row)
			}
		}
		changed = row.Merge(in)
		if !changed {
			if !ok {
				return nil, false
			}
			curBlob = old
			return old, true // same slice: UpdateOwned short-circuits
		}
		newBlob = kv.AppendRow(make([]byte, 0, kv.EncodedRowSize(row)), row)
		return newBlob, true
	})
	if err != nil {
		mu.Unlock()
		return err
	}
	if !changed {
		// The row already holds everything this delivery carries — but "the
		// memstore holds it" is not "the log holds it". If a previous apply
		// left durability debt (its log append failed after the memstore
		// accepted), this redelivery may only report success once the debt is
		// settled; otherwise a hint retires against a row a crash would lose.
		seq, settled, perr := s.settleUndurable(key, curBlob)
		mu.Unlock()
		if perr != nil || !settled {
			return perr
		}
		if perr = s.pers.WaitWrites(seq); perr != nil {
			s.noteUndurable(key)
		}
		return perr
	}
	seq, perr := s.pers.AppendWrite(string(key), newBlob)
	if perr == nil {
		s.clearUndurable(key)
	} else {
		s.noteUndurable(key)
	}
	mu.Unlock()
	if perr == nil {
		perr = s.pers.WaitWrites(seq)
	}
	if perr != nil {
		s.noteUndurable(key)
		return perr
	}
	s.markDirty(key)
	s.recordWrite(key, len(newBlob))
	s.forwardDualRow(key, in)
	return nil
}

// recordWrite and recordRead attribute one replica-side op to the key's
// vnode (load stats) and to the key itself (hot-key sketch). Both run inline
// on the memstore hot path and must stay allocation-free.
func (s *Server) recordWrite(key kv.Key, bytes int) {
	ls := s.loadStats.Load()
	if ls == nil {
		return
	}
	if r := s.mgr.Ring(); r != nil {
		vn := r.VNodeFor(key)
		ls.RecordWrite(vn)
		s.obs.RecordKey(ring.Hash64(key), int32(vn), true, bytes)
	}
}

func (s *Server) recordRead(key kv.Key, bytes int) {
	ls := s.loadStats.Load()
	if ls == nil {
		return
	}
	if r := s.mgr.Ring(); r != nil {
		vn := r.VNodeFor(key)
		ls.RecordRead(vn)
		s.obs.RecordKey(ring.Hash64(key), int32(vn), false, bytes)
	}
}

// --- dirty queue feeding the trigger scanner ---

func (s *Server) markDirty(key kv.Key) {
	s.dirtyMu.Lock()
	if !s.dirtySet[key] {
		s.dirtySet[key] = true
		s.dirtyQ = append(s.dirtyQ, key)
	}
	s.dirtyMu.Unlock()
}

// dirtySource adapts the dirty queue to trigger.Source. The paper scans
// the store's Dirty column sequentially (§IV-C); keeping an explicit queue
// of dirtied keys implements the same contract without rescanning clean
// rows, and the Dirty bit in each row still round-trips through the codec.
type dirtySource struct{ s *Server }

// ScanDirty implements trigger.Source.
func (ds dirtySource) ScanDirty(limit int, fn func(kv.Key, *kv.Row)) int {
	s := ds.s
	s.dirtyMu.Lock()
	n := len(s.dirtyQ)
	if n > limit {
		n = limit
	}
	batch := make([]kv.Key, n)
	copy(batch, s.dirtyQ[:n])
	s.dirtyQ = s.dirtyQ[n:]
	for _, k := range batch {
		delete(s.dirtySet, k)
	}
	s.dirtyMu.Unlock()

	visited := 0
	for _, key := range batch {
		it, ok := s.store.Get(string(key))
		if !ok {
			continue
		}
		row, err := kv.DecodeRow(it.Value)
		if err != nil {
			continue
		}
		fn(key, row)
		visited++
	}
	return visited
}

// --- quorum transport over the replica RPCs ---

// replicaRPC implements quorum.Transport: local fast path for self, one
// frame per call for peers. A single-key op is a frame of one.
type replicaRPC struct{ s *Server }

// WriteReplicaBatch implements quorum.Transport: local fast path for self,
// one OpReplicaWriteBatch frame for peers.
func (rt replicaRPC) WriteReplicaBatch(ctx context.Context, node ring.NodeID, items []quorum.NodeWrite) ([]error, error) {
	if node == rt.s.cfg.Node {
		obs.Mark(ctx, "replica.local_write")
		ws := make([]replicaWrite, len(items))
		for i, w := range items {
			ws[i] = replicaWrite{key: w.Key, v: w.V, mode: w.Mode}
		}
		rt.s.applyReplicaWrites(ws)
		errs := make([]error, len(ws))
		for i := range ws {
			errs[i] = ws[i].err
		}
		return errs, nil
	}
	start := time.Now()
	defer func() { rt.s.hReplicaFanout.Observe(time.Since(start)) }()
	var e wire.Enc
	e.U32(uint32(len(items)))
	for _, w := range items {
		e.Str(string(w.Key))
		EncodeVersioned(&e, w.V)
		e.U8(byte(w.Mode))
	}
	resp, err := rt.s.health.Call(ctx, string(node), transport.Message{
		Op: OpReplicaWriteBatch, Body: e.B, Trace: obs.WireContext(ctx, "rpc.write_replica"),
	})
	if err != nil {
		return nil, err
	}
	d := wire.NewDec(resp.Body)
	st := d.U16()
	detail := d.Str()
	if d.Err != nil {
		return nil, d.Err
	}
	if st != StOK {
		return nil, StatusErr(st, detail)
	}
	n := int(d.U32())
	if n != len(items) {
		return nil, fmt.Errorf("core: batch write ack count %d != %d items", n, len(items))
	}
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		ist := d.U16()
		idetail := d.Str()
		if d.Err != nil {
			return nil, d.Err
		}
		switch ist {
		case StOK:
		case StNotOwner:
			epoch := d.U64()
			rt.s.noteRemoteNotOwner(epoch)
			errs[i] = NotOwnerWithEpoch(epoch)
		default:
			errs[i] = StatusErr(ist, idetail)
		}
	}
	return errs, nil
}

// ReadReplicaBatch implements quorum.Transport.
func (rt replicaRPC) ReadReplicaBatch(ctx context.Context, node ring.NodeID, keys []kv.Key) ([]quorum.ReadAck, error) {
	if node == rt.s.cfg.Node {
		obs.Mark(ctx, "replica.local_read")
		acks := make([]quorum.ReadAck, len(keys))
		for i, k := range keys {
			row, err := rt.s.readReplicaRow(k)
			acks[i] = quorum.ReadAck{Row: row, Err: err}
		}
		return acks, nil
	}
	start := time.Now()
	defer func() { rt.s.hReplicaFanout.Observe(time.Since(start)) }()
	var e wire.Enc
	e.U32(uint32(len(keys)))
	for _, k := range keys {
		e.Str(string(k))
	}
	resp, err := rt.s.health.Call(ctx, string(node), transport.Message{
		Op: OpReplicaReadBatch, Body: e.B, Trace: obs.WireContext(ctx, "rpc.read_replica"),
	})
	if err != nil {
		return nil, err
	}
	d := wire.NewDec(resp.Body)
	st := d.U16()
	detail := d.Str()
	if d.Err != nil {
		return nil, d.Err
	}
	if st != StOK {
		return nil, StatusErr(st, detail)
	}
	n := int(d.U32())
	if n != len(keys) {
		return nil, fmt.Errorf("core: batch read ack count %d != %d keys", n, len(keys))
	}
	acks := make([]quorum.ReadAck, n)
	for i := 0; i < n; i++ {
		ist := d.U16()
		idetail := d.Str()
		// The response body is ours; decoded rows may alias it.
		blob := d.BytesView()
		if d.Err != nil {
			return nil, d.Err
		}
		if ist != StOK {
			acks[i] = quorum.ReadAck{Err: StatusErr(ist, idetail)}
			continue
		}
		row := &kv.Row{}
		if derr := kv.DecodeRowInto(row, blob); derr != nil {
			acks[i] = quorum.ReadAck{Err: derr}
			continue
		}
		acks[i] = quorum.ReadAck{Row: row}
	}
	return acks, nil
}

// RepairReplica implements quorum.Transport.
func (rt replicaRPC) RepairReplica(ctx context.Context, node ring.NodeID, key kv.Key, row *kv.Row) error {
	if node == rt.s.cfg.Node {
		return rt.s.mergeReplicaRow(key, row)
	}
	var e wire.Enc
	e.Str(string(key))
	e.Bytes(kv.EncodeRow(row))
	resp, err := rt.s.health.Call(ctx, string(node), transport.Message{
		Op: OpReplicaRepair, Body: e.B, Trace: obs.WireContext(ctx, "rpc.repair_replica"),
	})
	if err != nil {
		return err
	}
	d := wire.NewDec(resp.Body)
	st := d.U16()
	detail := d.Str()
	if st == StNotOwner {
		epoch := d.U64()
		rt.s.noteRemoteNotOwner(epoch)
		return NotOwnerWithEpoch(epoch)
	}
	if st != StOK {
		return StatusErr(st, detail)
	}
	return nil
}

// --- coordinator operations (the paper's client-visible API) ---

// CoordWrite coordinates one dotted quorum write of key from this node: it
// stamps the value with the node's hybrid clock and a freshly minted causal
// event id plus cctx, the causal context the writer had read, and runs the
// W-of-N protocol. A nil cctx is a blind write, which takes the
// coordinator's context (blindCtx); a non-nil empty cctx means the writer's
// read observed nothing. Replicas supersede exactly the values the context
// covers and retain everything concurrent as siblings, so two racing
// writers both ack and both survive until a reader resolves them. Failed
// replicas are reported as suspects, which — when the coordination service
// confirms the death — starts the recovery that re-replicates the node's
// vnodes (§III-C, §III-D).
func (s *Server) CoordWrite(ctx context.Context, key kv.Key, value []byte, mode quorum.Mode, deleted bool, source string, cctx kv.DVV) error {
	s.nCoordWrites.Inc()
	start := time.Now()
	// Reuse a trace continued from the wire (handler path) before sampling a
	// fresh one, so one client op stays one distributed trace.
	tr := obs.FromContext(ctx)
	if tr == nil {
		if tr = s.obs.SampleTrace("coord_write"); tr != nil {
			ctx = obs.WithTrace(ctx, tr)
			defer tr.Finish(s.obs)
		}
	}
	tenant := s.tenantFor(tr, key)
	outcome, failed := "ok", 0
	retargeted := false
	defer func() {
		d := time.Since(start)
		s.obs.ObserveOp(s.hCoordWrite, d, tr)
		s.finishCoordOp("coord_write", tr, key, tenant, d, outcome, failed, retargeted, true, len(value))
		if s.obs.IsSlow(d) {
			s.slowCoordOp("coord_write", tr, key, d, outcome, failed)
		}
	}()
	if source == "" {
		source = string(s.cfg.Node)
	}
	v := kv.Versioned{Value: value, TS: s.clock.Now(), Source: source, Deleted: deleted, Dot: s.mintDot(key, source)}
	if cctx == nil {
		cctx = s.blindCtx(key, source, mode, v.Dot)
	}
	v.Ctx = cctx
	replicas := s.replicasFor(key)
	if len(replicas) == 0 {
		outcome = "failure"
		return fmt.Errorf("%w: no replicas for %q", ErrFailure, key)
	}
	obs.Mark(ctx, "coord.route")
	res, err := s.engine.Write(ctx, replicas, key, v, mode)
	failed = len(res.Failed)
	// Hinted handoff happens at the engine layer (OnWriteError), which also
	// catches stragglers that fail after the quorum settled; here we only
	// report the failures the quorum saw as suspects.
	if len(res.Failed) > 0 {
		s.suspectAll(res.Failed)
	}
	if err != nil {
		// The owners may have moved mid-op (migration cutover): refresh the
		// lease once and retry against the new owner set.
		if again := s.retargetedReplicas(key, replicas); again != nil {
			obs.Mark(ctx, "coord.retarget")
			retargeted = true
			res, err = s.engine.Write(ctx, again, key, v, mode)
			failed += len(res.Failed)
			if len(res.Failed) > 0 {
				s.suspectAll(res.Failed)
			}
		}
	}
	if err != nil {
		outcome = "failure"
		return fmt.Errorf("%w: %v", ErrFailure, err)
	}
	return nil
}

// localRowClock returns the causal clock of the coordinator's local copy of
// key (nil when the key is absent): the context stamped onto blind writes.
func (s *Server) localRowClock(key kv.Key) kv.DVV {
	if it, ok := s.store.Get(string(key)); ok {
		if c, err := kv.DecodeRowClock(it.Value); err == nil {
			return c
		}
	}
	return nil
}

// blindCtx builds the causal context for a blind (no read context) write
// by source for key, where d is the dot just minted for the write.
//
// Both modes cover the writer's OWN minted history 1..d.Counter-1 directly
// from the sequencer, not from the local row: under W<N quorums the
// coordinator's local apply can lag its own ack, and a context built only
// from the lagging row would leave the writer's previous — acked — write
// uncovered, turning a sequential overwrite (or delete) into a phantom
// concurrent sibling.
//
// latest mode additionally adopts the coordinator's full local row clock:
// healthy sequential traffic supersedes whatever the coordinator has seen
// from anyone, while genuinely concurrent writes it has NOT seen stay
// uncovered and survive as siblings.
//
// all mode must NOT ship the full clock. Replicas union a write's context
// into the row clock, and read-time Merge treats covered-and-absent as
// superseded with no notion of which source retired the dot — so a context
// claiming another source's events can poison a reordered replica's clock
// into silently discarding that source's acked value. A write_all context
// therefore covers only the writer's own events: the minted range above
// plus the dots of any same-source values the local row stores (an older
// actor id for this source, e.g. from a previous boot or coordinator).
func (s *Server) blindCtx(key kv.Key, source string, mode quorum.Mode, d kv.Dot) kv.DVV {
	var c kv.DVV
	if mode == quorum.Latest {
		c = s.localRowClock(key)
	} else if it, ok := s.store.Get(string(key)); ok {
		if row, err := kv.DecodeRow(it.Value); err == nil {
			for i := range row.Values {
				if row.Values[i].Source == source {
					c.Fold(row.Values[i].Dot)
				}
			}
		}
	}
	c.ExtendBase(d.Node, d.Counter-1)
	return c
}

// dotSeqMax bounds the per-(key, actor) dot sequencer map; past it, minting
// sweeps out entries whose counters the local row already covers (reseeding
// those from the row returns the same or a later counter, so eviction is
// safe).
const dotSeqMax = 1 << 17

// dotSeqKey addresses one writer's counter stream for one key.
type dotSeqKey struct {
	key   kv.Key
	actor uint32
}

// dotActor derives the causal actor id for one writing source at this boot:
// the boot-scoped node salt mixed with the source hash. Scoping actors per
// source guarantees a counter range is owned by exactly one writer, which is
// what makes it sound for a blind write's context to cover the writer's own
// earlier counters (blindCtx) — covering them can never retire another
// source's value.
func (s *Server) dotActor(source string) uint32 {
	return s.dotNode ^ uint32(ring.Hash64(kv.Key(source)))
}

// mintDot issues the next causal event id for key written by source: dots
// are contiguous per (actor, key), which is what lets DVV clocks compact the
// observed set into a base counter. The actor id is boot-scoped (see
// Server.dotNode): a restarted coordinator is a NEW actor whose counters
// restart at 1, so it can never re-mint a dot some replica's clock already
// covers — the fatal alternative, since a covered dot is dropped as a
// replay while the write is acked. The clock carries one small entry per
// actor that ever wrote the key; the lazy reseed from the local row's clock
// keeps counters resumable within a boot after sequencer eviction.
func (s *Server) mintDot(key kv.Key, source string) kv.Dot {
	self := s.dotActor(source)
	sk := dotSeqKey{key: key, actor: self}
	s.dotMu.Lock()
	n, ok := s.dotSeq[sk]
	if !ok {
		if it, found := s.store.Get(string(key)); found {
			if row, err := kv.DecodeRow(it.Value); err == nil {
				n = row.Clock.MaxCounter(self)
			}
		}
		if s.dotSeq == nil {
			s.dotSeq = map[dotSeqKey]uint64{}
		} else if len(s.dotSeq) >= dotSeqMax {
			s.evictDotSeqLocked()
		}
	}
	n++
	s.dotSeq[sk] = n
	s.dotMu.Unlock()
	return kv.Dot{Node: self, Counter: n}
}

// evictDotSeqLocked drops sequencer entries the local row's clock already
// covers — bounded work per overflow, called with dotMu held.
func (s *Server) evictDotSeqLocked() {
	checked := 0
	for sk, n := range s.dotSeq {
		if checked >= 4096 {
			return
		}
		checked++
		if it, ok := s.store.Get(string(sk.key)); ok {
			if row, err := kv.DecodeRow(it.Value); err == nil && row.Clock.MaxCounter(sk.actor) >= n {
				delete(s.dotSeq, sk)
			}
		}
	}
}

// slowCoordOp force-retains one slow coordinator op with the routing and
// healing context an operator needs to tell a hot vnode from a dark replica.
func (s *Server) slowCoordOp(op string, tr *obs.Trace, key kv.Key, d time.Duration, outcome string, failed int) {
	so := obs.SlowOp{Op: op, Dur: d, VNode: -1, KeyHash: ring.Hash64(key), Outcome: outcome}
	if tr != nil {
		so.TraceID = tr.ID
		so.Stages = tr.Snapshot().Stages
	}
	if r := s.mgr.Ring(); r != nil {
		so.VNode = int32(r.VNodeFor(key))
	}
	tags := map[string]string{}
	if failed > 0 {
		tags["failed_replicas"] = fmt.Sprint(failed)
	}
	open := 0
	for _, st := range s.health.States() {
		if st != transport.BreakerClosed {
			open++
		}
	}
	if open > 0 {
		tags["breakers_open"] = fmt.Sprint(open)
	}
	if p := s.healer.Pending(); p > 0 {
		tags["hints_pending"] = fmt.Sprint(p)
	}
	if len(tags) > 0 {
		so.Tags = tags
	}
	s.obs.RecordSlowOp(so)
}

// CoordRead coordinates one quorum read and returns the merged row.
func (s *Server) CoordRead(ctx context.Context, key kv.Key) (*kv.Row, error) {
	s.nCoordReads.Inc()
	start := time.Now()
	tr := obs.FromContext(ctx)
	if tr == nil {
		if tr = s.obs.SampleTrace("coord_read"); tr != nil {
			ctx = obs.WithTrace(ctx, tr)
			defer tr.Finish(s.obs)
		}
	}
	tenant := s.tenantFor(tr, key)
	outcome, failed := "ok", 0
	retargeted := false
	readBytes := 0
	defer func() {
		d := time.Since(start)
		s.obs.ObserveOp(s.hCoordRead, d, tr)
		s.finishCoordOp("coord_read", tr, key, tenant, d, outcome, failed, retargeted, false, readBytes)
		if s.obs.IsSlow(d) {
			s.slowCoordOp("coord_read", tr, key, d, outcome, failed)
		}
	}()
	replicas := s.replicasFor(key)
	if len(replicas) == 0 {
		outcome = "failure"
		return nil, fmt.Errorf("%w: no replicas for %q", ErrFailure, key)
	}
	obs.Mark(ctx, "coord.route")
	res, err := s.engine.Read(ctx, replicas, key)
	failed = len(res.Failed)
	if err != nil {
		// As in CoordWrite: absorb a migration cutover with one retargeted
		// retry before reporting failure.
		if again := s.retargetedReplicas(key, replicas); again != nil {
			obs.Mark(ctx, "coord.retarget")
			retargeted = true
			res, err = s.engine.Read(ctx, again, key)
			failed += len(res.Failed)
		}
	}
	if len(res.Failed) > 0 {
		if err == nil && res.Row != nil && len(res.Row.Values) > 0 {
			// The quorum answered without the failed replicas; queue the
			// merged row so they catch up without another read.
			for _, n := range res.Failed {
				s.healer.Enqueue(n, key, res.Row)
			}
		}
		s.suspectAll(res.Failed)
	}
	if err != nil {
		outcome = "failure"
		return nil, fmt.Errorf("%w: %v", ErrFailure, err)
	}
	if res.Row != nil {
		for _, v := range res.Row.Values {
			readBytes += len(v.Value)
		}
	}
	return res.Row, nil
}

// tenantFor resolves the op's tenant tag: a tag propagated with the trace
// context wins (the origin already attributed the op); otherwise the
// registry's key-prefix rule applies, and the result is stamped onto the
// trace so downstream replica spans stitch under it.
func (s *Server) tenantFor(tr *obs.Trace, key kv.Key) string {
	if tr != nil && tr.Tenant != "" {
		return tr.Tenant
	}
	tenant := s.obs.TenantOf(string(key))
	if tr != nil {
		tr.Tenant = tenant
	}
	return tenant
}

// finishCoordOp leaves the op's introspection record: one wide event in the
// always-on flight recorder plus the per-tenant attribution row. The
// breaker/hint lookups only run on failed ops so the happy path stays a few
// atomic stores.
func (s *Server) finishCoordOp(op string, tr *obs.Trace, key kv.Key, tenant string, d time.Duration, outcome string, failed int, retargeted, write bool, bytes int) {
	ev := obs.WideEvent{
		Op:      op,
		DurNs:   int64(d),
		VNode:   -1,
		KeyHash: ring.Hash64(key),
		Tenant:  tenant,
		Outcome: outcome,
		Retries: uint32(failed),
	}
	if r := s.mgr.Ring(); r != nil {
		ev.VNode = int32(r.VNodeFor(key))
	}
	if tr != nil {
		ev.TraceID = tr.ID
	}
	if retargeted {
		ev.Flags |= obs.FlagRetargeted
	}
	if failed > 0 {
		ev.Flags |= obs.FlagReplicaFailed
		for _, st := range s.health.States() {
			if st != transport.BreakerClosed {
				ev.Flags |= obs.FlagBreakerOpen
				break
			}
		}
		if s.healer.Pending() > 0 {
			ev.Flags |= obs.FlagHintsPending
		}
	}
	s.obs.RecordOp(ev)
	s.obs.RecordTenantOp(tenant, write, bytes, d, outcome == "failure")
}

func (s *Server) replicasFor(key kv.Key) []ring.NodeID {
	r := s.mgr.Ring()
	if r == nil {
		return nil
	}
	owners := r.OwnersForKey(key)
	out := make([]ring.NodeID, 0, len(owners))
	for _, o := range owners {
		if o != "" {
			out = append(out, o)
		}
	}
	return out
}

// suspectAll verifies failed replicas against the coordination service in
// the background; confirmed deaths trigger vnode redistribution.
func (s *Server) suspectAll(failed []ring.NodeID) {
	for _, n := range failed {
		n := n
		go func() {
			if err := s.mgr.ReportSuspect(n); err != nil {
				s.logf("suspect %s: %v", n, err)
			}
		}()
	}
}

// --- vnode recovery (data migration for gained vnodes) ---

// onMoves copies data for vnodes this node gained: it fetches the vnode's
// rows from a surviving owner and merges them locally (the asynchronous
// "data duplication task" of §III-C).
func (s *Server) onMoves(moves []ring.Move) {
	if len(moves) == 0 {
		return
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for _, mv := range moves {
			select {
			case <-s.stopCh:
				return
			default:
			}
			if mv.To != s.cfg.Node {
				continue
			}
			if err := s.recoverVNode(mv.VNode); err != nil {
				s.logf("recover vnode %d: %v", mv.VNode, err)
			}
		}
	}()
}

// recoverVNode pulls one vnode's rows from any other healthy owner.
func (s *Server) recoverVNode(v ring.VNodeID) error {
	r := s.mgr.Ring()
	if r == nil {
		return errors.New("core: no ring")
	}
	var sources []ring.NodeID
	for _, o := range r.Owners(v) {
		if o != "" && o != s.cfg.Node {
			sources = append(sources, o)
		}
	}
	if len(sources) == 0 {
		return nil // nothing to copy from (fresh cluster)
	}
	var lastErr error
	for _, src := range sources {
		rows, err := s.fetchVNode(src, v)
		if err != nil {
			lastErr = err
			continue
		}
		for key, row := range rows {
			if err := s.mergeReplicaRow(key, row); err != nil {
				lastErr = err
			}
		}
		s.nRecoveries.Inc()
		return lastErr
	}
	return lastErr
}

func (s *Server) fetchVNode(src ring.NodeID, v ring.VNodeID) (map[kv.Key]*kv.Row, error) {
	var e wire.Enc
	e.U32(uint32(v))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	resp, err := s.health.Call(ctx, string(src), transport.Message{Op: OpVNodeScan, Body: e.B})
	if err != nil {
		return nil, err
	}
	d := wire.NewDec(resp.Body)
	st := d.U16()
	detail := d.Str()
	if st != StOK {
		return nil, StatusErr(st, detail)
	}
	n := int(d.U32())
	out := make(map[kv.Key]*kv.Row, n)
	for i := 0; i < n; i++ {
		key := kv.Key(d.Str())
		// Rows may alias the response body we own; merging copies them into
		// store-owned blobs.
		blob := d.BytesView()
		if d.Err != nil {
			return nil, d.Err
		}
		row := &kv.Row{}
		if err := kv.DecodeRowInto(row, blob); err != nil {
			return nil, err
		}
		out[key] = row
	}
	return out, nil
}

// --- anti-entropy sweep after confirmed deaths ---

// onDeaths receives every eviction this node's manager committed and marks
// the reassigned vnodes this node owns as dirty; the sweeper then re-merges
// them to the surviving owners at a low rate. This covers updates the dead
// node missed for which no hint survived (dropped by overflow, or the
// coordinator itself crashed).
func (s *Server) onDeaths(dead []ring.NodeID, moves []ring.Move) {
	r := s.mgr.Ring()
	if r == nil {
		return
	}
	seen := map[ring.VNodeID]bool{}
	var mine []ring.VNodeID
	for _, mv := range moves {
		if seen[mv.VNode] {
			continue
		}
		seen[mv.VNode] = true
		for _, o := range r.Owners(mv.VNode) {
			if o == s.cfg.Node {
				mine = append(mine, mv.VNode)
				break
			}
		}
	}
	if len(mine) > 0 {
		s.sweeper.MarkDirty(mine...)
		s.logf("eviction of %v dirtied %d vnodes for anti-entropy", dead, len(mine))
	}
}

// onOwnershipChange receives the vnodes whose owner set a newly adopted ring
// changed. Rows this node wrote (or quorum-acked) against the previous view
// may be invisible to the new owner set — a coordinator's lease can lag a
// join, leaving acked rows on replicas the fresh ring no longer consults —
// so every affected vnode goes through an anti-entropy re-merge.
func (s *Server) onOwnershipChange(changed []ring.VNodeID) {
	if s.sweeper == nil || len(changed) == 0 {
		return
	}
	s.sweeper.MarkDirty(changed...)
	s.logf("ring change dirtied %d vnodes for anti-entropy", len(changed))
}

// sweepVNode re-merges every local row of one vnode into the vnode's other
// current owners. Merges are idempotent, so sweeping a vnode that already
// converged is wasted bandwidth but never wrong. The vnode's ownership
// epoch is captured up front and re-checked periodically: when a migration
// cutover (or eviction) reassigns the vnode mid-sweep, the sweep stops and
// reports heal.ErrOwnershipChanged so the sweeper re-queues it against the
// new owner set instead of finishing a repair round targeted at stale peers.
func (s *Server) sweepVNode(v ring.VNodeID) error {
	r := s.mgr.Ring()
	if r == nil || s.engine == nil {
		return errors.New("core: not started")
	}
	epoch := r.EpochOf(v)
	var peers []ring.NodeID
	for _, o := range r.Owners(v) {
		if o != "" && o != s.cfg.Node {
			peers = append(peers, o)
		}
	}
	if len(peers) == 0 {
		return nil
	}
	type entry struct {
		key kv.Key
		row *kv.Row
	}
	var rows []entry
	s.store.Range(func(key string, it memstore.Item) bool {
		k := kv.Key(key)
		if r.VNodeFor(k) != v {
			return true
		}
		if row, err := kv.DecodeRow(it.Value); err == nil {
			rows = append(rows, entry{k, row})
		}
		return true
	})
	var firstErr error
	for i, e := range rows {
		if i%32 == 0 {
			if cur := s.mgr.Ring(); cur != nil && cur.EpochOf(v) != epoch {
				return heal.ErrOwnershipChanged
			}
		}
		if err := s.engine.Repair(context.Background(), peers, e.key, e.row); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// CollectTombstones removes rows whose every value is a tombstone older
// than the horizon. Deletes in Sedna are replicated tombstones (so the
// timestamp rule keeps them monotone across replicas); once a tombstone has
// been stable for longer than any plausible repair window it can be
// physically reclaimed. Returns the number of rows collected.
func (s *Server) CollectTombstones(horizon time.Duration) int {
	cutoff := time.Now().Add(-horizon).UnixNano()
	var victims []string
	s.store.Range(func(key string, it memstore.Item) bool {
		row, err := kv.DecodeRow(it.Value)
		if err != nil {
			return true
		}
		if len(row.Values) == 0 {
			victims = append(victims, key)
			return true
		}
		for _, v := range row.Values {
			if !v.Deleted || v.TS.Wall >= cutoff {
				return true
			}
		}
		victims = append(victims, key)
		return true
	})
	collected := 0
	var last uint64
	for _, key := range victims {
		mu := s.logOrderLock(key)
		mu.Lock()
		err := s.store.Update(key, func(old []byte, ok bool) ([]byte, bool) {
			if !ok {
				return nil, false
			}
			row, err := kv.DecodeRow(old)
			if err != nil {
				return old, true
			}
			// Re-check under the shard lock: a concurrent write revives
			// the row and must win.
			for _, v := range row.Values {
				if !v.Deleted || v.TS.Wall >= cutoff {
					return old, true
				}
			}
			return nil, false
		})
		if err == nil {
			if _, ok := s.store.Get(key); !ok {
				collected++
				// The deletion is logged under the key's log-order lock, so
				// a write that revives the key is logged after it; one wait
				// at the end covers the pass.
				seq, perr := s.pers.AppendWrite(key, nil)
				if perr != nil {
					s.logf("tombstone gc log: %v", perr)
				}
				last = max(last, seq)
			}
		}
		mu.Unlock()
	}
	if perr := s.pers.WaitWrites(last); perr != nil {
		s.logf("tombstone gc log: %v", perr)
	}
	if collected > 0 {
		s.logf("tombstone gc reclaimed %d rows", collected)
	}
	return collected
}
