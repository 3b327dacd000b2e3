package core

import (
	"context"
	"fmt"
	"time"

	"sedna/internal/kv"
	"sedna/internal/obs"
	"sedna/internal/quorum"
	"sedna/internal/ring"
	"sedna/internal/transport"
	"sedna/internal/wire"
)

// This file is the core half of the multi-key batch path: the coordinator
// operations (CoordWriteBatch / CoordReadBatch) and their RPC handlers. The
// replica side has one path for every op, single-key or batch: the frames
// in replica.go and handlers.go.

// WriteItem is one key of a coordinated batch write.
type WriteItem struct {
	Key     kv.Key
	Value   []byte
	Mode    quorum.Mode
	Deleted bool
}

// CoordWriteBatch coordinates one blind dotted quorum write per item from
// this node: every item is stamped with the node's hybrid clock and a fresh
// causal event id, and the W-of-N protocol runs per key over one frame per
// replica node. The returned slice aligns with items; a nil entry is a
// successful write, ErrFailure reports a per-key failure exactly as
// CoordWrite does. Failed replicas are reported as suspects once per batch.
func (s *Server) CoordWriteBatch(ctx context.Context, items []WriteItem, source string) []error {
	errs := make([]error, len(items))
	if len(items) == 0 {
		return errs
	}
	s.nCoordWrites.Add(uint64(len(items)))
	start := time.Now()
	defer func() { s.hCoordWrite.Observe(time.Since(start)) }()
	if source == "" {
		source = string(s.cfg.Node)
	}
	batch := make([]quorum.BatchWrite, len(items))
	for i, it := range items {
		// Blind writes take the mode-scoped coordinator context (see
		// blindCtx), so sequential batch traffic supersedes instead of
		// accumulating siblings.
		dot := s.mintDot(it.Key, source)
		batch[i] = quorum.BatchWrite{
			Key:      it.Key,
			Replicas: s.replicasFor(it.Key),
			V: kv.Versioned{Value: it.Value, TS: s.clock.Now(), Source: source, Deleted: it.Deleted,
				Dot: dot, Ctx: s.blindCtx(it.Key, source, it.Mode, dot)},
			Mode: it.Mode,
		}
	}
	obs.Mark(ctx, "coord.batch_route")
	res := s.engine.WriteBatch(ctx, batch)
	suspects := map[ring.NodeID]bool{}
	for i, r := range res {
		for _, n := range r.Failed {
			suspects[n] = true
		}
		if r.Err != nil {
			errs[i] = fmt.Errorf("%w: %v", ErrFailure, r.Err)
		}
	}
	s.suspectSet(suspects)
	return errs
}

// CoordReadBatch coordinates one quorum read per key and returns the merged
// rows aligned with keys (nil row iff the aligned error is non-nil). Keys
// whose quorum answered without some replica feed the merged row into the
// hint queue for the laggard, exactly as CoordRead does.
func (s *Server) CoordReadBatch(ctx context.Context, keys []kv.Key) ([]*kv.Row, []error) {
	rows := make([]*kv.Row, len(keys))
	errs := make([]error, len(keys))
	if len(keys) == 0 {
		return rows, errs
	}
	s.nCoordReads.Add(uint64(len(keys)))
	start := time.Now()
	defer func() { s.hCoordRead.Observe(time.Since(start)) }()
	batch := make([]quorum.BatchRead, len(keys))
	for i, k := range keys {
		batch[i] = quorum.BatchRead{Key: k, Replicas: s.replicasFor(k)}
	}
	obs.Mark(ctx, "coord.batch_route")
	res := s.engine.ReadBatch(ctx, batch)
	suspects := map[ring.NodeID]bool{}
	for i, r := range res {
		for _, n := range r.Failed {
			suspects[n] = true
		}
		if r.Err != nil {
			errs[i] = fmt.Errorf("%w: %v", ErrFailure, r.Err)
			continue
		}
		rows[i] = r.Row
		if len(r.Failed) > 0 && r.Row != nil && len(r.Row.Values) > 0 {
			// The quorum answered without the failed replicas; queue the
			// merged row so they catch up without another read.
			for _, n := range r.Failed {
				s.healer.Enqueue(n, keys[i], r.Row)
			}
		}
	}
	s.suspectSet(suspects)
	return rows, errs
}

// suspectSet verifies each failed replica once per batch.
func (s *Server) suspectSet(set map[ring.NodeID]bool) {
	if len(set) == 0 {
		return
	}
	failed := make([]ring.NodeID, 0, len(set))
	for n := range set {
		failed = append(failed, n)
	}
	s.suspectAll(failed)
}

// --- RPC handlers ---

// handleCoordWriteBatch serves the client batch write path: body is the
// source, then a vector of (key, value, mode, deleted); the response is a
// per-key status vector aligned with the request.
func (s *Server) handleCoordWriteBatch(ctx context.Context, from string, req transport.Message) (transport.Message, error) {
	if tr := s.obs.ContinueTrace(req.Trace); tr != nil {
		tr.Mark("coord.recv")
		ctx = obs.WithTrace(ctx, tr)
		defer tr.Finish(s.obs)
	}
	d := wire.NewDec(req.Body)
	source := d.Str()
	n := int(d.U32())
	if d.Err == nil && n > MaxBatchKeys {
		return errorMsg(OpCoordWriteBatch, fmt.Errorf("%w: batch of %d keys exceeds %d", ErrBadRequest, n, MaxBatchKeys)), nil
	}
	items := make([]WriteItem, 0, n)
	for i := 0; i < n; i++ {
		items = append(items, WriteItem{
			Key:     kv.Key(d.Str()),
			Value:   d.Bytes(),
			Mode:    quorum.Mode(d.U8()),
			Deleted: d.Bool(),
		})
	}
	if d.Err != nil {
		return transport.Message{}, d.Err
	}
	if source == "" {
		source = from
	}
	errs := s.CoordWriteBatch(ctx, items, source)
	e := okHeader()
	e.U32(uint32(len(errs)))
	for _, err := range errs {
		st, detail := ErrStatus(err)
		e.U16(st)
		e.Str(detail)
	}
	return transport.Message{Op: OpCoordWriteBatch, Body: e.B}, nil
}

// handleCoordReadBatch serves the client batch read path; the response is a
// per-key (status, row) vector aligned with the request.
func (s *Server) handleCoordReadBatch(ctx context.Context, from string, req transport.Message) (transport.Message, error) {
	if tr := s.obs.ContinueTrace(req.Trace); tr != nil {
		tr.Mark("coord.recv")
		ctx = obs.WithTrace(ctx, tr)
		defer tr.Finish(s.obs)
	}
	d := wire.NewDec(req.Body)
	n := int(d.U32())
	if d.Err == nil && n > MaxBatchKeys {
		return errorMsg(OpCoordReadBatch, fmt.Errorf("%w: batch of %d keys exceeds %d", ErrBadRequest, n, MaxBatchKeys)), nil
	}
	keys := make([]kv.Key, 0, n)
	for i := 0; i < n; i++ {
		keys = append(keys, kv.Key(d.Str()))
	}
	if d.Err != nil {
		return transport.Message{}, d.Err
	}
	rows, errs := s.CoordReadBatch(ctx, keys)
	e := okHeader()
	e.U32(uint32(len(keys)))
	for i := range keys {
		st, detail := ErrStatus(errs[i])
		e.U16(st)
		e.Str(detail)
		if errs[i] == nil {
			e.Bytes(kv.EncodeRow(rows[i]))
		} else {
			e.Bytes(nil)
		}
	}
	return transport.Message{Op: OpCoordReadBatch, Body: e.B}, nil
}
