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
// operations (CoordWriteBatch / CoordReadBatch), their RPC handlers, and
// the replica-side batch frames that let quorum.Engine ship one message per
// replica node instead of one per key.

// WriteItem is one key of a coordinated batch write.
type WriteItem struct {
	Key     kv.Key
	Value   []byte
	Mode    quorum.Mode
	Deleted bool
}

// CoordWriteBatch coordinates one quorum write per item from this node:
// every item is stamped with the node's hybrid clock and the W-of-N
// protocol runs per key over one frame per replica node. The returned
// slice aligns with items; a nil entry is a successful write, ErrOutdated
// and ErrFailure report per-key verdicts exactly as CoordWrite does.
// Failed replicas are reported as suspects once per batch.
func (s *Server) CoordWriteBatch(ctx context.Context, items []WriteItem, source string) []error {
	return s.coordWriteBatch(ctx, items, source, false)
}

// CoordWriteBatchCausal is CoordWriteBatch with dotted (DVV) writes: every
// item is stamped with a fresh causal event id, so concurrent writers to
// the same keys are retained as siblings instead of racing the timestamp
// rule. Batch writes are blind (no read context).
func (s *Server) CoordWriteBatchCausal(ctx context.Context, items []WriteItem, source string) []error {
	return s.coordWriteBatch(ctx, items, source, true)
}

func (s *Server) coordWriteBatch(ctx context.Context, items []WriteItem, source string, causal bool) []error {
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
		batch[i] = quorum.BatchWrite{
			Key:      it.Key,
			Replicas: s.replicasFor(it.Key),
			V:        kv.Versioned{Value: it.Value, TS: s.clock.Now(), Source: source, Deleted: it.Deleted},
			Mode:     it.Mode,
		}
		if causal {
			// Blind dotted writes take the mode-scoped coordinator context
			// (see blindCtx), so sequential batch traffic supersedes instead
			// of accumulating siblings.
			batch[i].V.Dot = s.mintDot(it.Key, source)
			batch[i].V.Ctx = s.blindCtx(it.Key, source, it.Mode, batch[i].V.Dot)
		}
	}
	obs.Mark(ctx, "coord.batch_route")
	res := s.engine.WriteBatch(ctx, batch)
	suspects := map[ring.NodeID]bool{}
	for i, r := range res {
		for _, n := range r.Failed {
			suspects[n] = true
		}
		switch {
		case r.Err != nil:
			errs[i] = fmt.Errorf("%w: %v", ErrFailure, r.Err)
		case r.Outdated:
			errs[i] = ErrOutdated
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

// --- replica-side batch frames (quorum.BatchTransport) ---

// WriteReplicaBatch implements quorum.BatchTransport: local fast path for
// self, one OpReplicaWriteBatch frame for peers.
func (rt replicaRPC) WriteReplicaBatch(ctx context.Context, node ring.NodeID, items []quorum.NodeWrite) ([]quorum.WriteAck, error) {
	if node == rt.s.cfg.Node {
		obs.Mark(ctx, "replica.local_write_batch")
		ws := make([]replicaWrite, len(items))
		for i, w := range items {
			ws[i] = replicaWrite{key: w.Key, v: w.V, mode: w.Mode}
		}
		rt.s.applyReplicaWrites(ws)
		acks := make([]quorum.WriteAck, len(ws))
		for i := range ws {
			acks[i] = quorum.WriteAck{Status: ws[i].status, Err: ws[i].err}
		}
		return acks, nil
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
		Op: OpReplicaWriteBatch, Body: e.B, Trace: obs.WireContext(ctx, "rpc.write_replica_batch"),
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
	acks := make([]quorum.WriteAck, n)
	for i := 0; i < n; i++ {
		ist := d.U16()
		idetail := d.Str()
		if d.Err != nil {
			return nil, d.Err
		}
		switch ist {
		case StOK:
			acks[i] = quorum.WriteAck{Status: quorum.WriteOK}
		case StOutdated:
			acks[i] = quorum.WriteAck{Status: quorum.WriteOutdated}
		case StNotOwner:
			epoch := d.U64()
			rt.s.noteRemoteNotOwner(epoch)
			acks[i] = quorum.WriteAck{Err: NotOwnerWithEpoch(epoch)}
		default:
			acks[i] = quorum.WriteAck{Err: StatusErr(ist, idetail)}
		}
	}
	return acks, nil
}

// ReadReplicaBatch implements quorum.BatchTransport.
func (rt replicaRPC) ReadReplicaBatch(ctx context.Context, node ring.NodeID, keys []kv.Key) ([]quorum.ReadAck, error) {
	if node == rt.s.cfg.Node {
		obs.Mark(ctx, "replica.local_read_batch")
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
		Op: OpReplicaReadBatch, Body: e.B, Trace: obs.WireContext(ctx, "rpc.read_replica_batch"),
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
	// Optional trailing causal flag (pre-DVV clients omit it).
	causal := false
	if d.Err == nil && d.Off < len(d.B) {
		causal = d.Bool()
	}
	if d.Err != nil {
		return transport.Message{}, d.Err
	}
	if source == "" {
		source = from
	}
	var errs []error
	if causal {
		errs = s.CoordWriteBatchCausal(ctx, items, source)
	} else {
		errs = s.CoordWriteBatch(ctx, items, source)
	}
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

// handleReplicaWriteBatch applies one frame of versioned values to the
// local replica with one durability wait (applyReplicaWrites) and answers a
// per-item status vector.
func (s *Server) handleReplicaWriteBatch(ctx context.Context, from string, req transport.Message) (transport.Message, error) {
	tr := s.obs.ContinueTrace(req.Trace)
	if tr != nil {
		tr.Mark("replica.recv")
		defer tr.Finish(s.obs)
	}
	d := wire.NewDec(req.Body)
	n := int(d.U32())
	if d.Err == nil && n > MaxBatchKeys {
		return errorMsg(OpReplicaWriteBatch, fmt.Errorf("%w: batch of %d keys exceeds %d", ErrBadRequest, n, MaxBatchKeys)), nil
	}
	ws := make([]replicaWrite, 0, n)
	for i := 0; i < n; i++ {
		w := replicaWrite{key: kv.Key(d.Str())}
		// View decode: values alias the pooled request frame; every item is
		// applied (and copied into its row blob) before this handler returns.
		w.v = DecodeVersionedView(d)
		w.mode = quorum.Mode(d.U8())
		ws = append(ws, w)
	}
	if d.Err != nil {
		return transport.Message{}, d.Err
	}
	for i := range ws {
		s.clock.Observe(ws[i].v.TS)
	}
	s.applyReplicaWrites(ws)
	e := okHeader()
	e.U32(uint32(len(ws)))
	for i := range ws {
		status, err := ws[i].status, ws[i].err
		switch {
		case err != nil:
			st, detail := ErrStatus(err)
			e.U16(st)
			e.Str(detail)
			if st == StNotOwner {
				epoch, _ := NotOwnerEpoch(err)
				e.U64(epoch)
			}
		case status == quorum.WriteOK:
			e.U16(StOK)
			e.Str("")
		default:
			e.U16(StOutdated)
			e.Str("")
		}
	}
	tr.Mark("replica.applied")
	return transport.Message{Op: OpReplicaWriteBatch, Body: e.B}, nil
}

// handleReplicaReadBatch fetches one frame of local rows and answers a
// per-key (status, row) vector.
func (s *Server) handleReplicaReadBatch(ctx context.Context, from string, req transport.Message) (transport.Message, error) {
	tr := s.obs.ContinueTrace(req.Trace)
	if tr != nil {
		tr.Mark("replica.recv")
		defer tr.Finish(s.obs)
	}
	d := wire.NewDec(req.Body)
	n := int(d.U32())
	if d.Err == nil && n > MaxBatchKeys {
		return errorMsg(OpReplicaReadBatch, fmt.Errorf("%w: batch of %d keys exceeds %d", ErrBadRequest, n, MaxBatchKeys)), nil
	}
	keys := make([]kv.Key, 0, n)
	for i := 0; i < n; i++ {
		keys = append(keys, kv.Key(d.Str()))
	}
	if d.Err != nil {
		return transport.Message{}, d.Err
	}
	e := okHeader()
	e.U32(uint32(len(keys)))
	for _, k := range keys {
		// The stored blob IS the wire encoding: copy it straight into the
		// response with no decode/re-encode round trip.
		e.U16(StOK)
		e.Str("")
		e.Bytes(s.readReplicaBlob(k))
	}
	tr.Mark("replica.read")
	return transport.Message{Op: OpReplicaReadBatch, Body: e.B}, nil
}
