package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"sedna/internal/kv"
	"sedna/internal/memstore"
	"sedna/internal/obs"
	"sedna/internal/quorum"
	"sedna/internal/ring"
	"sedna/internal/transport"
	"sedna/internal/wire"
)

// instrumented wraps an RPC handler with a server-side latency histogram.
func instrumented(h *obs.Histogram, fn transport.Handler) transport.Handler {
	return func(ctx context.Context, from string, req transport.Message) (transport.Message, error) {
		start := time.Now()
		resp, err := fn(ctx, from, req)
		h.Observe(time.Since(start))
		return resp, err
	}
}

// errStarting answers RPCs that arrive between Transport.Serve and the end
// of Start, when handler state (cluster manager, quorum engine, ...) does
// not exist yet. It maps to StFailure, so callers treat the node exactly
// like one that is down: retry elsewhere, hint what could not be delivered.
var errStarting = errors.New("core: starting")

// gated rejects an RPC until Start has finished wiring the server.
func (s *Server) gated(op uint16, fn transport.Handler) transport.Handler {
	return func(ctx context.Context, from string, req transport.Message) (transport.Message, error) {
		if !s.ready.Load() {
			return errorMsg(op, errStarting), nil
		}
		return fn(ctx, from, req)
	}
}

// errorMsg builds an error response. NotOwner rejections carry the
// responder's ring version after the detail string so the caller can
// retarget in one round trip.
func errorMsg(op uint16, err error) transport.Message {
	st, detail := ErrStatus(err)
	var e wire.Enc
	e.U16(st)
	e.Str(detail)
	if st == StNotOwner {
		epoch, _ := NotOwnerEpoch(err)
		e.U64(epoch)
	}
	return transport.Message{Op: op, Body: e.B}
}

func okHeader() *wire.Enc {
	var e wire.Enc
	e.U16(StOK)
	e.Str("")
	return &e
}

// handleCoordWrite serves the client write path: body is key, versioned
// payload fields (value, deleted), mode and source; the timestamp is
// assigned here by the coordinator's clock.
func (s *Server) handleCoordWrite(ctx context.Context, from string, req transport.Message) (transport.Message, error) {
	if tr := s.obs.ContinueTrace(req.Trace); tr != nil {
		tr.Mark("coord.recv")
		ctx = obs.WithTrace(ctx, tr)
		defer tr.Finish(s.obs)
	}
	d := wire.NewDec(req.Body)
	key := kv.Key(d.Str())
	value := d.Bytes()
	mode := quorum.Mode(d.U8())
	deleted := d.Bool()
	source := d.Str()
	// Optional trailing causal fields: pre-DVV clients simply omit them
	// (legacy timestamp semantics), new clients append a flag, an
	// explicit-context flag, and — when explicit — the writer's read
	// context. An explicit empty context is NOT a blind write: it means
	// "my read observed nothing", and the coordinator must not substitute
	// its own state (that would erase a genuinely concurrent sibling).
	causal := false
	var cctx kv.DVV
	if d.Err == nil && d.Off < len(d.B) {
		causal = d.Bool()
		if causal && d.Bool() {
			cctx = decodeCtx(d)
			if cctx == nil {
				cctx = kv.DVV{}
			}
		}
	}
	if d.Err != nil {
		return transport.Message{}, d.Err
	}
	if source == "" {
		source = from
	}
	var err error
	if causal {
		err = s.CoordWriteCausal(ctx, key, value, mode, deleted, source, cctx)
	} else {
		err = s.CoordWrite(ctx, key, value, mode, deleted, source)
	}
	if err != nil {
		return errorMsg(OpCoordWrite, err), nil
	}
	return transport.Message{Op: OpCoordWrite, Body: okHeader().B}, nil
}

// handleCoordRead serves the client read path; the response carries the
// merged row.
func (s *Server) handleCoordRead(ctx context.Context, from string, req transport.Message) (transport.Message, error) {
	if tr := s.obs.ContinueTrace(req.Trace); tr != nil {
		tr.Mark("coord.recv")
		ctx = obs.WithTrace(ctx, tr)
		defer tr.Finish(s.obs)
	}
	d := wire.NewDec(req.Body)
	key := kv.Key(d.Str())
	if d.Err != nil {
		return transport.Message{}, d.Err
	}
	row, err := s.CoordRead(ctx, key)
	if err != nil {
		return errorMsg(OpCoordRead, err), nil
	}
	e := okHeader()
	e.Bytes(kv.EncodeRow(row))
	return transport.Message{Op: OpCoordRead, Body: e.B}, nil
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

func (s *Server) handleReplicaRepair(ctx context.Context, from string, req transport.Message) (transport.Message, error) {
	if tr := s.obs.ContinueTrace(req.Trace); tr != nil {
		tr.Mark("replica.recv")
		defer tr.Finish(s.obs)
	}
	d := wire.NewDec(req.Body)
	key := kv.Key(d.Str())
	// View decode: the row aliases the pooled request frame and is merged
	// (copied into a store-owned blob) before this handler returns.
	blob := d.BytesView()
	if d.Err != nil {
		return transport.Message{}, d.Err
	}
	row := &kv.Row{}
	if err := kv.DecodeRowInto(row, blob); err != nil {
		return errorMsg(OpReplicaRepair, err), nil
	}
	if err := s.mergeReplicaRow(key, row); err != nil {
		return errorMsg(OpReplicaRepair, err), nil
	}
	return transport.Message{Op: OpReplicaRepair, Body: okHeader().B}, nil
}

// handleVNodeScan dumps the local rows belonging to one vnode, the bulk
// transfer behind replica recovery.
func (s *Server) handleVNodeScan(ctx context.Context, from string, req transport.Message) (transport.Message, error) {
	d := wire.NewDec(req.Body)
	v := ring.VNodeID(d.U32())
	if d.Err != nil {
		return transport.Message{}, d.Err
	}
	r := s.mgr.Ring()
	if r == nil {
		return errorMsg(OpVNodeScan, ErrFailure), nil
	}
	type entry struct {
		key  string
		blob []byte
	}
	// Collect references only while Range holds each shard lock: stored
	// blobs are stable (the store replaces, never mutates, values), so the
	// copies happen outside the critical section, one bounded append per
	// entry into a pre-sized response buffer.
	var entries []entry
	total := 0
	s.store.Range(func(key string, it memstore.Item) bool {
		if r.VNodeFor(kv.Key(key)) == v {
			entries = append(entries, entry{key: key, blob: it.Value})
			total += 4 + len(key) + 4 + len(it.Value)
		}
		return true
	})
	e := okHeader()
	e.B = append(make([]byte, 0, len(e.B)+4+total), e.B...)
	e.U32(uint32(len(entries)))
	for _, en := range entries {
		e.Str(en.key)
		e.Bytes(en.blob)
	}
	return transport.Message{Op: OpVNodeScan, Body: e.B}, nil
}

// handleRingGet serves the node's assignment snapshot so clients can route
// zero-hop.
func (s *Server) handleRingGet(ctx context.Context, from string, req transport.Message) (transport.Message, error) {
	r := s.mgr.Ring()
	if r == nil {
		return errorMsg(OpRingGet, ErrFailure), nil
	}
	e := okHeader()
	e.Bytes(ring.EncodeRing(r))
	return transport.Message{Op: OpRingGet, Body: e.B}, nil
}

// handleObsStats serves the node's obs.Report as JSON — the stats surface
// behind `sedna-cli stats` and the ops-plane /statsz endpoint.
func (s *Server) handleObsStats(ctx context.Context, from string, req transport.Message) (transport.Message, error) {
	blob, err := json.Marshal(s.ObsReport())
	if err != nil {
		return errorMsg(OpObsStats, err), nil
	}
	e := okHeader()
	e.Bytes(blob)
	return transport.Message{Op: OpObsStats, Body: e.B}, nil
}

// handleStats serves the server counters (debugging and the benchmarks).
func (s *Server) handleStats(ctx context.Context, from string, req transport.Message) (transport.Message, error) {
	st := s.Stats()
	e := okHeader()
	e.U64(st.CoordWrites)
	e.U64(st.CoordReads)
	e.U64(st.ReplicaWrites)
	e.U64(st.ReplicaReads)
	e.U64(st.Repairs)
	e.U64(st.Recoveries)
	e.I64(st.Store.Items)
	e.I64(st.Store.Bytes)
	e.U64(st.Trigger.Fired)
	return transport.Message{Op: OpServerStats, Body: e.B}, nil
}
