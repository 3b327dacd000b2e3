// Package core assembles a complete Sedna server: the local memory store
// holding versioned rows, the quorum coordinator serving client reads and
// writes (§III-C, §III-F), the replica RPC surface, node membership and
// vnode recovery (§III-D), the trigger engine (§IV) and the persistency
// manager (Table I). One Server is one "real node" of the paper.
package core

import (
	"errors"

	"sedna/internal/kv"
	"sedna/internal/transport"
	"sedna/internal/wire"
)

// Data-plane opcodes (0x03xx; the coordination service owns 0x01xx/0x02xx).
const (
	// OpCoordWrite asks the receiving node to coordinate a quorum write.
	OpCoordWrite uint16 = 0x0301
	// OpCoordRead asks the receiving node to coordinate a quorum read.
	OpCoordRead uint16 = 0x0302
	// OpReplicaWrite and OpReplicaRead are retired: never sent or served;
	// named only by benchmark/seams.go until the next benchmark-only PR.
	OpReplicaWrite uint16 = 0x0303
	OpReplicaRead  uint16 = 0x0304
	// OpReplicaRepair merges a row into the local replica.
	OpReplicaRepair uint16 = 0x0305
	// OpVNodeScan dumps the local rows of one virtual node (recovery).
	OpVNodeScan uint16 = 0x0306
	// OpRingGet returns the node's current ring snapshot (zero-hop
	// routing state for clients).
	OpRingGet uint16 = 0x0307
	// OpSubNew registers a push subscription; OpSubPoll long-polls its
	// event buffer; OpSubClose tears it down.
	OpSubNew   uint16 = 0x0308
	OpSubPoll  uint16 = 0x0309
	OpSubClose uint16 = 0x030a
	// OpServerStats returns the server's counters.
	OpServerStats uint16 = 0x030b
	// OpObsStats returns the node's full obs snapshot (JSON-encoded
	// counters, gauges and latency histograms) plus recent traces.
	OpObsStats uint16 = 0x030c
	// OpCoordWriteBatch coordinates one quorum write per carried key; the
	// response carries a per-key status vector.
	OpCoordWriteBatch uint16 = 0x030d
	// OpCoordReadBatch coordinates one quorum read per carried key; the
	// response carries a per-key status + row vector.
	OpCoordReadBatch uint16 = 0x030e
	// OpReplicaWriteBatch applies a frame of versioned values to the local
	// replica (one frame per replica node per engine call; a single-key
	// write is a frame of one).
	OpReplicaWriteBatch uint16 = 0x030f
	// OpReplicaReadBatch fetches a frame of local rows (a single-key read
	// is a frame of one).
	OpReplicaReadBatch uint16 = 0x0310
	// OpMigrateStart arms one side of a vnode migration: the recipient is
	// told to accept rows for a vnode it does not own yet, the donor is
	// told to stream its rows out and dual-write incoming mutations.
	OpMigrateStart uint16 = 0x0311
	// OpMigrateRows carries one bounded batch of a migrating vnode's rows
	// from the donor to the recipient, which merges them idempotently.
	OpMigrateRows uint16 = 0x0312
	// OpMigrateStatus reports the donor-side streaming progress of one
	// vnode migration.
	OpMigrateStatus uint16 = 0x0313
	// OpMigrateFinish concludes a migration on either side: the donor runs
	// a final catch-up pass and drops the vnode, the recipient stops
	// special-casing it. An abort flag tears the state down instead.
	OpMigrateFinish uint16 = 0x0314
	// OpRebalanceJoin asks the receiving node to pull its fair share of
	// vnodes from the cluster via online migrations (elastic scale-out).
	OpRebalanceJoin uint16 = 0x0315
	// OpRebalanceDrain asks the receiving node to migrate every vnode it
	// holds to the other members (graceful scale-in).
	OpRebalanceDrain uint16 = 0x0316
	// OpRebalanceStatus reports the node's current or last rebalance
	// campaign as JSON.
	OpRebalanceStatus uint16 = 0x0317
)

// MaxBatchKeys bounds the keys one batch frame may carry; larger batches
// are split by the client and rejected by servers (StBadRequest), which
// keeps a malformed length prefix from allocating unbounded memory.
const MaxBatchKeys = 65536

// Response statuses.
const (
	StOK uint16 = iota
	// StOutdated is the paper's "outdated" write reply: the store holds
	// something newer (§III-F.1).
	StOutdated
	// StFailure is the paper's "failure" reply: the quorum could not be
	// reached and a recovery task was scheduled.
	StFailure
	// StNotFound reports a read of a key with no live value.
	StNotFound
	// StBadRequest reports a malformed request.
	StBadRequest
	// StNoSub reports an unknown subscription id.
	StNoSub
	// StNotOwner reports a replica operation sent to a node that no longer
	// (or does not yet) own the key's vnode. The error frame carries the
	// responder's current ring version after the detail string, so the
	// caller can retarget in one round trip instead of waiting for its
	// lease to expire.
	StNotOwner
	// StOverloaded reports that a pipeline stage on the responding node
	// shed the request before it ran (transport dispatch queue full, or a
	// coordinator refusing work). The node is healthy; callers retry with
	// backoff against the same ring view and never count it as a node
	// failure.
	StOverloaded
)

// Errors surfaced by the client-facing API.
var (
	// ErrOutdated corresponds to StOutdated.
	ErrOutdated = errors.New("sedna: write outdated")
	// ErrFailure corresponds to StFailure.
	ErrFailure = errors.New("sedna: quorum failure, recovery scheduled")
	// ErrNotFound corresponds to StNotFound.
	ErrNotFound = errors.New("sedna: not found")
	// ErrBadRequest corresponds to StBadRequest.
	ErrBadRequest = errors.New("sedna: bad request")
	// ErrNoSub corresponds to StNoSub.
	ErrNoSub = errors.New("sedna: unknown subscription")
	// ErrNotOwner corresponds to StNotOwner.
	ErrNotOwner = errors.New("sedna: not an owner of this vnode")
	// ErrOverloaded corresponds to StOverloaded: the serving node shed the
	// request under load. Retry with backoff; do not retarget or penalise
	// the node's breaker.
	ErrOverloaded = errors.New("sedna: server overloaded, retry with backoff")
)

// notOwnerError carries the rejecting node's ring version alongside
// ErrNotOwner so callers can tell whether their view is behind.
type notOwnerError struct{ epoch uint64 }

func (e *notOwnerError) Error() string { return ErrNotOwner.Error() }
func (e *notOwnerError) Unwrap() error { return ErrNotOwner }
func (e *notOwnerError) Epoch() uint64 { return e.epoch }

// NotOwnerWithEpoch builds an ErrNotOwner that carries the given ring
// version.
func NotOwnerWithEpoch(epoch uint64) error { return &notOwnerError{epoch: epoch} }

// NotOwnerEpoch extracts the ring version from an ErrNotOwner chain; ok is
// false when the error is not a NotOwner rejection.
func NotOwnerEpoch(err error) (epoch uint64, ok bool) {
	var noe *notOwnerError
	if errors.As(err, &noe) {
		return noe.epoch, true
	}
	if errors.Is(err, ErrNotOwner) {
		return 0, true
	}
	return 0, false
}

// StatusErr maps a wire status to an error (nil for StOK).
func StatusErr(st uint16, detail string) error {
	var base error
	switch st {
	case StOK:
		return nil
	case StOutdated:
		base = ErrOutdated
	case StFailure:
		base = ErrFailure
	case StNotFound:
		base = ErrNotFound
	case StBadRequest:
		base = ErrBadRequest
	case StNoSub:
		base = ErrNoSub
	case StNotOwner:
		base = ErrNotOwner
	case StOverloaded:
		base = ErrOverloaded
	default:
		base = errors.New("sedna: unknown status")
	}
	if detail == "" {
		return base
	}
	return errors.Join(base, errors.New(detail))
}

// ErrStatus maps an error to a wire status.
func ErrStatus(err error) (uint16, string) {
	switch {
	case err == nil:
		return StOK, ""
	case errors.Is(err, ErrOutdated):
		return StOutdated, ""
	case errors.Is(err, ErrNotFound):
		return StNotFound, ""
	case errors.Is(err, ErrBadRequest):
		return StBadRequest, err.Error()
	case errors.Is(err, ErrNoSub):
		return StNoSub, ""
	case errors.Is(err, ErrNotOwner):
		return StNotOwner, ""
	case errors.Is(err, ErrOverloaded), errors.Is(err, transport.ErrOverloaded):
		// Pushback from a downstream stage propagates as pushback, not as
		// a quorum failure: the client should back off, not fail over.
		return StOverloaded, ""
	default:
		return StFailure, err.Error()
	}
}

// EncodeVersioned appends a Versioned — including its causal dot and
// context, which replica-side apply consumes — to the buffer.
func EncodeVersioned(e *wire.Enc, v kv.Versioned) {
	e.Bytes(v.Value)
	e.I64(v.TS.Wall)
	e.U32(v.TS.Logical)
	e.U32(v.TS.Node)
	e.Str(v.Source)
	e.Bool(v.Deleted)
	e.U32(v.Dot.Node)
	e.U64(v.Dot.Counter)
	e.Bytes(kv.EncodeDVV(v.Ctx))
}

// DecodeVersioned reads a Versioned. The Value is copied out of the buffer,
// so the result outlives d.
func DecodeVersioned(d *wire.Dec) kv.Versioned {
	v := kv.Versioned{
		Value:   d.Bytes(),
		TS:      kv.Timestamp{Wall: d.I64(), Logical: d.U32(), Node: d.U32()},
		Source:  d.Str(),
		Deleted: d.Bool(),
	}
	v.Dot.Node = d.U32()
	v.Dot.Counter = d.U64()
	v.Ctx = decodeCtx(d)
	return v
}

// DecodeVersionedView reads a Versioned whose Value ALIASES d's buffer — the
// zero-copy variant for handlers that apply the value synchronously (the
// replica write path copies it exactly once, into the re-encoded row blob)
// before the transport recycles the frame. Use DecodeVersioned anywhere the
// value is retained past the handler's return (the coordinator path queues
// values in detached quorum writes and hints).
func DecodeVersionedView(d *wire.Dec) kv.Versioned {
	v := kv.Versioned{
		Value:   d.BytesView(),
		TS:      kv.Timestamp{Wall: d.I64(), Logical: d.U32(), Node: d.U32()},
		Source:  d.Str(),
		Deleted: d.Bool(),
	}
	v.Dot.Node = d.U32()
	v.Dot.Counter = d.U64()
	v.Ctx = decodeCtx(d)
	return v
}

// decodeCtx reads an encoded causal context; a malformed context poisons
// the decoder like any other framing error.
func decodeCtx(d *wire.Dec) kv.DVV {
	b := d.BytesView()
	if d.Err != nil || len(b) == 0 {
		return nil
	}
	c, err := kv.DecodeDVV(b)
	if err != nil && d.Err == nil {
		d.Err = err
	}
	return c
}
