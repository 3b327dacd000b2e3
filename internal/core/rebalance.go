package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"sedna/internal/cluster"
	"sedna/internal/kv"
	"sedna/internal/memstore"
	"sedna/internal/rebalance"
	"sedna/internal/ring"
	"sedna/internal/transport"
	"sedna/internal/wire"
)

// This file wires the rebalance subsystem into the server: the Migrator's
// store/transport closures, the replica-write ownership gate that makes the
// dual-write window sound, the Host the campaign orchestrator drives, and
// the migration RPC handlers.
//
// Protocol recap (one vnode move, donor D → recipient R):
//
//  1. arm R (accept rows for v before owning it)
//  2. arm D (bulk copy streams out; D dual-writes every accepted mutation)
//  3. cutover: CAS the slot D→R in the coordination service (epoch bump)
//  4. finish D: clear migration state FIRST (new writes now bounce with
//     NotOwner and reroute), then one final catch-up pass, then drop rows
//  5. finish R: stop special-casing v
//
// The write gate is what makes step 3 safe: after cutover the old and new
// quorums may not overlap, so D must reject writes it would previously have
// acked — a stale-leased coordinator is told NotOwner (with the fresh ring
// version) instead of being allowed to assemble a phantom quorum.

// ownershipRefreshInterval rate-limits authoritative ring refreshes taken on
// the write path; within the window the gate answers from the current lease.
const ownershipRefreshInterval = 100 * time.Millisecond

// nodeOwns reports whether node holds any replica slot of v in r.
func nodeOwns(r *ring.Ring, v ring.VNodeID, node ring.NodeID) bool {
	for _, o := range r.Owners(v) {
		if o == node {
			return true
		}
	}
	return false
}

// ownsOrParty reports whether this node may accept writes for v under r:
// it holds a replica slot, or it is a party to a live migration of v
// (donor mid-stream, or armed recipient).
func (s *Server) ownsOrParty(r *ring.Ring, v ring.VNodeID) bool {
	if s.mig != nil && s.mig.Party(v) {
		return true
	}
	return nodeOwns(r, v, s.cfg.Node)
}

// checkWriteOwnership is the replica-write gate. A node that is neither an
// owner nor a migration party takes ONE rate-limited authoritative look at
// the coordination service (its lease may simply be stale — e.g. it just
// gained the vnode) before rejecting with NotOwner + its ring version. When
// the coordination service is unreachable the gate accepts: availability
// over strictness, matching the pre-elasticity behavior.
func (s *Server) checkWriteOwnership(key kv.Key) error {
	if s.mig == nil || s.mgr == nil {
		return nil
	}
	r := s.mgr.Ring()
	if r == nil {
		return nil
	}
	v := r.VNodeFor(key)
	if s.ownsOrParty(r, v) {
		return nil
	}
	if refreshed, fresh := s.tryRefreshOwnership(); refreshed {
		if fresh == nil {
			return nil // coordination service unreachable: accept
		}
		if s.ownsOrParty(fresh, v) {
			return nil
		}
		return NotOwnerWithEpoch(fresh.Version())
	}
	return NotOwnerWithEpoch(r.Version())
}

// tryRefreshOwnership performs one authoritative ring refresh, rate-limited
// to ownershipRefreshInterval. refreshed reports whether this call won the
// rate-limit slot; fresh is nil when the refresh itself failed.
func (s *Server) tryRefreshOwnership() (refreshed bool, fresh *ring.Ring) {
	now := time.Now().UnixNano()
	last := s.lastOwnRefresh.Load()
	if now-last < int64(ownershipRefreshInterval) || !s.lastOwnRefresh.CompareAndSwap(last, now) {
		return false, nil
	}
	r, err := s.mgr.RefreshRing()
	if err != nil {
		s.logf("ownership refresh: %v", err)
		return true, nil
	}
	return true, r
}

// noteRemoteNotOwner reacts to a peer's NotOwner rejection: when the carried
// epoch is ahead of (or incomparable to) our lease, refresh it in the
// background so the next op routes correctly.
func (s *Server) noteRemoteNotOwner(epoch uint64) {
	r := s.mgr.Ring()
	if r != nil && epoch != 0 && epoch <= r.Version() {
		return // our lease already covers that version
	}
	go s.tryRefreshOwnership()
}

// forwardDualWrite runs after a successfully applied replica write: while
// this node donates the key's vnode, the value is also queued to the
// recipient (the hint machinery provides retry/backoff for free). If a
// cutover raced the apply and this node lost the vnode mid-write, the value
// is queued to the current owners instead so it cannot strand on a replica
// about to drop its rows. The Versioned is deep-cloned: v.Value may alias a
// pooled transport frame, and the healer's coalescing merge aliases values.
func (s *Server) forwardDualWrite(key kv.Key, v kv.Versioned, latest bool) {
	if s.mig == nil || s.mgr == nil {
		return
	}
	r := s.mgr.Ring()
	if r == nil {
		return
	}
	vn := r.VNodeFor(key)
	if to, ok := s.mig.Recipient(vn); ok {
		s.mig.NoteDualWrite()
		s.healer.Enqueue(to, key, kv.RowFromWrite(v, latest))
		return
	}
	if !s.ownsOrParty(r, vn) {
		row := kv.RowFromWrite(v, latest)
		for _, o := range r.Owners(vn) {
			if o != "" && o != s.cfg.Node {
				s.healer.Enqueue(o, key, row)
			}
		}
	}
}

// forwardDualRow is forwardDualWrite for merged repair rows.
func (s *Server) forwardDualRow(key kv.Key, in *kv.Row) {
	if s.mig == nil || s.mgr == nil {
		return
	}
	r := s.mgr.Ring()
	if r == nil {
		return
	}
	vn := r.VNodeFor(key)
	if to, ok := s.mig.Recipient(vn); ok {
		s.mig.NoteDualWrite()
		s.healer.Enqueue(to, key, in.Clone())
		return
	}
	if !s.ownsOrParty(r, vn) {
		row := in.Clone()
		for _, o := range r.Owners(vn) {
			if o != "" && o != s.cfg.Node {
				s.healer.Enqueue(o, key, row)
			}
		}
	}
}

// replayHint is the healer's Replay callback. Hints parked behind a dead
// node's backoff can outlive a migration cutover, so each delivery first
// re-checks that the target still owns the key's vnode (or is the dual-write
// recipient); otherwise the hint is redirected to the current owners.
// Enqueue-from-Replay is safe: the healer calls Replay outside its lock.
func (s *Server) replayHint(ctx context.Context, node ring.NodeID, key kv.Key, row *kv.Row) error {
	if s.mgr != nil {
		if r := s.mgr.Ring(); r != nil {
			v := r.VNodeFor(key)
			recipient, dual := ring.NodeID(""), false
			if s.mig != nil {
				recipient, dual = s.mig.Recipient(v)
			}
			if !nodeOwns(r, v, node) && !(dual && recipient == node) {
				s.nHintsRedirected.Inc()
				for _, o := range r.Owners(v) {
					if o != "" && o != node {
						s.healer.Enqueue(o, key, row)
					}
				}
				return nil
			}
		}
	}
	err := replicaRPC{s}.RepairReplica(ctx, node, key, row)
	if err != nil {
		if epoch, ok := NotOwnerEpoch(err); ok {
			// The target's view is fresher than ours: adopt it and hand the
			// hint to whoever owns the vnode now.
			s.noteRemoteNotOwner(epoch)
			s.nHintsRedirected.Inc()
			if r := s.mgr.Ring(); r != nil {
				for _, o := range r.Owners(r.VNodeFor(key)) {
					if o != "" && o != node {
						s.healer.Enqueue(o, key, row)
					}
				}
			}
			return nil
		}
	}
	return err
}

// retargetedReplicas refreshes the lease after a failed quorum op and
// returns the key's new owner set iff it differs from the one just tried —
// the one-shot retry path that absorbs a migration cutover racing an op.
func (s *Server) retargetedReplicas(key kv.Key, tried []ring.NodeID) []ring.NodeID {
	refreshed, fresh := s.tryRefreshOwnership()
	if !refreshed || fresh == nil {
		return nil
	}
	now := s.replicasFor(key)
	if len(now) == 0 || sameNodes(now, tried) {
		return nil
	}
	return now
}

func sameNodes(a, b []ring.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// --- Migrator closures (store + transport surface) ---

// scanVNodeRows iterates the local rows of one vnode; blobs are stable store
// references (the store replaces, never mutates, values).
func (s *Server) scanVNodeRows(v ring.VNodeID, fn func(key string, blob []byte) bool) {
	if s.mgr == nil {
		return
	}
	r := s.mgr.Ring()
	if r == nil {
		return
	}
	s.store.Range(func(key string, it memstore.Item) bool {
		if r.VNodeFor(kv.Key(key)) != v {
			return true
		}
		return fn(key, it.Value)
	})
}

// sendMigrateRows ships one bounded batch of rows to the recipient.
func (s *Server) sendMigrateRows(ctx context.Context, to ring.NodeID, v ring.VNodeID, keys []string, blobs [][]byte) error {
	var e wire.Enc
	e.U32(uint32(v))
	e.Str(string(s.cfg.Node))
	e.U32(uint32(len(keys)))
	for i, k := range keys {
		e.Str(k)
		e.Bytes(blobs[i])
	}
	resp, err := s.health.Call(ctx, string(to), transport.Message{Op: OpMigrateRows, Body: e.B})
	if err != nil {
		return err
	}
	d := wire.NewDec(resp.Body)
	st := d.U16()
	detail := d.Str()
	if d.Err != nil {
		return d.Err
	}
	return StatusErr(st, detail)
}

// dropVNodeRows deletes the local rows of a fully migrated vnode.
func (s *Server) dropVNodeRows(v ring.VNodeID) int {
	if s.mgr == nil {
		return 0
	}
	r := s.mgr.Ring()
	if r == nil {
		return 0
	}
	var victims []string
	s.store.Range(func(key string, it memstore.Item) bool {
		if r.VNodeFor(kv.Key(key)) == v {
			victims = append(victims, key)
		}
		return true
	})
	n := 0
	var last uint64
	for _, key := range victims {
		mu := s.logOrderLock(key)
		mu.Lock()
		if s.store.Delete(key) {
			n++
			if s.pers != nil {
				seq, err := s.pers.AppendWrite(key, nil)
				if err != nil {
					s.logf("drop vnode %d, key %q: %v", v, key, err)
				}
				last = max(last, seq)
			}
		}
		mu.Unlock()
	}
	if s.pers != nil {
		if err := s.pers.WaitWrites(last); err != nil {
			s.logf("drop vnode %d: %v", v, err)
		}
	}
	return n
}

// --- rebalance.Host: local fast paths + RPC fan-out ---

// migrationRPCTimeout bounds one migration control RPC. Finish covers the
// donor's final catch-up pass, so it gets a generous bound.
const migrationRPCTimeout = 30 * time.Second

type rebalanceHost struct{ s *Server }

func (h rebalanceHost) Self() ring.NodeID { return h.s.cfg.Node }

func (h rebalanceHost) FreshRing() (*ring.Ring, error) { return h.s.mgr.RefreshRing() }

func (h rebalanceHost) MigrateStart(ctx context.Context, node ring.NodeID, v ring.VNodeID, peer ring.NodeID, recipientRole bool) error {
	if node == h.s.cfg.Node {
		if recipientRole {
			h.s.mig.ExpectRecipient(v, peer)
			return nil
		}
		return h.s.mig.StartDonor(v, peer)
	}
	var e wire.Enc
	e.U32(uint32(v))
	e.Str(string(peer))
	e.Bool(recipientRole)
	return h.call(ctx, node, OpMigrateStart, e.B, nil)
}

func (h rebalanceHost) MigrateStatus(ctx context.Context, node ring.NodeID, v ring.VNodeID) (rebalance.Status, error) {
	if node == h.s.cfg.Node {
		st, ok := h.s.mig.DonorStatus(v)
		if !ok {
			return rebalance.Status{}, ErrNotFound
		}
		return st, nil
	}
	var e wire.Enc
	e.U32(uint32(v))
	var st rebalance.Status
	err := h.call(ctx, node, OpMigrateStatus, e.B, func(d *wire.Dec) error {
		return json.Unmarshal(d.BytesView(), &st)
	})
	return st, err
}

func (h rebalanceHost) MigrateFinish(ctx context.Context, node ring.NodeID, v ring.VNodeID, abort, recipientRole bool) error {
	if node == h.s.cfg.Node {
		if recipientRole {
			h.s.mig.UnexpectRecipient(v)
			return nil
		}
		return h.s.finishDonor(ctx, v, abort)
	}
	var e wire.Enc
	e.U32(uint32(v))
	e.Bool(abort)
	e.Bool(recipientRole)
	return h.call(ctx, node, OpMigrateFinish, e.B, nil)
}

func (h rebalanceHost) Commit(v ring.VNodeID, slot int, from, to ring.NodeID) error {
	return h.s.mgr.CommitMoveSlot(v, slot, from, to)
}

func (h rebalanceHost) Guard(v ring.VNodeID) (func(), error) {
	return h.s.mgr.AcquireMigrationGuard(v)
}

func (h rebalanceHost) GuardHeld(err error) bool {
	return errors.Is(err, cluster.ErrGuardHeld)
}

func (h rebalanceHost) Recover(v ring.VNodeID) {
	if err := h.s.recoverVNode(v); err != nil {
		h.s.logf("rebalance: recover vnode %d: %v", v, err)
	}
}

// call runs one migration control RPC and decodes the ok-header (plus an
// optional payload) from the response.
func (h rebalanceHost) call(ctx context.Context, node ring.NodeID, op uint16, body []byte, payload func(*wire.Dec) error) error {
	ctx, cancel := context.WithTimeout(ctx, migrationRPCTimeout)
	defer cancel()
	resp, err := h.s.health.Call(ctx, string(node), transport.Message{Op: op, Body: body})
	if err != nil {
		return err
	}
	d := wire.NewDec(resp.Body)
	st := d.U16()
	detail := d.Str()
	if d.Err != nil {
		return d.Err
	}
	if st != StOK {
		return StatusErr(st, detail)
	}
	if payload != nil {
		return payload(d)
	}
	return nil
}

// --- migration / rebalance RPC handlers ---

func (s *Server) handleMigrateStart(ctx context.Context, from string, req transport.Message) (transport.Message, error) {
	d := wire.NewDec(req.Body)
	v := ring.VNodeID(d.U32())
	peer := ring.NodeID(d.Str())
	recipientRole := d.Bool()
	if d.Err != nil {
		return transport.Message{}, d.Err
	}
	if recipientRole {
		s.mig.ExpectRecipient(v, peer)
		return transport.Message{Op: OpMigrateStart, Body: okHeader().B}, nil
	}
	if err := s.mig.StartDonor(v, peer); err != nil {
		return errorMsg(OpMigrateStart, err), nil
	}
	return transport.Message{Op: OpMigrateStart, Body: okHeader().B}, nil
}

func (s *Server) handleMigrateRows(ctx context.Context, from string, req transport.Message) (transport.Message, error) {
	d := wire.NewDec(req.Body)
	v := ring.VNodeID(d.U32())
	src := d.Str()
	n := int(d.U32())
	if d.Err != nil {
		return transport.Message{}, d.Err
	}
	if n < 0 || n > MaxBatchKeys {
		return errorMsg(OpMigrateRows, ErrBadRequest), nil
	}
	applied := 0
	for i := 0; i < n; i++ {
		key := kv.Key(d.Str())
		// View decode: the row aliases the pooled request frame and is merged
		// (copied into a store-owned blob) before this handler returns.
		blob := d.BytesView()
		if d.Err != nil {
			return transport.Message{}, d.Err
		}
		row := &kv.Row{}
		if err := kv.DecodeRowInto(row, blob); err != nil {
			return errorMsg(OpMigrateRows, err), nil
		}
		if err := s.mergeReplicaRow(key, row); err != nil {
			return errorMsg(OpMigrateRows, err), nil
		}
		applied++
	}
	s.mig.NoteRowsReceived(applied)
	_ = v
	_ = src
	return transport.Message{Op: OpMigrateRows, Body: okHeader().B}, nil
}

func (s *Server) handleMigrateStatus(ctx context.Context, from string, req transport.Message) (transport.Message, error) {
	d := wire.NewDec(req.Body)
	v := ring.VNodeID(d.U32())
	if d.Err != nil {
		return transport.Message{}, d.Err
	}
	st, ok := s.mig.DonorStatus(v)
	if !ok {
		return errorMsg(OpMigrateStatus, ErrNotFound), nil
	}
	blob, err := json.Marshal(st)
	if err != nil {
		return errorMsg(OpMigrateStatus, err), nil
	}
	e := okHeader()
	e.Bytes(blob)
	return transport.Message{Op: OpMigrateStatus, Body: e.B}, nil
}

func (s *Server) handleMigrateFinish(ctx context.Context, from string, req transport.Message) (transport.Message, error) {
	d := wire.NewDec(req.Body)
	v := ring.VNodeID(d.U32())
	abort := d.Bool()
	recipientRole := d.Bool()
	if d.Err != nil {
		return transport.Message{}, d.Err
	}
	if recipientRole {
		s.mig.UnexpectRecipient(v)
		return transport.Message{Op: OpMigrateFinish, Body: okHeader().B}, nil
	}
	if err := s.finishDonor(ctx, v, abort); err != nil {
		return errorMsg(OpMigrateFinish, err), nil
	}
	return transport.Message{Op: OpMigrateFinish, Body: okHeader().B}, nil
}

// finishDonor completes the donor half of one migration. The orchestrator
// calls this right after committing the cutover, so the local ring view
// almost certainly lags it: refresh authoritatively first, or the migrator's
// Owned check would keep every migrated row on the donor until the next
// reconcile tick (and, since FinishDonor runs once, forever). A failed
// refresh degrades safely — the stale view keeps the rows for anti-entropy.
func (s *Server) finishDonor(ctx context.Context, v ring.VNodeID, abort bool) error {
	if !abort {
		if _, err := s.mgr.RefreshRing(); err != nil {
			s.logf("finish donor vnode %d: ring refresh failed (%v); keeping rows", v, err)
		}
	}
	return s.mig.FinishDonor(ctx, v, abort)
}

func (s *Server) handleRebalanceJoin(ctx context.Context, from string, req transport.Message) (transport.Message, error) {
	if err := s.reb.StartJoin(); err != nil {
		// A campaign that cannot start (busy, nothing to plan, no room) is
		// the caller's problem, not a replication failure.
		return errorMsg(OpRebalanceJoin, fmt.Errorf("%w: %v", ErrBadRequest, err)), nil
	}
	return transport.Message{Op: OpRebalanceJoin, Body: okHeader().B}, nil
}

func (s *Server) handleRebalanceDrain(ctx context.Context, from string, req transport.Message) (transport.Message, error) {
	if err := s.reb.StartDrain(); err != nil {
		return errorMsg(OpRebalanceDrain, fmt.Errorf("%w: %v", ErrBadRequest, err)), nil
	}
	return transport.Message{Op: OpRebalanceDrain, Body: okHeader().B}, nil
}

func (s *Server) handleRebalanceStatus(ctx context.Context, from string, req transport.Message) (transport.Message, error) {
	c, ok := s.reb.Status()
	if !ok {
		return errorMsg(OpRebalanceStatus, ErrNotFound), nil
	}
	blob, err := json.Marshal(c)
	if err != nil {
		return errorMsg(OpRebalanceStatus, err), nil
	}
	e := okHeader()
	e.Bytes(blob)
	return transport.Message{Op: OpRebalanceStatus, Body: e.B}, nil
}

// Migrator exposes the node's migration engine (tests and diagnostics).
func (s *Server) Migrator() *rebalance.Migrator { return s.mig }

// Rebalancer exposes the node's campaign orchestrator (tests, CLI paths).
func (s *Server) Rebalancer() *rebalance.Rebalancer { return s.reb }
