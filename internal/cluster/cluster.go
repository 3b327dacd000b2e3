// Package cluster implements Sedna's node management (§III-D): nodes join
// by registering an ephemeral znode and claiming virtual nodes, the
// authoritative assignment lives in the coordination service and is updated
// with compare-and-swap, failures are detected through ephemeral-znode loss,
// and every surviving node can safely run the reconciliation that
// redistributes a dead node's vnodes (CAS makes the janitor work idempotent).
package cluster

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"sedna/internal/coord"
	"sedna/internal/ring"
)

// Layout fixes the znode paths Sedna uses.
type Layout struct {
	// Root is the base path, "/sedna" by default.
	Root string
}

// DefaultLayout returns the standard layout.
func DefaultLayout() Layout { return Layout{Root: "/sedna"} }

// NodesPath is the parent of the per-node ephemerals.
func (l Layout) NodesPath() string { return l.Root + "/realnodes" }

// NodePath is one node's ephemeral znode.
func (l Layout) NodePath(n ring.NodeID) string { return l.NodesPath() + "/" + string(n) }

// RingPath holds the encoded assignment table.
func (l Layout) RingPath() string { return l.Root + "/ring" }

// ImbalancePath is the parent of per-node imbalance reports.
func (l Layout) ImbalancePath() string { return l.Root + "/imbalance" }

// ImbalanceNodePath is one node's imbalance report.
func (l Layout) ImbalanceNodePath(n ring.NodeID) string {
	return l.ImbalancePath() + "/" + string(n)
}

// RebalancePath is the parent of the per-vnode migration guards.
func (l Layout) RebalancePath() string { return l.Root + "/rebalance" }

// RebalanceVNodePath is the ephemeral guard a migration orchestrator holds
// while one vnode is in flight; it serialises concurrent campaigns.
func (l Layout) RebalanceVNodePath(v ring.VNodeID) string {
	return fmt.Sprintf("%s/vnode-%d", l.RebalancePath(), v)
}

// ErrNotBootstrapped reports a join against an uninitialised layout.
var ErrNotBootstrapped = errors.New("cluster: coordination layout not bootstrapped")

// Bootstrap initialises the coordination layout for a fresh cluster: the
// base znodes plus an empty assignment table with the configured virtual
// node count (fixed for the cluster's lifetime, §III-D). It is idempotent;
// concurrent bootstrappers race benignly on ErrNodeExists.
func Bootstrap(c *coord.Client, l Layout, vnodes, replicas int) error {
	if vnodes <= 0 || replicas <= 0 {
		return fmt.Errorf("cluster: bad bootstrap parameters vnodes=%d replicas=%d", vnodes, replicas)
	}
	if err := c.EnsurePath(l.NodesPath()); err != nil {
		return err
	}
	if err := c.EnsurePath(l.ImbalancePath()); err != nil {
		return err
	}
	table := ring.NewTable(vnodes, replicas)
	blob := ring.EncodeRing(table.Snapshot())
	_, err := c.Create(l.RingPath(), blob, coord.CreateOpts{})
	if errors.Is(err, coord.ErrNodeExists) {
		return nil
	}
	return err
}

// Config parameterises a Manager.
type Config struct {
	// Node is this server's identity in the ring (its data address).
	Node ring.NodeID
	// Client is the coordination session; its ephemerals carry the
	// node's liveness.
	Client *coord.Client
	// Cache, when set, serves ring reads through the adaptive lease cache
	// so the coordination service stays off the data path.
	Cache *coord.CachedClient
	// Layout selects the znode paths.
	Layout Layout
	// ReconcileEvery is the membership reconciliation period; zero
	// selects 500ms.
	ReconcileEvery time.Duration
	// OnMoves receives the moves to this node (vnodes it gained, for data
	// migration) from a membership change this manager's own CAS committed:
	// its Join, an eviction its reconcile ran, or a confirmed ReportSuspect.
	// It is not called when the manager adopts a table a peer changed, e.g.
	// an eviction another survivor committed first; OnOwnershipChange
	// reports that change. May be nil.
	OnMoves func([]ring.Move)
	// OnDeaths fires after this node evicts confirmed-dead members, with
	// the dead nodes and every move the eviction produced (not just this
	// node's). Anti-entropy uses it to re-merge the affected vnodes. May
	// be nil.
	OnDeaths func(dead []ring.NodeID, moves []ring.Move)
	// OnOwnershipChange fires when adopting a newer assignment reveals
	// vnodes whose owner set changed and that this node owns (under either
	// view), whichever manager committed the change; every vnode this node
	// gained is among them. It does not fire for the first table a manager
	// adopts. Rows written against the old view may never have reached the
	// new owners — the write quorum settles on whatever replica set the
	// coordinator's lease showed — so the hook hands them to anti-entropy
	// for re-merging. May be nil.
	OnOwnershipChange func(changed []ring.VNodeID)
	// Logf receives diagnostics; nil disables.
	Logf func(format string, args ...any)
}

// Manager runs one node's membership lifecycle.
type Manager struct {
	cfg Config

	mu     sync.Mutex
	table  *ring.Table
	joined bool

	stop chan struct{}
	done chan struct{}
}

// NewManager returns an unjoined manager.
func NewManager(cfg Config) (*Manager, error) {
	if cfg.Node == "" {
		return nil, errors.New("cluster: Node required")
	}
	if cfg.Client == nil {
		return nil, errors.New("cluster: Client required")
	}
	if cfg.Layout.Root == "" {
		cfg.Layout = DefaultLayout()
	}
	if cfg.ReconcileEvery <= 0 {
		cfg.ReconcileEvery = 500 * time.Millisecond
	}
	return &Manager{
		cfg:  cfg,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}, nil
}

func (m *Manager) logf(format string, args ...any) {
	if m.cfg.Logf != nil {
		m.cfg.Logf("cluster[%s]: "+format, append([]any{m.cfg.Node}, args...)...)
	}
}

// Join registers the node and claims its share of virtual nodes: it creates
// the ephemeral liveness znode, then CAS-updates the assignment table until
// its AddNode lands (§III-D's start-up procedure). The returned moves are
// the vnodes this node received (all with empty From on a fresh cluster).
func (m *Manager) Join() ([]ring.Move, error) {
	l := m.cfg.Layout
	if _, _, err := m.cfg.Client.Get(l.RingPath()); err != nil {
		if errors.Is(err, coord.ErrNoNode) {
			return nil, ErrNotBootstrapped
		}
		return nil, err
	}
	// Liveness first: reconcilers must see us alive before we appear in
	// the ring, or they would immediately evict us.
	if err := m.registerLiveness(); err != nil {
		return nil, err
	}

	var ourMoves []ring.Move
	err := m.updateRing(func(t *ring.Table) []ring.Move {
		ourMoves = t.AddNode(m.cfg.Node)
		return ourMoves
	})
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	m.joined = true
	m.mu.Unlock()
	go m.reconcileLoop()
	m.logf("joined with %d moves", len(ourMoves))
	return ourMoves, nil
}

// JoinPassive registers the node's liveness WITHOUT claiming any vnodes: the
// node serves RPCs and coordinates quorum traffic but owns nothing until an
// elastic rebalance streams vnodes to it (`coordctl join`). This is how a
// scale-out node enters the cluster — data moves later, under flow control,
// instead of in one synchronous join.
func (m *Manager) JoinPassive() error {
	l := m.cfg.Layout
	if _, _, err := m.cfg.Client.Get(l.RingPath()); err != nil {
		if errors.Is(err, coord.ErrNoNode) {
			return ErrNotBootstrapped
		}
		return err
	}
	if err := m.registerLiveness(); err != nil {
		return err
	}
	// Adopt the current assignment without mutating it.
	if err := m.updateRing(func(t *ring.Table) []ring.Move { return nil }); err != nil {
		return err
	}
	m.mu.Lock()
	m.joined = true
	m.mu.Unlock()
	go m.reconcileLoop()
	m.logf("joined passively (no vnodes claimed)")
	return nil
}

// registerLiveness creates the node's ephemeral liveness znode. If the path
// already exists it belongs to a previous incarnation's session (a fast
// restart beats the old session's expiry): silently adopting it would let
// that expiry delete a LIVE node's liveness later and get it evicted, so
// the path is deleted and re-created to re-home it to our session.
func (m *Manager) registerLiveness() error {
	path := m.cfg.Layout.NodePath(m.cfg.Node)
	stamp := []byte(time.Now().UTC().Format(time.RFC3339))
	_, err := m.cfg.Client.Create(path, stamp, coord.CreateOpts{Ephemeral: true})
	if errors.Is(err, coord.ErrNodeExists) {
		m.logf("taking over leftover liveness znode %s", path)
		if derr := m.cfg.Client.Delete(path, -1); derr != nil && !errors.Is(derr, coord.ErrNoNode) {
			return fmt.Errorf("cluster: take over liveness: %w", derr)
		}
		_, err = m.cfg.Client.Create(path, stamp, coord.CreateOpts{Ephemeral: true})
	}
	if err != nil && !errors.Is(err, coord.ErrNodeExists) {
		return fmt.Errorf("cluster: register liveness: %w", err)
	}
	return nil
}

// updateRing runs a CAS loop: read table, mutate, write back with the
// version check; on ErrBadVersion the mutation is retried against the fresh
// state. A mutation returning no moves commits nothing.
func (m *Manager) updateRing(mutate func(*ring.Table) []ring.Move) error {
	l := m.cfg.Layout
	for attempt := 0; attempt < 16; attempt++ {
		blob, stat, err := m.cfg.Client.Get(l.RingPath())
		if err != nil {
			return err
		}
		snap, err := ring.DecodeRing(blob)
		if err != nil {
			return fmt.Errorf("cluster: corrupt ring znode: %w", err)
		}
		table := ring.NewTable(snap.NumVNodes(), snap.ReplicaFactor())
		if err := table.ApplySnapshot(snap); err != nil {
			return err
		}
		moves := mutate(table)
		if len(moves) == 0 {
			m.adoptTable(table)
			return nil
		}
		newBlob := ring.EncodeRing(table.Snapshot())
		_, err = m.cfg.Client.Set(l.RingPath(), newBlob, stat.Version)
		if errors.Is(err, coord.ErrBadVersion) {
			continue // lost the race; retry on fresh state
		}
		if err != nil {
			return err
		}
		m.adoptTable(table)
		if m.cfg.Cache != nil {
			m.cfg.Cache.Invalidate(l.RingPath())
		}
		return nil
	}
	return errors.New("cluster: ring CAS contention, giving up")
}

func (m *Manager) adoptTable(t *ring.Table) {
	m.mu.Lock()
	prev := m.table
	m.table = t
	var changed []ring.VNodeID
	if m.cfg.OnOwnershipChange != nil && prev != nil {
		changed = ownershipDiff(prev.Snapshot(), t.Snapshot(), m.cfg.Node)
	}
	m.mu.Unlock()
	// Outside the lock: the hook may read Ring() or call back into the
	// manager.
	if len(changed) > 0 {
		m.cfg.OnOwnershipChange(changed)
	}
}

// ownershipDiff lists the vnodes whose owner set differs between prev and
// next, restricted to vnodes `self` owns in at least one of the two views
// (only an owner holds rows worth re-merging).
func ownershipDiff(prev, next *ring.Ring, self ring.NodeID) []ring.VNodeID {
	if prev.Version() == next.Version() || prev.NumVNodes() != next.NumVNodes() {
		return nil
	}
	var changed []ring.VNodeID
	for v := 0; v < next.NumVNodes(); v++ {
		vn := ring.VNodeID(v)
		po, no := prev.Owners(vn), next.Owners(vn)
		mine, same := false, len(po) == len(no)
		for i, o := range no {
			if same && po[i] != o {
				same = false
			}
			if o == self {
				mine = true
			}
		}
		if !mine {
			for _, o := range po {
				if o == self {
					mine = true
					break
				}
			}
		}
		if mine && !same {
			changed = append(changed, vn)
		}
	}
	return changed
}

// Ring returns the node's current view of the assignment (refreshed by the
// reconcile loop); nil before Join.
func (m *Manager) Ring() *ring.Ring {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.table == nil {
		return nil
	}
	return m.table.Snapshot()
}

// RefreshRing re-reads the authoritative assignment (bypassing the lease
// cache), adopts it locally and returns the fresh snapshot. Ownership gates
// call it before rejecting a write whose vnode this node does not appear to
// own — the authoritative answer distinguishes "my lease is stale" from
// "the key really moved".
func (m *Manager) RefreshRing() (*ring.Ring, error) {
	blob, _, err := m.cfg.Client.Get(m.cfg.Layout.RingPath())
	if err != nil {
		return nil, err
	}
	snap, err := ring.DecodeRing(blob)
	if err != nil {
		return nil, err
	}
	table := ring.NewTable(snap.NumVNodes(), snap.ReplicaFactor())
	if err := table.ApplySnapshot(snap); err != nil {
		return nil, err
	}
	m.adoptTable(table)
	if m.cfg.Cache != nil {
		m.cfg.Cache.Invalidate(m.cfg.Layout.RingPath())
	}
	return snap, nil
}

// CommitMoveSlot commits one migration cutover to the authoritative
// assignment with the usual CAS loop: vnode v's slot moves from `from` to
// `to`, bumping the vnode's ownership epoch and the ring version in one
// atomic publish. ring.ErrStaleMove reports that the slot's occupant changed
// since the migration was planned (a concurrent eviction won); the caller
// abandons the move and replans.
func (m *Manager) CommitMoveSlot(v ring.VNodeID, slot int, from, to ring.NodeID) error {
	l := m.cfg.Layout
	for attempt := 0; attempt < 16; attempt++ {
		blob, stat, err := m.cfg.Client.Get(l.RingPath())
		if err != nil {
			return err
		}
		snap, err := ring.DecodeRing(blob)
		if err != nil {
			return fmt.Errorf("cluster: corrupt ring znode: %w", err)
		}
		table := ring.NewTable(snap.NumVNodes(), snap.ReplicaFactor())
		if err := table.ApplySnapshot(snap); err != nil {
			return err
		}
		if err := table.MoveSlot(v, slot, from, to); err != nil {
			return err
		}
		_, err = m.cfg.Client.Set(l.RingPath(), ring.EncodeRing(table.Snapshot()), stat.Version)
		if errors.Is(err, coord.ErrBadVersion) {
			continue
		}
		if err != nil {
			return err
		}
		m.adoptTable(table)
		if m.cfg.Cache != nil {
			m.cfg.Cache.Invalidate(l.RingPath())
		}
		return nil
	}
	return errors.New("cluster: ring CAS contention, giving up")
}

// AcquireMigrationGuard takes the per-vnode migration lock: an ephemeral
// znode that dies with this node's session, so a crashed orchestrator never
// wedges the vnode. The release func is idempotent. ErrGuardHeld reports
// that another campaign is migrating the vnode right now.
func (m *Manager) AcquireMigrationGuard(v ring.VNodeID) (release func(), err error) {
	l := m.cfg.Layout
	if err := m.cfg.Client.EnsurePath(l.RebalancePath()); err != nil {
		return nil, err
	}
	path := l.RebalanceVNodePath(v)
	_, err = m.cfg.Client.Create(path, []byte(m.cfg.Node), coord.CreateOpts{Ephemeral: true})
	if errors.Is(err, coord.ErrNodeExists) {
		return nil, fmt.Errorf("%w: vnode %d", ErrGuardHeld, v)
	}
	if err != nil {
		return nil, err
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			if derr := m.cfg.Client.Delete(path, -1); derr != nil && !errors.Is(derr, coord.ErrNoNode) {
				m.logf("release migration guard %d: %v", v, derr)
			}
		})
	}, nil
}

// ErrGuardHeld reports a migration guard owned by another campaign.
var ErrGuardHeld = errors.New("cluster: vnode migration guard held")

// Leave gracefully removes the node: its vnodes are redistributed and the
// ephemeral vanishes with the session.
func (m *Manager) Leave() error {
	m.Close()
	err := m.updateRing(func(t *ring.Table) []ring.Move {
		return t.RemoveNode(m.cfg.Node)
	})
	if err != nil {
		return err
	}
	derr := m.cfg.Client.Delete(m.cfg.Layout.NodePath(m.cfg.Node), -1)
	if derr != nil && !errors.Is(derr, coord.ErrNoNode) {
		return derr
	}
	return nil
}

// Close stops the reconcile loop without leaving the ring (crash-like
// shutdown; peers will evict us when the ephemeral expires).
func (m *Manager) Close() {
	m.mu.Lock()
	if !m.joined {
		m.mu.Unlock()
		return
	}
	m.joined = false
	m.mu.Unlock()
	close(m.stop)
	<-m.done
}

func (m *Manager) reconcileLoop() {
	defer close(m.done)
	t := time.NewTicker(m.cfg.ReconcileEvery)
	defer t.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-t.C:
		}
		if err := m.Reconcile(); err != nil {
			m.logf("reconcile: %v", err)
		}
	}
}

// Reconcile folds the coordination state into the local view: it refreshes
// the assignment table and evicts ring members whose liveness ephemeral is
// gone (§III-D: heartbeat loss makes ZooKeeper aware of the node's death;
// recovery redistributes its vnodes). Safe to call from any node — the CAS
// write makes concurrent janitors idempotent.
func (m *Manager) Reconcile() error {
	alive, err := m.listAlive()
	if err != nil {
		return err
	}
	// Refresh the local table (cheap read, usually through the cache).
	blob, _, err := m.readRing()
	if err != nil {
		return err
	}
	snap, err := ring.DecodeRing(blob)
	if err != nil {
		return err
	}
	// Self-heal before judging others: if our own liveness znode is gone
	// (session expired under load, or a restart race deleted it), peers are
	// about to evict a live node. Re-register and carry on.
	if !alive[m.cfg.Node] {
		_, ok, err := m.cfg.Client.Exists(m.cfg.Layout.NodePath(m.cfg.Node))
		if err == nil && !ok {
			m.logf("own liveness znode missing; re-registering")
			if rerr := m.registerLiveness(); rerr != nil {
				m.logf("re-register liveness: %v", rerr)
			} else {
				alive[m.cfg.Node] = true
			}
		} else if err == nil {
			alive[m.cfg.Node] = true // children cache merely stale
		}
	}
	var dead []ring.NodeID
	var confirmErr error
	for _, n := range snap.Nodes() {
		if alive[n] {
			continue
		}
		// The cached children listing can lag the ring znode (they
		// invalidate independently), so a node that just joined may appear
		// in the ring before its liveness shows up here. Like ReportSuspect,
		// confirm against the authoritative store before evicting. A failed
		// confirmation leaves the candidate in place for a later round —
		// it must not block adopting the assignment table below.
		_, ok, err := m.cfg.Client.Exists(m.cfg.Layout.NodePath(n))
		if err != nil {
			confirmErr = err
			continue
		}
		if !ok {
			dead = append(dead, n)
		}
	}
	if len(dead) == 0 {
		table := ring.NewTable(snap.NumVNodes(), snap.ReplicaFactor())
		if err := table.ApplySnapshot(snap); err != nil {
			return err
		}
		m.adoptTable(table)
		return confirmErr
	}
	m.logf("evicting dead nodes %v", dead)
	var allMoves []ring.Move
	err = m.updateRing(func(t *ring.Table) []ring.Move {
		allMoves = allMoves[:0]
		for _, n := range dead {
			allMoves = append(allMoves, t.RemoveNode(n)...)
		}
		return allMoves
	})
	if err != nil {
		return err
	}
	m.deliverMoves(allMoves)
	if m.cfg.OnDeaths != nil {
		m.cfg.OnDeaths(dead, allMoves)
	}
	return nil
}

func (m *Manager) readRing() ([]byte, coord.Stat, error) {
	l := m.cfg.Layout
	if m.cfg.Cache != nil {
		return m.cfg.Cache.Get(l.RingPath())
	}
	return m.cfg.Client.Get(l.RingPath())
}

func (m *Manager) listAlive() (map[ring.NodeID]bool, error) {
	l := m.cfg.Layout
	var names []string
	var err error
	if m.cfg.Cache != nil {
		names, err = m.cfg.Cache.Children(l.NodesPath())
	} else {
		names, err = m.cfg.Client.Children(l.NodesPath())
	}
	if err != nil {
		return nil, err
	}
	alive := make(map[ring.NodeID]bool, len(names))
	for _, n := range names {
		alive[ring.NodeID(n)] = true
	}
	return alive, nil
}

// deliverMoves forwards the moves relevant to this node (vnodes it gained).
func (m *Manager) deliverMoves(moves []ring.Move) {
	if m.cfg.OnMoves == nil {
		return
	}
	var mine []ring.Move
	for _, mv := range moves {
		if mv.To == m.cfg.Node {
			mine = append(mine, mv)
		}
	}
	if len(mine) > 0 {
		m.cfg.OnMoves(mine)
	}
}

// ReportSuspect verifies a peer suspected dead (a replica timed out or
// refused, §III-C) against the coordination service and, when the ephemeral
// is truly gone, runs the eviction immediately instead of waiting for the
// next reconcile tick.
func (m *Manager) ReportSuspect(n ring.NodeID) error {
	if n == m.cfg.Node {
		return nil
	}
	// Bypass the cache: suspicion needs the authoritative answer.
	_, ok, err := m.cfg.Client.Exists(m.cfg.Layout.NodePath(n))
	if err != nil {
		return err
	}
	if ok {
		return nil // just slow, not dead
	}
	var moves []ring.Move
	err = m.updateRing(func(t *ring.Table) []ring.Move {
		moves = t.RemoveNode(n)
		return moves
	})
	if err != nil {
		return err
	}
	m.logf("suspect %s confirmed dead, %d moves", n, len(moves))
	m.deliverMoves(moves)
	if m.cfg.OnDeaths != nil {
		m.cfg.OnDeaths([]ring.NodeID{n}, moves)
	}
	return nil
}

// PublishImbalance writes this node's imbalance row for the balancer; the
// paper keeps per-vnode statistics local and pushes only the small
// per-real-node summary (§III-B).
func (m *Manager) PublishImbalance(load ring.NodeImbalance) error {
	l := m.cfg.Layout
	path := l.ImbalanceNodePath(m.cfg.Node)
	data := encodeImbalance(load)
	_, err := m.cfg.Client.Set(path, data, -1)
	if errors.Is(err, coord.ErrNoNode) {
		_, cerr := m.cfg.Client.Create(path, data, coord.CreateOpts{Ephemeral: true})
		if errors.Is(cerr, coord.ErrNodeExists) {
			_, cerr = m.cfg.Client.Set(path, data, -1)
		}
		return cerr
	}
	return err
}

// ClusterImbalance reads every node's published imbalance row.
func (m *Manager) ClusterImbalance() ([]ring.NodeImbalance, error) {
	l := m.cfg.Layout
	names, err := m.cfg.Client.Children(l.ImbalancePath())
	if err != nil {
		return nil, err
	}
	out := make([]ring.NodeImbalance, 0, len(names))
	for _, n := range names {
		data, _, err := m.cfg.Client.Get(l.ImbalancePath() + "/" + n)
		if err != nil {
			continue // node vanished between list and read
		}
		imb, err := decodeImbalance(data)
		if err != nil {
			continue
		}
		out = append(out, imb)
	}
	return out, nil
}

// ApplyPlan commits a load-rebalance plan (primary moves produced by
// ring.PlanLoadRebalance) to the authoritative assignment with the usual
// CAS loop, then delivers this node's share of the moves for data copy.
// Moves whose source assignment changed since planning are skipped — the
// balancer replans on its next round.
func (m *Manager) ApplyPlan(plan []ring.Move) error {
	if len(plan) == 0 {
		return nil
	}
	var applied []ring.Move
	err := m.updateRing(func(t *ring.Table) []ring.Move {
		applied = applied[:0]
		snap := t.Snapshot()
		for _, mv := range plan {
			owners := snap.Owners(mv.VNode)
			if len(owners) == 0 || owners[0] != mv.From {
				continue // stale plan entry
			}
			got, err := t.MovePrimary(mv.VNode, mv.To)
			if err != nil {
				continue
			}
			applied = append(applied, got...)
		}
		return applied
	})
	if err != nil {
		return err
	}
	m.deliverMoves(applied)
	return nil
}
