package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sedna/internal/cluster"
	"sedna/internal/coord"
	"sedna/internal/heal"
	"sedna/internal/kv"
	"sedna/internal/memstore"
	"sedna/internal/obs"
	"sedna/internal/persist"
	"sedna/internal/quorum"
	"sedna/internal/rebalance"
	"sedna/internal/ring"
	"sedna/internal/transport"
	"sedna/internal/trigger"
)

// Config parameterises one Sedna server (one "real node").
type Config struct {
	// Node is the node's identity; it must equal the transport address
	// other nodes dial.
	Node ring.NodeID
	// Transport serves the data plane and dials peers.
	Transport transport.Transport
	// CoordServers lists the coordination ensemble addresses.
	CoordServers []string
	// CoordCaller dials the ensemble; nil selects Transport.
	CoordCaller transport.Caller
	// SessionTimeout is the liveness session expiry; zero selects 5s.
	// Heartbeat loss past this is how the cluster learns the node died
	// (§III-D).
	SessionTimeout time.Duration
	// Quorum fixes N/R/W; zero selects the paper's 3/2/2.
	Quorum quorum.Config
	// SiblingCap bounds the concurrent sibling fan-out a causal (DVV) row
	// retains; past it the causally oldest siblings are evicted
	// deterministically and the row's Obs witness counts them. Zero
	// selects kv.DefaultSiblingCap.
	SiblingCap int
	// MemoryLimit caps the local store; zero selects 64 MiB.
	MemoryLimit int64
	// Persist selects the durability strategy (default: None).
	Persist persist.Config
	// Bootstrap initialises the coordination layout when missing, with
	// VNodes virtual nodes (fixed forever, §III-D). Zero VNodes selects
	// 128.
	Bootstrap bool
	VNodes    int
	// Passive joins the cluster without claiming any vnodes: the node
	// serves RPCs and watches the ring but holds no data until an explicit
	// rebalance campaign (coordctl join) migrates vnodes onto it. This is
	// how elastic scale-out adds capacity without the thundering handoff
	// an eager join would trigger.
	Passive bool
	// ScanEvery, TriggerInterval and TriggerWorkers tune the trigger
	// engine (zero selects 10ms / 100ms / 4).
	ScanEvery       time.Duration
	TriggerInterval time.Duration
	TriggerWorkers  int
	// ReconcileEvery tunes membership reconciliation; zero selects 500ms.
	ReconcileEvery time.Duration
	// PublishEvery tunes imbalance publication; zero selects 2s.
	PublishEvery time.Duration
	// SubIdleTimeout garbage-collects subscriptions nobody polls; zero
	// selects 2 minutes.
	SubIdleTimeout time.Duration
	// Breaker tunes the per-node health breakers gating every replica
	// call; zero fields select the transport defaults (5 consecutive
	// failures open, 1s cooldown, 1 half-open probe).
	Breaker transport.BreakerConfig
	// HintCapacity bounds each per-node hint queue of the failure healer;
	// zero selects 1024.
	HintCapacity int
	// HintReplayBackoff is the base backoff between hint-replay probes to
	// a dark node; zero selects 100ms.
	HintReplayBackoff time.Duration
	// SweepEvery paces the anti-entropy sweep (one dirty vnode re-merged
	// per tick); zero selects 250ms.
	SweepEvery time.Duration
	// Obs receives the node's metrics and traces; nil creates a private
	// registry (reachable via Server.Obs) so instrumentation is always on.
	Obs *obs.Registry
	// SlowOpThreshold is the latency above which coordinator ops are
	// force-retained in the slow-op event log regardless of trace sampling;
	// zero selects 250ms, negative disables the log.
	SlowOpThreshold time.Duration
	// TenantRule derives a tenant tag from each key for per-tenant
	// attribution: "" (disabled, the default), "dataset", "table", or
	// "prefix:N" (see obs.ParseTenantRule).
	TenantRule string
	// WatchdogEvery paces the anomaly watchdog over obs snapshots; zero
	// selects 2s, negative disables the watchdog.
	WatchdogEvery time.Duration
	// Logf receives diagnostics; nil disables.
	Logf func(format string, args ...any)
}

// Stats aggregates a server's counters.
type Stats struct {
	CoordWrites   uint64
	CoordReads    uint64
	ReplicaWrites uint64
	ReplicaReads  uint64
	Repairs       uint64
	Recoveries    uint64
	Store         memstore.Stats
	Trigger       trigger.Stats
}

// Server is one Sedna node.
type Server struct {
	cfg   Config
	store *memstore.Store
	clock *kv.Clock

	coordCli *coord.Client
	cache    *coord.CachedClient
	mgr      *cluster.Manager
	engine   *quorum.Engine
	trig     *trigger.Engine
	pers     *persist.Manager
	health   *transport.HealthCaller
	healer   *heal.Healer
	sweeper  *heal.Sweeper
	mig      *rebalance.Migrator
	reb      *rebalance.Rebalancer
	watchdog *obs.Watchdog

	// lastOwnRefresh rate-limits authoritative ring refreshes taken by the
	// write-ownership gate (unix nanos of the last attempt).
	lastOwnRefresh atomic.Int64

	// ready gates inbound RPCs: the transport must serve before the cluster
	// join (peers stream us data during it), but most handlers dereference
	// state that only exists once Start completes — a ring_get arriving in
	// that window used to segfault the node. Until ready, handlers answer
	// StFailure and callers retry/hint exactly as for a down node.
	ready atomic.Bool

	// loadStats is set once by Start; the replica hot path reads it with
	// one atomic load.
	loadStats atomic.Pointer[ring.LoadStats]

	mu      sync.Mutex
	started bool
	closed  bool

	dirtyMu  sync.Mutex
	dirtyQ   []kv.Key
	dirtySet map[kv.Key]bool

	// dotMu guards the per-(key, actor) causal event sequencer behind
	// mintDot. dotNode seeds this boot's causal actor ids: the node-name
	// hash salted with per-process randomness, further mixed per writing
	// source (see dotActor). Boot-scoping means a restarted coordinator
	// that lost its sequencer (and possibly its store) can never re-mint
	// a counter some replica's clock already covers — a covered dot is
	// treated as a replay and silently dropped, which would turn every
	// post-restart collision into an acked-but-lost write. Source-scoping
	// means every counter range belongs to exactly one writer, so a blind
	// write's context may cover the writer's own minted history without
	// ever claiming another source's events.
	dotMu   sync.Mutex
	dotNode uint32
	dotSeq  map[dotSeqKey]uint64

	// undurable tracks keys whose stored row is ahead of the write-ahead
	// log (the log refused the blob after the memstore accepted it); a
	// retry duplicate must settle this debt before it may ack. nUndurable
	// keeps the happy path to one atomic load.
	undurMu    sync.Mutex
	undurable  map[kv.Key]struct{}
	nUndurable atomic.Int64

	// logOrder holds, per key stripe, a row change together with the
	// append of its log record (logOrderLock).
	logOrder [logOrderStripes]sync.Mutex

	subs *subRegistry

	stopCh chan struct{}
	wg     sync.WaitGroup

	obs                           *obs.Registry
	nCoordWrites, nCoordReads     *obs.Counter
	nReplicaWrites, nReplicaReads *obs.Counter
	nRepairs, nRecoveries         *obs.Counter
	nHintsRedirected              *obs.Counter
	hCoordWrite, hCoordRead       *obs.Histogram
	hReplicaFanout                *obs.Histogram
}

// NewServer builds a stopped server.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Node == "" {
		return nil, errors.New("core: Node required")
	}
	if cfg.Transport == nil {
		return nil, errors.New("core: Transport required")
	}
	if len(cfg.CoordServers) == 0 {
		return nil, errors.New("core: CoordServers required")
	}
	if cfg.CoordCaller == nil {
		cfg.CoordCaller = cfg.Transport
	}
	if cfg.SessionTimeout <= 0 {
		cfg.SessionTimeout = 5 * time.Second
	}
	if cfg.Quorum.N == 0 {
		cfg.Quorum = quorum.DefaultConfig()
	}
	if cfg.VNodes <= 0 {
		cfg.VNodes = 128
	}
	if cfg.ReconcileEvery <= 0 {
		cfg.ReconcileEvery = 500 * time.Millisecond
	}
	if cfg.PublishEvery <= 0 {
		cfg.PublishEvery = 2 * time.Second
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.NewRegistry()
	}
	cfg.Obs.SetNode(string(cfg.Node))
	switch {
	case cfg.SlowOpThreshold == 0:
		cfg.Obs.SetSlowOpThreshold(250 * time.Millisecond)
	case cfg.SlowOpThreshold > 0:
		cfg.Obs.SetSlowOpThreshold(cfg.SlowOpThreshold)
	}
	tenantRule, err := obs.ParseTenantRule(cfg.TenantRule)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	cfg.Obs.SetTenantRule(tenantRule)
	s := &Server{
		cfg:      cfg,
		store:    memstore.New(memstore.Config{MemoryLimit: cfg.MemoryLimit}),
		clock:    kv.NewClock(uint32(ring.Hash64(kv.Key(cfg.Node)))),
		dotNode:  uint32(ring.Hash64(kv.Key(cfg.Node))) ^ rand.Uint32(),
		dirtySet: map[kv.Key]bool{},
		stopCh:   make(chan struct{}),

		obs:              cfg.Obs,
		nCoordWrites:     cfg.Obs.Counter("core.coord_writes"),
		nCoordReads:      cfg.Obs.Counter("core.coord_reads"),
		nReplicaWrites:   cfg.Obs.Counter("core.replica_writes"),
		nReplicaReads:    cfg.Obs.Counter("core.replica_reads"),
		nRepairs:         cfg.Obs.Counter("core.repairs"),
		nRecoveries:      cfg.Obs.Counter("core.recoveries"),
		nHintsRedirected: cfg.Obs.Counter("rebalance.hints_redirected"),
		hCoordWrite:      cfg.Obs.Histogram("client_ops.write"),
		hCoordRead:       cfg.Obs.Histogram("client_ops.read"),
		hReplicaFanout:   cfg.Obs.Histogram("replica.fanout"),
	}
	s.subs = newSubRegistry(s)

	// Failure-healing pipeline: every replica call goes through a per-node
	// circuit breaker; failed writes and repairs queue as hints replayed in
	// the background; eviction-dirtied vnodes re-merge via the sweeper. All
	// three exist from construction so hints survive a slow Start, and the
	// loops only run between Start and Close.
	s.health = transport.NewHealthCaller(cfg.Transport, cfg.Breaker)
	s.health.Instrument(cfg.Obs)
	healer, err := heal.New(heal.Config{
		// replayHint re-checks ownership before delivering: hints parked
		// behind a dead node's backoff can outlive a migration cutover, in
		// which case they redirect to the vnode's current owners.
		Replay:        s.replayHint,
		QueueCapacity: cfg.HintCapacity,
		BaseBackoff:   cfg.HintReplayBackoff,
		ReplayTimeout: cfg.Quorum.Timeout,
		Seed:          int64(ring.Hash64(kv.Key(cfg.Node))),
		Obs:           cfg.Obs,
		Logf:          cfg.Logf,
	})
	if err != nil {
		return nil, err
	}
	s.healer = healer
	s.sweeper, err = heal.NewSweeper(heal.SweepConfig{
		Sweep: s.sweepVNode,
		Every: cfg.SweepEvery,
		Obs:   cfg.Obs,
		Logf:  cfg.Logf,
	})
	if err != nil {
		return nil, err
	}
	// Migration engine and campaign orchestrator. Both exist from
	// construction so the rebalance.* counters appear in every metrics
	// snapshot; the closures nil-check s.mgr because migrations can only
	// be armed after Start.
	s.mig = rebalance.NewMigrator(rebalance.MigratorConfig{
		Self: cfg.Node,
		Scan: s.scanVNodeRows,
		Send: s.sendMigrateRows,
		Drop: s.dropVNodeRows,
		Owned: func(v ring.VNodeID) bool {
			if s.mgr == nil {
				return true // unknown: keep the rows
			}
			r := s.mgr.Ring()
			if r == nil {
				return true
			}
			return nodeOwns(r, v, cfg.Node)
		},
		MarkDirty: func(v ring.VNodeID) { s.sweeper.MarkDirty(v) },
		Obs:       cfg.Obs,
		Logf:      cfg.Logf,
	})
	s.reb = rebalance.NewRebalancer(rebalance.RebalancerConfig{
		Host: rebalanceHost{s},
		Obs:  cfg.Obs,
		Logf: cfg.Logf,
	})
	s.health.OnStateChange = func(addr string, from, to transport.BreakerState) {
		s.logf("breaker %s: %s -> %s", addr, from, to)
		if to == transport.BreakerClosed {
			// The node answered again: drain its hint queue immediately.
			s.healer.NotifyAlive(ring.NodeID(addr))
		}
	}
	return s, nil
}

// Obs returns the node's metric registry.
func (s *Server) Obs() *obs.Registry { return s.obs }

// ObsSnapshot publishes the point-in-time gauges (memstore occupancy, slab
// usage, trigger queue depth) and captures the registry. This is what the
// STATS RPC serves.
func (s *Server) ObsSnapshot() obs.Snapshot {
	s.store.PublishObs(s.obs)
	if s.trig != nil {
		s.trig.PublishObs()
	}
	return s.obs.Snapshot()
}

// ObsReport publishes the point-in-time gauges and captures the node's full
// stats surface — snapshot, recent traces and the slow-op log — as the one
// shape every stats consumer renders (OpObsStats, the CLI, the ops plane).
func (s *Server) ObsReport() obs.Report {
	s.store.PublishObs(s.obs)
	if s.trig != nil {
		s.trig.PublishObs()
	}
	return s.obs.Report()
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf("sedna[%s]: "+format, append([]any{s.cfg.Node}, args...)...)
	}
}

// Start brings the node up: recover persisted state, serve RPCs, join the
// cluster (claiming vnodes), and start the trigger engine and background
// loops. The startup order follows §III-D: local storage first, then the
// coordination connection, then the Sedna service.
func (s *Server) Start() error {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return errors.New("core: already started")
	}
	s.started = true
	s.mu.Unlock()

	// 1. Local storage and persisted state. The manager shares the node's
	// metrics registry (wal.*, persist.*) and recovers in parallel: the
	// store's sharded locks make the apply callback safe from multiple
	// goroutines, so replay fans out per key shard.
	pcfg := s.cfg.Persist
	pcfg.Obs = s.obs
	if pcfg.RecoveryWorkers == 0 {
		pcfg.RecoveryWorkers = runtime.GOMAXPROCS(0)
	}
	pers, err := persist.NewManager(pcfg, snapshotSource{s})
	if err != nil {
		return err
	}
	s.pers = pers
	recoverStart := time.Now()
	err = pers.Recover(func(key string, blob []byte) error {
		if blob == nil {
			s.store.Delete(key)
			return nil
		}
		// Deliberately the copying Set, not SetOwned: replayed blobs alias
		// whole WAL segment buffers, which adoption would pin in memory.
		return s.store.Set(key, blob, 0, 0)
	})
	if err != nil {
		return fmt.Errorf("core: recover: %w", err)
	}
	if s.cfg.Persist.Strategy != persist.None {
		s.logf("recovered %d keys in %s", s.store.Len(), time.Since(recoverStart).Round(time.Millisecond))
	}

	// 2. RPC surface. The transport joins the node's registry when it can
	// (real TCP; the simulated transport has no instrumentation), and every
	// handler is wrapped in a per-opcode server-side latency histogram.
	if t, ok := s.cfg.Transport.(interface{ Instrument(*obs.Registry) }); ok {
		t.Instrument(s.obs)
	}
	// The transport's own diagnostics (protocol violations, slow-consumer
	// kills) route through the node's logger when both sides support it.
	if lt, ok := s.cfg.Transport.(interface{ SetLogf(func(string, ...any)) }); ok && s.cfg.Logf != nil {
		lt.SetLogf(s.logf)
	}
	mux := transport.NewMux()
	for _, reg := range []struct {
		op   uint16
		name string
		h    transport.Handler
	}{
		{OpCoordWrite, "coord_write", s.handleCoordWrite},
		{OpCoordRead, "coord_read", s.handleCoordRead},
		{OpCoordWriteBatch, "coord_write_batch", s.handleCoordWriteBatch},
		{OpCoordReadBatch, "coord_read_batch", s.handleCoordReadBatch},
		{OpReplicaWriteBatch, "replica_write_batch", s.handleReplicaWriteBatch},
		{OpReplicaReadBatch, "replica_read_batch", s.handleReplicaReadBatch},
		{OpReplicaRepair, "replica_repair", s.handleReplicaRepair},
		{OpVNodeScan, "vnode_scan", s.handleVNodeScan},
		{OpRingGet, "ring_get", s.handleRingGet},
		{OpSubNew, "sub_new", s.subs.handleNew},
		{OpSubPoll, "sub_poll", s.subs.handlePoll},
		{OpSubClose, "sub_close", s.subs.handleClose},
		{OpServerStats, "server_stats", s.handleStats},
		{OpObsStats, "obs_stats", s.handleObsStats},
		{OpMigrateStart, "migrate_start", s.handleMigrateStart},
		{OpMigrateRows, "migrate_rows", s.handleMigrateRows},
		{OpMigrateStatus, "migrate_status", s.handleMigrateStatus},
		{OpMigrateFinish, "migrate_finish", s.handleMigrateFinish},
		{OpRebalanceJoin, "rebalance_join", s.handleRebalanceJoin},
		{OpRebalanceDrain, "rebalance_drain", s.handleRebalanceDrain},
		{OpRebalanceStatus, "rebalance_status", s.handleRebalanceStatus},
	} {
		mux.HandleFunc(reg.op, instrumented(s.obs.Histogram("rpc.server."+reg.name), s.gated(reg.op, reg.h)))
	}
	if err := s.cfg.Transport.Serve(mux.Handle); err != nil {
		return err
	}

	// 3. Coordination session, layout and membership.
	s.coordCli, err = coord.Dial(coord.ClientConfig{
		Servers:        s.cfg.CoordServers,
		Caller:         s.cfg.CoordCaller,
		SessionTimeout: s.cfg.SessionTimeout,
	})
	if err != nil {
		return fmt.Errorf("core: coord dial: %w", err)
	}
	s.cache, err = coord.NewCachedClient(s.coordCli, coord.CacheConfig{Obs: s.obs})
	if err != nil {
		return err
	}
	if s.cfg.Bootstrap {
		if err := cluster.Bootstrap(s.coordCli, cluster.DefaultLayout(), s.cfg.VNodes, s.cfg.Quorum.N); err != nil {
			return fmt.Errorf("core: bootstrap: %w", err)
		}
	}
	s.mgr, err = cluster.NewManager(cluster.Config{
		Node:              s.cfg.Node,
		Client:            s.coordCli,
		Cache:             s.cache,
		ReconcileEvery:    s.cfg.ReconcileEvery,
		OnMoves:           s.onMoves,
		OnDeaths:          s.onDeaths,
		OnOwnershipChange: s.onOwnershipChange,
		Logf:              s.cfg.Logf,
	})
	if err != nil {
		return err
	}
	var moves []ring.Move
	if s.cfg.Passive {
		if err := s.mgr.JoinPassive(); err != nil {
			return fmt.Errorf("core: passive join: %w", err)
		}
	} else {
		moves, err = s.mgr.Join()
		if err != nil {
			return fmt.Errorf("core: join: %w", err)
		}
	}
	s.loadStats.Store(ring.NewLoadStats(s.mgr.Ring().NumVNodes()))

	// 4. Quorum engine over the replica RPCs.
	s.engine, err = quorum.NewEngine(s.cfg.Quorum, replicaRPC{s})
	if err != nil {
		return err
	}
	s.engine.Instrument(s.obs)
	// Failed repair deliveries become hints so healing never depends on a
	// later read of the same key.
	s.engine.OnRepairError(func(node ring.NodeID, key kv.Key, row *kv.Row) {
		s.healer.Enqueue(node, key, row)
	})
	// Hinted handoff: every replica write that ultimately failed — including
	// stragglers that miss the quorum's early return — is queued for replay
	// once the node answers again (§III-C).
	s.engine.OnWriteError(func(node ring.NodeID, key kv.Key, v kv.Versioned, mode quorum.Mode) {
		// RowFromWrite folds a dotted write's dot (and, for write_latest,
		// its context) into the hint row's clock, so hint delivery by Merge
		// performs the same causal supersession the missed ApplyCausal
		// would have.
		s.healer.Enqueue(node, key, kv.RowFromWrite(v, mode == quorum.Latest))
	})

	// 5. Trigger engine.
	s.trig, err = trigger.NewEngine(trigger.Config{
		Source:          dirtySource{s},
		Write:           s.triggerWrite,
		ScanEvery:       s.cfg.ScanEvery,
		DefaultInterval: s.cfg.TriggerInterval,
		Workers:         s.cfg.TriggerWorkers,
		Obs:             s.obs,
		Logf:            s.cfg.Logf,
	})
	if err != nil {
		return err
	}
	s.trig.Start()

	// 6. Background work: data for vnodes gained at join, persistence,
	// imbalance publication, anomaly watchdog.
	s.onMoves(moves)
	s.pers.Start()
	s.healer.Start()
	s.sweeper.Start()
	s.wg.Add(1)
	go s.publishLoop()
	if s.cfg.WatchdogEvery >= 0 {
		s.watchdog = obs.NewWatchdog(obs.WatchdogConfig{
			Registry:  s.obs,
			Every:     s.cfg.WatchdogEvery,
			Imbalance: s.vnodeImbalanceRatio,
			// The persistence degraded flag (sticky fsync failure) surfaces
			// through the watchdog so /healthz degraded_reasons names it.
			Probes: map[string]func() bool{
				"wal_durability_degraded": func() bool { return s.pers != nil && s.pers.Degraded() },
			},
		})
		s.watchdog.Start()
	}
	s.ready.Store(true)
	s.logf("started with %d vnode moves", len(moves))
	return nil
}

// Watchdog exposes the anomaly watchdog (nil when disabled; tests drive
// Tick directly for determinism).
func (s *Server) Watchdog() *obs.Watchdog { return s.watchdog }

// vnodeImbalanceRatio reports max/mean per-vnode op load on this node (0
// when idle or before join) — the watchdog's load-imbalance signal.
func (s *Server) vnodeImbalanceRatio() float64 {
	ls := s.LoadStats()
	if ls == nil {
		return 0
	}
	loads := ls.Snapshot()
	var total, max uint64
	for _, l := range loads {
		ops := l.Reads + l.Writes
		total += ops
		if ops > max {
			max = ops
		}
	}
	if total == 0 || len(loads) == 0 {
		return 0
	}
	mean := float64(total) / float64(len(loads))
	return float64(max) / mean
}

// Close shuts the node down without leaving the ring (peers evict it when
// the session expires). Use Leave for a graceful departure.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	close(s.stopCh)
	s.wg.Wait()
	if s.watchdog != nil {
		s.watchdog.Close()
	}
	if s.mig != nil {
		s.mig.Close()
	}
	if s.healer != nil {
		s.healer.Close()
	}
	if s.sweeper != nil {
		s.sweeper.Close()
	}
	if s.trig != nil {
		s.trig.Close()
	}
	if s.mgr != nil {
		s.mgr.Close()
	}
	if s.pers != nil {
		s.pers.Close()
	}
	if s.coordCli != nil {
		s.coordCli.Close()
	}
	s.cfg.Transport.Close()
}

// Leave gracefully hands the node's vnodes to the survivors and shuts down.
func (s *Server) Leave() error {
	if s.mgr != nil {
		if err := s.mgr.Leave(); err != nil {
			return err
		}
	}
	s.Close()
	return nil
}

// Node returns the server's identity.
func (s *Server) Node() ring.NodeID { return s.cfg.Node }

// Ring returns the node's current assignment view.
func (s *Server) Ring() *ring.Ring { return s.mgr.Ring() }

// Trigger exposes the trigger engine for in-process job registration (the
// paper's Job.schedule path; actions are code, so they live in the server
// process).
func (s *Server) Trigger() *trigger.Engine { return s.trig }

// Stats returns a snapshot of the server's counters.
func (s *Server) Stats() Stats {
	st := Stats{
		CoordWrites:   s.nCoordWrites.Load(),
		CoordReads:    s.nCoordReads.Load(),
		ReplicaWrites: s.nReplicaWrites.Load(),
		ReplicaReads:  s.nReplicaReads.Load(),
		Repairs:       s.nRepairs.Load(),
		Recoveries:    s.nRecoveries.Load(),
		Store:         s.store.Stats(),
	}
	if s.trig != nil {
		st.Trigger = s.trig.Stats()
	}
	return st
}

// LoadStats exposes the per-vnode counters (for the balancer and tests).
func (s *Server) LoadStats() *ring.LoadStats { return s.loadStats.Load() }

// Health exposes the per-node breaker layer (diagnostics and tests).
func (s *Server) Health() *transport.HealthCaller { return s.health }

// Healer exposes the hint-queue replayer (diagnostics and tests).
func (s *Server) Healer() *heal.Healer { return s.healer }

// LocalRow returns a copy of the locally stored row for key without going
// through the replica protocol or touching its counters (test and audit
// use — e.g. asserting convergence happened with zero reads issued).
func (s *Server) LocalRow(key kv.Key) (*kv.Row, bool) {
	it, ok := s.store.Get(string(key))
	if !ok {
		return nil, false
	}
	row, err := kv.DecodeRow(it.Value)
	if err != nil {
		return nil, false
	}
	return row, true
}

// snapshotSource adapts the store to persist.Source.
type snapshotSource struct{ s *Server }

// SnapshotRange implements persist.Source.
func (ss snapshotSource) SnapshotRange(emit func(key string, blob []byte)) {
	ss.s.store.Range(func(key string, it memstore.Item) bool {
		emit(key, it.Value)
		return true
	})
}

// publishLoop periodically publishes the node's imbalance row (§III-B).
func (s *Server) publishLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.PublishEvery)
	defer t.Stop()
	for {
		select {
		case <-s.stopCh:
			return
		case <-t.C:
		}
		r, ls := s.mgr.Ring(), s.loadStats.Load()
		if r == nil || ls == nil {
			continue
		}
		table := ring.Imbalance(r, ls.Snapshot())
		for _, row := range table {
			if row.Node == s.cfg.Node {
				if err := s.mgr.PublishImbalance(row); err != nil {
					s.logf("publish imbalance: %v", err)
				}
			}
		}
	}
}

// triggerWrite is the Result write-back: trigger outputs are regular
// write_latest operations coordinated by this node.
func (s *Server) triggerWrite(ctx context.Context, key kv.Key, value []byte) error {
	return s.CoordWrite(ctx, key, value, quorum.Latest, false, string(s.cfg.Node))
}

// Rebalance runs one round of imbalance-driven data balance (§III-B): it
// folds this node's per-vnode load counters into the imbalance table and,
// when some node carries more than threshold times its fair share, commits
// primary moves toward the coldest nodes (preferring existing replica
// holders, which makes the move a pure metadata swap). It returns the moves
// applied.
func (s *Server) Rebalance(threshold float64) ([]ring.Move, error) {
	r, ls := s.mgr.Ring(), s.loadStats.Load()
	if r == nil || ls == nil {
		return nil, errors.New("core: not started")
	}
	plan := ring.PlanLoadRebalance(r, ls.Snapshot(), threshold)
	if len(plan) == 0 {
		return nil, nil
	}
	if err := s.mgr.ApplyPlan(plan); err != nil {
		return nil, err
	}
	s.logf("rebalanced %d primaries", len(plan))
	return plan, nil
}
