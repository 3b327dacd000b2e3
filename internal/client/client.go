// Package client implements the Sedna client library: the paper's data
// access APIs — write_latest, write_all, read_latest, read_all (§III-F) —
// plus the realtime subscription API that pushes recently changed data to
// the client (§II-B). The client leases the ring snapshot from any server
// and routes each request directly to the primary of the key's virtual node
// (the zero-hop DHT property, §VII), falling back to other replicas when
// the primary is unreachable.
package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"sedna/internal/core"
	"sedna/internal/kv"
	"sedna/internal/obs"
	"sedna/internal/quorum"
	"sedna/internal/ring"
	"sedna/internal/transport"
	"sedna/internal/wire"
)

// Config parameterises a Client.
type Config struct {
	// Servers lists at least one Sedna node address used to bootstrap
	// the ring lease and as routing fallbacks.
	Servers []string
	// Caller issues RPCs.
	Caller transport.Caller
	// Source identifies this writer for write_all value lists; empty
	// selects "client".
	Source string
	// RingLease is how long a leased ring snapshot is trusted; zero
	// selects 1s.
	RingLease time.Duration
	// CallTimeout bounds one RPC; zero selects 2s.
	CallTimeout time.Duration
	// RetryBudget bounds the total attempts one keyed op makes across
	// targets and ring refreshes; zero selects 6.
	RetryBudget int
	// RetryBackoff is the base jittered delay between attempts after a
	// transport failure (doubled per attempt, capped at 8x); zero selects
	// 10ms. Breaker fast-fails skip the backoff entirely.
	RetryBackoff time.Duration
	// Breaker tunes the client's per-server circuit breakers, so requests
	// fail over to healthy replicas without burning CallTimeout on a node
	// already known dead; zero fields select the transport defaults.
	Breaker transport.BreakerConfig
	// Obs receives client.* metrics (end-to-end op latency, zero-hop vs
	// re-routed requests, ring refreshes); nil disables.
	Obs *obs.Registry
	// SlowOpThreshold is the end-to-end latency above which client ops are
	// force-retained in Obs's slow-op log; zero selects 250ms, negative
	// disables. Ignored when Obs is nil.
	SlowOpThreshold time.Duration
	// TenantRule derives a tenant tag from each key for per-tenant
	// attribution and trace propagation: "" (disabled), "dataset", "table",
	// or "prefix:N" (see obs.ParseTenantRule). Ignored when Obs is nil.
	TenantRule string
}

// Client talks to a Sedna cluster.
type Client struct {
	cfg    Config
	health *transport.HealthCaller

	mu          sync.Mutex
	ringSnap    *ring.Ring
	ringExpires time.Time
	cur         int

	hWrite, hRead           *obs.Histogram
	hBatchWrite, hBatchRead *obs.Histogram
	nZeroHop                *obs.Counter
	nReroutes               *obs.Counter
	nRingRefresh            *obs.Counter
	nRetries                *obs.Counter
	nRetargets              *obs.Counter
	nOverloaded             *obs.Counter
	nBatchKeys              *obs.Counter
	nBatchFrames            *obs.Counter
	nBatchFallbacks         *obs.Counter
}

// New validates the config and returns a client; the first request fetches
// the ring lease lazily.
func New(cfg Config) (*Client, error) {
	if len(cfg.Servers) == 0 {
		return nil, errors.New("client: Servers required")
	}
	if cfg.Caller == nil {
		return nil, errors.New("client: Caller required")
	}
	if cfg.Source == "" {
		cfg.Source = "client"
	}
	if cfg.RingLease <= 0 {
		cfg.RingLease = time.Second
	}
	if cfg.CallTimeout <= 0 {
		cfg.CallTimeout = 2 * time.Second
	}
	if cfg.RetryBudget <= 0 {
		cfg.RetryBudget = 6
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 10 * time.Millisecond
	}
	// Every RPC — keyed ops, ring fetches, subscriptions — goes through the
	// per-server breaker layer, so a dead node costs one fast-fail instead
	// of a CallTimeout once its breaker opens.
	health := transport.NewHealthCaller(cfg.Caller, cfg.Breaker)
	health.Instrument(cfg.Obs)
	cfg.Caller = health
	switch {
	case cfg.SlowOpThreshold == 0:
		cfg.Obs.SetSlowOpThreshold(250 * time.Millisecond)
	case cfg.SlowOpThreshold > 0:
		cfg.Obs.SetSlowOpThreshold(cfg.SlowOpThreshold)
	}
	tenantRule, err := obs.ParseTenantRule(cfg.TenantRule)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	cfg.Obs.SetTenantRule(tenantRule)
	return &Client{
		cfg:             cfg,
		health:          health,
		hWrite:          cfg.Obs.Histogram("client.write"),
		hRead:           cfg.Obs.Histogram("client.read"),
		hBatchWrite:     cfg.Obs.Histogram("client.batch.write"),
		hBatchRead:      cfg.Obs.Histogram("client.batch.read"),
		nZeroHop:        cfg.Obs.Counter("client.zero_hop"),
		nReroutes:       cfg.Obs.Counter("client.reroute"),
		nRingRefresh:    cfg.Obs.Counter("client.ring_refresh"),
		nRetries:        cfg.Obs.Counter("client.retries"),
		nRetargets:      cfg.Obs.Counter("client.retargets"),
		nOverloaded:     cfg.Obs.Counter("client.overloaded"),
		nBatchKeys:      cfg.Obs.Counter("client.batch.keys"),
		nBatchFrames:    cfg.Obs.Counter("client.batch.frames"),
		nBatchFallbacks: cfg.Obs.Counter("client.batch.fallbacks"),
	}, nil
}

// Health exposes the client's per-server breaker layer (diagnostics and
// tests).
func (c *Client) Health() *transport.HealthCaller { return c.health }

// WriteLatest stores value under key with read_latest/write_latest
// semantics; it returns nil ("ok") or core.ErrFailure. The write is dotted
// (DVV): a blind write supersedes what its coordinator has already seen and
// anything genuinely concurrent survives as a sibling — it is never
// silently dropped. Read-modify-write callers that must supersede exactly
// what they read use WriteLatestCtx instead.
func (c *Client) WriteLatest(ctx context.Context, key kv.Key, value []byte) error {
	return c.write(ctx, key, value, quorum.Latest, false, false, nil)
}

// WriteLatestCtx is WriteLatest carrying a causal context from a previous
// ReadSiblings: the write supersedes exactly the values that read observed
// and leaves anything concurrent intact as a sibling. This is the safe
// read-modify-write primitive — two racing updates both survive until a
// reader resolves them, instead of the loser being silently dropped.
func (c *Client) WriteLatestCtx(ctx context.Context, key kv.Key, value []byte, wctx Context) error {
	return c.write(ctx, key, value, quorum.Latest, false, true, wctx)
}

// WriteAll stores value in the key's per-source value list (§III-F.1): each
// source keeps its own newest value.
func (c *Client) WriteAll(ctx context.Context, key kv.Key, value []byte) error {
	return c.write(ctx, key, value, quorum.All, false, false, nil)
}

// Delete removes every value of key that was acked before the call began,
// from every source: it reads the key's causal context with ReadSiblings
// and writes a tombstone carrying it (DeleteCtx). With R + W > N the
// quorum read's context covers every acked write, which the coordinator's
// own row might not, since a coordinator's local apply can lag the acks. A
// write concurrent with the delete survives as a sibling.
func (c *Client) Delete(ctx context.Context, key kv.Key) error {
	s, err := c.ReadSiblings(ctx, key)
	if err != nil {
		return err
	}
	return c.DeleteCtx(ctx, key, s.Context)
}

// DeleteCtx writes a dotted tombstone carrying a causal context from a
// previous ReadSiblings: it deletes exactly the values that read observed,
// while a concurrent writer's value survives the race as a sibling instead
// of being silently destroyed.
func (c *Client) DeleteCtx(ctx context.Context, key kv.Key, wctx Context) error {
	return c.write(ctx, key, nil, quorum.Latest, true, true, wctx)
}

func (c *Client) write(ctx context.Context, key kv.Key, value []byte, mode quorum.Mode, deleted, explicit bool, wctx Context) (err error) {
	start := time.Now()
	tr := c.cfg.Obs.SampleTrace("client.write")
	if tr != nil {
		// Attribute the trace before it crosses the wire, so coordinator and
		// replica spans stitch under the same tenant.
		tr.Tenant = c.cfg.Obs.TenantOf(string(key))
		ctx = obs.WithTrace(ctx, tr)
		defer tr.Finish(c.cfg.Obs)
	}
	var meta keyedMeta
	defer func() {
		d := time.Since(start)
		c.cfg.Obs.ObserveOp(c.hWrite, d, tr)
		c.recordOp(tr, "client.write", key, d, err, meta, true, len(value))
		c.recordSlow(ctx, "client.write", key, d, err)
	}()
	var e wire.Enc
	e.Str(string(key))
	e.Bytes(value)
	e.U8(byte(mode))
	e.Bool(deleted)
	e.Str(c.cfg.Source)
	// The explicit flag separates "no context: coordinator, stamp your own"
	// (blind WriteLatest) from "THIS context, even if empty" (a *Ctx call
	// whose read observed nothing — a true race that must leave siblings,
	// not adopt the coordinator's state).
	e.Bool(explicit)
	e.Bytes(wctx)
	_, meta, err = c.doKeyedMeta(ctx, key, core.OpCoordWrite, e.B)
	return err
}

// ReadLatest returns the freshest value for key ("no matter it was written
// by which node", §III-F.2); core.ErrNotFound when the key has no live
// value.
func (c *Client) ReadLatest(ctx context.Context, key kv.Key) ([]byte, kv.Timestamp, error) {
	row, err := c.readRow(ctx, key)
	if err != nil {
		return nil, kv.Timestamp{}, err
	}
	v, ok := row.Latest()
	if !ok {
		return nil, kv.Timestamp{}, core.ErrNotFound
	}
	return v.Value, v.TS, nil
}

// Value is one element of a read_all result.
type Value struct {
	Data   []byte
	TS     kv.Timestamp
	Source string
}

// ReadAll returns every live value in the key's list, freshest first.
func (c *Client) ReadAll(ctx context.Context, key kv.Key) ([]Value, error) {
	row, err := c.readRow(ctx, key)
	if err != nil {
		return nil, err
	}
	live := row.Live()
	if len(live) == 0 {
		return nil, core.ErrNotFound
	}
	out := make([]Value, len(live))
	for i, v := range live {
		out[i] = Value{Data: v.Value, TS: v.TS, Source: v.Source}
	}
	return out, nil
}

// Context is the opaque causal token a ReadSiblings returns: it names every
// version that read observed. Passing it back through WriteLatestCtx or
// DeleteCtx supersedes exactly those versions and nothing written since.
type Context []byte

// Siblings is a causal read result: the concurrent live values the cluster
// currently retains for one key, plus the context that supersedes them.
type Siblings struct {
	// Values holds every retained concurrent value, freshest first. Empty
	// when the key has no live value (missing, or deleted).
	Values []Value
	// Context supersedes exactly the versions this read observed when passed
	// to WriteLatestCtx or DeleteCtx.
	Context Context
	// Evicted counts siblings the bounded retention cap has ever dropped
	// from this row. Zero means the row has never been truncated; non-zero
	// tells a resolver its merge input may be incomplete. Truncation is
	// deliberate but never silent.
	Evicted uint32
}

// ReadSiblings returns the key's concurrent value set and causal context —
// the read half of the safe read-modify-write cycle. Unlike ReadLatest it
// does not collapse concurrency: when two writers raced, both values come
// back and the caller resolves them (pick one, merge, or surface the
// conflict), then writes the resolution with WriteLatestCtx. A missing key
// is not an error here — an empty Values with the returned Context is how a
// create-if-absent starts.
func (c *Client) ReadSiblings(ctx context.Context, key kv.Key) (Siblings, error) {
	row, err := c.readRow(ctx, key)
	if err != nil {
		return Siblings{}, err
	}
	s := Siblings{Evicted: row.Obs}
	if !row.Clock.IsEmpty() {
		s.Context = kv.EncodeDVV(row.Clock)
	}
	for _, v := range row.Live() {
		s.Values = append(s.Values, Value{Data: v.Value, TS: v.TS, Source: v.Source})
	}
	return s, nil
}

func (c *Client) readRow(ctx context.Context, key kv.Key) (row *kv.Row, err error) {
	start := time.Now()
	tr := c.cfg.Obs.SampleTrace("client.read")
	if tr != nil {
		tr.Tenant = c.cfg.Obs.TenantOf(string(key))
		ctx = obs.WithTrace(ctx, tr)
		defer tr.Finish(c.cfg.Obs)
	}
	var meta keyedMeta
	readBytes := 0
	defer func() {
		d := time.Since(start)
		c.cfg.Obs.ObserveOp(c.hRead, d, tr)
		c.recordOp(tr, "client.read", key, d, err, meta, false, readBytes)
		c.recordSlow(ctx, "client.read", key, d, err)
	}()
	var e wire.Enc
	e.Str(string(key))
	d, meta, err := c.doKeyedMeta(ctx, key, core.OpCoordRead, e.B)
	if err != nil {
		return nil, err
	}
	blob := d.Bytes()
	if d.Err != nil {
		return nil, d.Err
	}
	readBytes = len(blob)
	return kv.DecodeRow(blob)
}

// outcomeOf classifies a client op result for the stats surfaces.
func outcomeOf(err error) string {
	switch {
	case errors.Is(err, core.ErrNotFound):
		return "not_found"
	case err != nil:
		return "failure"
	}
	return "ok"
}

// recordOp leaves the op's wide event in the flight recorder plus its
// per-tenant attribution row. Like recordSlow it only consults the leased
// ring — a defer must not touch the network.
func (c *Client) recordOp(tr *obs.Trace, op string, key kv.Key, d time.Duration, err error, meta keyedMeta, write bool, bytes int) {
	tenant := c.cfg.Obs.TenantOf(string(key))
	ev := obs.WideEvent{
		Op:      op,
		DurNs:   int64(d),
		VNode:   -1,
		KeyHash: ring.Hash64(key),
		Tenant:  tenant,
		Outcome: outcomeOf(err),
		Retries: uint32(meta.retries),
	}
	if tr != nil {
		ev.TraceID = tr.ID
	}
	if meta.retargeted {
		ev.Flags |= obs.FlagRetargeted
	}
	c.mu.Lock()
	r := c.ringSnap
	c.mu.Unlock()
	if r != nil {
		ev.VNode = int32(r.VNodeFor(key))
	}
	c.cfg.Obs.RecordOp(ev)
	failed := err != nil && !errors.Is(err, core.ErrNotFound)
	c.cfg.Obs.RecordTenantOp(tenant, write, bytes, d, failed)
}

// recordSlow force-retains one slow client op in the slow-op log, stamped
// with the key's vnode under the leased ring (no refresh: a defer must not
// touch the network).
func (c *Client) recordSlow(ctx context.Context, op string, key kv.Key, d time.Duration, err error) {
	if !c.cfg.Obs.IsSlow(d) {
		return
	}
	so := obs.SlowOp{Op: op, Dur: d, VNode: -1, KeyHash: ring.Hash64(key), Outcome: outcomeOf(err)}
	if tr := obs.FromContext(ctx); tr != nil {
		so.TraceID = tr.ID
		so.Stages = tr.Snapshot().Stages
	}
	c.mu.Lock()
	r := c.ringSnap
	c.mu.Unlock()
	if r != nil {
		so.VNode = int32(r.VNodeFor(key))
	}
	c.cfg.Obs.RecordSlowOp(so)
}

// --- routing ---

// targetsFor orders servers for a keyed request: replica owners first
// (primary leading), then the configured fallbacks.
func (c *Client) targetsFor(key kv.Key) []string {
	var targets []string
	seen := map[string]bool{}
	if r := c.leasedRing(); r != nil {
		for _, o := range r.OwnersForKey(key) {
			if o != "" && !seen[string(o)] {
				seen[string(o)] = true
				targets = append(targets, string(o))
			}
		}
	}
	c.mu.Lock()
	start := c.cur
	c.mu.Unlock()
	for i := range c.cfg.Servers {
		s := c.cfg.Servers[(start+i)%len(c.cfg.Servers)]
		if !seen[s] {
			seen[s] = true
			targets = append(targets, s)
		}
	}
	return targets
}

// doKeyed issues op against the key's owners with fallback. Domain errors
// (not found, bad request) come back immediately; transport failures invalidate
// the ring lease and retry against targets recomputed from the refreshed
// ring, so owners promoted mid-op are reached instead of the stale list.
// Attempts are capped by RetryBudget and paced with jittered backoff, except
// after breaker fast-fails, which cost nothing and skip straight to the next
// target.
func (c *Client) doKeyed(ctx context.Context, key kv.Key, op uint16, body []byte) (*wire.Dec, error) {
	d, _, err := c.doKeyedMeta(ctx, key, op, body)
	return d, err
}

// keyedMeta summarises how one keyed op travelled: extra attempts consumed
// from the retry budget and whether a NotOwner rejection retargeted it.
type keyedMeta struct {
	retries    int
	retargeted bool
}

func (c *Client) doKeyedMeta(ctx context.Context, key kv.Key, op uint16, body []byte) (*wire.Dec, keyedMeta, error) {
	var meta keyedMeta
	var lastErr error
	tried := map[string]bool{}
	for attempt := 0; attempt < c.cfg.RetryBudget; attempt++ {
		// Recompute targets every attempt: after an invalidation the ring
		// lease refreshes, and the new snapshot may name owners the stale
		// list never held.
		addr := ""
		for _, t := range c.targetsFor(key) {
			if !tried[t] {
				addr = t
				break
			}
		}
		if addr == "" {
			break // every reachable target exhausted
		}
		tried[addr] = true
		if attempt > 0 {
			c.nRetries.Inc()
			meta.retries++
		}
		callCtx, cancel := context.WithTimeout(ctx, c.cfg.CallTimeout)
		resp, err := c.cfg.Caller.Call(callCtx, addr, transport.Message{
			Op: op, Body: body, Trace: obs.WireContext(ctx, "client.send"),
		})
		cancel()
		if err != nil {
			lastErr = err
			if errors.Is(err, transport.ErrBreakerOpen) {
				// The breaker already knows this node is dark; the fast-fail
				// carries no new routing information, so keep the lease and
				// move on immediately.
				continue
			}
			if errors.Is(err, transport.ErrOverloaded) {
				// The node shed the request at a saturated stage: it is
				// healthy and still the right target, so keep the ring lease
				// and this target eligible, back off, and try again.
				c.nOverloaded.Inc()
				delete(tried, addr)
				if !c.retrySleep(ctx, attempt) {
					break
				}
				continue
			}
			c.invalidateRing()
			if !c.retrySleep(ctx, attempt) {
				break
			}
			continue
		}
		d := wire.NewDec(resp.Body)
		st := d.U16()
		detail := d.Str()
		if d.Err != nil {
			return nil, meta, d.Err
		}
		if st == core.StNotOwner {
			// The node no longer coordinates this key's vnode (it migrated,
			// or an eviction reassigned it). The rejection carries the
			// responder's ring version: refresh the lease to at least that
			// version and retry the NEW owners in the same op — retargeting
			// costs one extra round trip instead of a failed call. The
			// tried set resets because the refreshed ring may legitimately
			// route back to a node we already visited in another role.
			lastErr = core.StatusErr(st, detail)
			c.nRetargets.Inc()
			meta.retargeted = true
			c.refreshRingAtLeast(d.U64())
			clear(tried)
			continue
		}
		if st == core.StFailure {
			// The coordinator could not reach a quorum; another replica
			// may still succeed (e.g. the primary is partitioned).
			lastErr = core.StatusErr(st, detail)
			continue
		}
		if st == core.StOverloaded {
			// Same pushback as transport.ErrOverloaded, surfaced one level
			// up: the coordinator itself refused the work. Back off and
			// retry the same routing.
			lastErr = core.StatusErr(st, detail)
			c.nOverloaded.Inc()
			delete(tried, addr)
			if !c.retrySleep(ctx, attempt) {
				break
			}
			continue
		}
		if st != core.StOK {
			return nil, meta, core.StatusErr(st, detail)
		}
		if attempt == 0 {
			c.nZeroHop.Inc() // the primary answered: the zero-hop fast path
		} else {
			c.nReroutes.Inc()
		}
		return d, meta, nil
	}
	if lastErr == nil {
		lastErr = transport.ErrUnreachable
	}
	return nil, meta, fmt.Errorf("%w: %v", core.ErrFailure, lastErr)
}

// retrySleep pauses between attempts — exponential from RetryBackoff, capped
// at 8x, with jitter so concurrent clients spread out — and reports false
// when ctx expired instead.
func (c *Client) retrySleep(ctx context.Context, attempt int) bool {
	// Clamp the exponent before shifting: with a large RetryBudget the shift
	// would overflow negative, skip the cap, and spin without backoff.
	shift := attempt
	if shift > 3 {
		shift = 3 // cap matches the 8x backoff ceiling
	}
	d := c.cfg.RetryBackoff << shift
	if max := 8 * c.cfg.RetryBackoff; d > max || d <= 0 {
		d = max
	}
	d += time.Duration(rand.Int63n(int64(c.cfg.RetryBackoff)/2 + 1))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// leasedRing returns the cached ring, refreshing it when the lease expired.
func (c *Client) leasedRing() *ring.Ring {
	c.mu.Lock()
	if c.ringSnap != nil && time.Now().Before(c.ringExpires) {
		r := c.ringSnap
		c.mu.Unlock()
		return r
	}
	c.mu.Unlock()
	c.nRingRefresh.Inc()
	r := c.fetchRing()
	if r == nil {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.ringSnap // serve stale rather than nothing
	}
	c.mu.Lock()
	c.ringSnap = r
	c.ringExpires = time.Now().Add(c.cfg.RingLease)
	c.mu.Unlock()
	return r
}

func (c *Client) fetchRing() *ring.Ring {
	for i := range c.cfg.Servers {
		c.mu.Lock()
		addr := c.cfg.Servers[(c.cur+i)%len(c.cfg.Servers)]
		c.mu.Unlock()
		ctx, cancel := context.WithTimeout(context.Background(), c.cfg.CallTimeout)
		resp, err := c.cfg.Caller.Call(ctx, addr, transport.Message{Op: core.OpRingGet})
		cancel()
		if err != nil {
			c.rotate()
			continue
		}
		d := wire.NewDec(resp.Body)
		if st := d.U16(); st != core.StOK {
			continue
		}
		d.Str()
		blob := d.Bytes()
		if d.Err != nil {
			continue
		}
		r, err := ring.DecodeRing(blob)
		if err != nil {
			continue
		}
		return r
	}
	return nil
}

// refreshRingAtLeast drops the ring lease and refetches unless the leased
// snapshot is already at or past the given version (a NotOwner rejection
// names the responder's ring version; an older or equal lease is what
// misrouted us).
func (c *Client) refreshRingAtLeast(version uint64) {
	c.mu.Lock()
	if c.ringSnap != nil && version > 0 && c.ringSnap.Version() >= version {
		c.mu.Unlock()
		return
	}
	c.ringExpires = time.Time{}
	c.mu.Unlock()
	c.leasedRing()
}

func (c *Client) invalidateRing() {
	c.mu.Lock()
	c.ringExpires = time.Time{}
	c.mu.Unlock()
	c.rotate()
}

func (c *Client) rotate() {
	c.mu.Lock()
	c.cur++
	c.mu.Unlock()
}

// NodeStats is one data node's observability report — metric snapshot,
// sampled traces and the slow-op log — as served by the OpObsStats RPC. It
// is the same obs.Report shape the ops-plane HTTP endpoints serve, so field
// names agree across every stats surface.
type NodeStats = obs.Report

// FetchStats pulls the obs report (snapshot, traces, slow ops) from one data
// node. Cluster-wide totals come from merging the per-node snapshots:
//
//	total := obs.Snapshot{}
//	for _, addr := range nodes { st, _ := c.FetchStats(ctx, addr); total = total.Merge(st.Snapshot) }
func (c *Client) FetchStats(ctx context.Context, addr string) (NodeStats, error) {
	callCtx, cancel := context.WithTimeout(ctx, c.cfg.CallTimeout)
	defer cancel()
	resp, err := c.cfg.Caller.Call(callCtx, addr, transport.Message{Op: core.OpObsStats})
	if err != nil {
		return NodeStats{}, err
	}
	d := wire.NewDec(resp.Body)
	st := d.U16()
	detail := d.Str()
	if d.Err != nil {
		return NodeStats{}, d.Err
	}
	if st != core.StOK {
		return NodeStats{}, core.StatusErr(st, detail)
	}
	blob := d.Bytes()
	if d.Err != nil {
		return NodeStats{}, d.Err
	}
	var ns NodeStats
	if err := json.Unmarshal(blob, &ns); err != nil {
		return NodeStats{}, fmt.Errorf("client: decode stats: %w", err)
	}
	return ns, nil
}

// RingVersion returns the leased ring's version (0 before the first fetch),
// exposed for tests and diagnostics.
func (c *Client) RingVersion() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ringSnap == nil {
		return 0
	}
	return c.ringSnap.Version()
}
