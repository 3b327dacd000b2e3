package obs

import (
	"sync"
	"time"
)

// SlowOp is one force-retained tail event: an operation whose latency
// crossed the registry's slow-op threshold. Unlike sampled traces — which
// keep one op in every N regardless of how it behaved — the slow-op log
// keeps every op that misbehaved, which is what Dean & Barroso's
// tail-at-scale argument asks operators to look at. Entries carry the
// routing and healing context (vnode, key hash, breaker/retry/hint
// outcomes) needed to tell a hot vnode from a dark replica.
type SlowOp struct {
	// Op names the operation ("coord_write", "client.read", ...).
	Op string `json:"op"`
	// Node is the process that recorded the event.
	Node string `json:"node,omitempty"`
	// TraceID links to the op's trace when one was sampled (0 otherwise).
	TraceID uint64 `json:"trace_id,omitempty"`
	// Dur is the op's total latency.
	Dur time.Duration `json:"dur"`
	// Wall is the completion time (unix nanoseconds).
	Wall int64 `json:"wall"`
	// VNode is the key's virtual node (-1 when unknown or keyless).
	VNode int32 `json:"vnode"`
	// KeyHash is the 64-bit hash of the key (0 when keyless); the raw key
	// never leaves the process.
	KeyHash uint64 `json:"key_hash,omitempty"`
	// Outcome classifies the result: "ok", "not_found", "failure", ...
	Outcome string `json:"outcome,omitempty"`
	// Tags carries healing-pipeline context: failed replica counts, hints
	// enqueued, open breakers, retry counts.
	Tags map[string]string `json:"tags,omitempty"`
	// Stages is the op's stage timeline when a trace covered it.
	Stages []TraceStage `json:"stages,omitempty"`
}

// slowRingSize bounds the slow-op event log.
const slowRingSize = 64

// slowRing is a fixed ring of recent slow ops.
type slowRing struct {
	mu   sync.Mutex
	buf  [slowRingSize]SlowOp
	next int
	n    int
}

func (sr *slowRing) push(s SlowOp) {
	sr.mu.Lock()
	sr.buf[sr.next] = s
	sr.next = (sr.next + 1) % len(sr.buf)
	if sr.n < len(sr.buf) {
		sr.n++
	}
	sr.mu.Unlock()
}

// hasTrace reports whether the ring already holds an entry for trace id
// (op-completion sites record richer entries than Trace.Finish; this lets
// Finish skip the duplicate).
func (sr *slowRing) hasTrace(id uint64) bool {
	if id == 0 {
		return false
	}
	sr.mu.Lock()
	defer sr.mu.Unlock()
	for i := 0; i < sr.n; i++ {
		if sr.buf[i].TraceID == id {
			return true
		}
	}
	return false
}

func (sr *slowRing) snapshot() []SlowOp {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	out := make([]SlowOp, 0, sr.n)
	for i := 0; i < sr.n; i++ {
		out = append(out, sr.buf[(sr.next-sr.n+i+len(sr.buf))%len(sr.buf)])
	}
	return out
}

// SetSlowOpThreshold sets the latency above which ops are force-retained in
// the slow-op log (0 or negative disables the log).
func (r *Registry) SetSlowOpThreshold(d time.Duration) {
	if r != nil {
		r.slowThreshold.Store(int64(d))
	}
}

// SlowOpThreshold returns the current threshold (0 = disabled).
func (r *Registry) SlowOpThreshold() time.Duration {
	if r == nil {
		return 0
	}
	return time.Duration(r.slowThreshold.Load())
}

// IsSlow reports whether a duration crosses the configured threshold.
func (r *Registry) IsSlow(d time.Duration) bool {
	if r == nil {
		return false
	}
	t := r.slowThreshold.Load()
	return t > 0 && int64(d) >= t
}

// RecordSlowOp force-retains one event in the slow-op log, stamping the
// registry's node identity when the entry has none, and counts it under
// obs.slow_ops. Callers normally gate on IsSlow first; RecordSlowOp itself
// never filters, so healing paths can log events they consider anomalous
// regardless of latency.
func (r *Registry) RecordSlowOp(s SlowOp) {
	if r == nil {
		return
	}
	if s.Node == "" {
		s.Node = r.NodeName()
	}
	if s.Wall == 0 {
		s.Wall = time.Now().UnixNano()
	}
	r.slow.push(s)
	r.Counter("obs.slow_ops").Inc()
}

// SlowOps returns the retained slow ops, oldest first.
func (r *Registry) SlowOps() []SlowOp {
	if r == nil {
		return nil
	}
	return r.slow.snapshot()
}

// SetNode records the process identity stamped onto traces and slow ops.
func (r *Registry) SetNode(name string) {
	if r != nil {
		r.node.Store(&name)
	}
}

// NodeName returns the configured process identity ("" when unset).
func (r *Registry) NodeName() string {
	if r == nil {
		return ""
	}
	if p := r.node.Load(); p != nil {
		return *p
	}
	return ""
}

// Report captures the registry's full stats surface — snapshot, recent
// traces and the slow-op log — as the one struct every stats consumer
// renders from: the OpObsStats RPC, `sedna-cli stats --json` and the
// ops-plane /statsz endpoint all serve exactly this shape, so field names
// stay stable across surfaces by construction.
type Report struct {
	Node     string          `json:"node"`
	Snapshot Snapshot        `json:"snapshot"`
	Traces   []TraceSnapshot `json:"traces,omitempty"`
	SlowOps  []SlowOp        `json:"slow_ops,omitempty"`
	// TopKeys is the node's hot-key sketch, hottest first (DESIGN.md §13).
	TopKeys []TopKEntry `json:"top_keys,omitempty"`
	// Tenants is the per-tenant attribution table, busiest first.
	Tenants []TenantSnapshot `json:"tenants,omitempty"`
	// Flight holds the newest wide events from the flight recorder (capped;
	// /flightz serves the full ring).
	Flight []WideEvent `json:"flight,omitempty"`
	// Anomalies is the watchdog detection log, newest first.
	Anomalies []Anomaly `json:"anomalies,omitempty"`
}

// reportFlightCap bounds the flight-recorder slice embedded in a Report so
// the STATS RPC payload stays small; /flightz serves the whole ring.
const reportFlightCap = 64

// reportTopK bounds the hot-key entries embedded in a Report.
const reportTopK = 32

// Report builds the registry's current Report.
func (r *Registry) Report() Report {
	if r == nil {
		return Report{}
	}
	return Report{
		Node:      r.NodeName(),
		Snapshot:  r.Snapshot(),
		Traces:    r.Traces(),
		SlowOps:   r.SlowOps(),
		TopKeys:   r.TopKeys(reportTopK),
		Tenants:   r.TenantsSnapshot(),
		Flight:    r.FlightEvents(reportFlightCap),
		Anomalies: r.Anomalies(),
	}
}
