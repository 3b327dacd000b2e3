// Package obs is Sedna's zero-dependency observability subsystem: a
// Registry of lock-free counters, gauges and log-linear latency histograms
// (mergeable snapshots, p50/p90/p99/max), plus a lightweight per-operation
// Trace that records stage timestamps as a request flows client → transport
// → quorum → replica → memstore. Every layer of the stack shares one
// Registry per process; snapshots travel over the STATS RPC and merge
// associatively into cluster-wide views, which is how the benchmarks report
// real subsystem-level numbers instead of ad-hoc timers.
//
// All methods are nil-safe: a nil *Registry hands out nil metrics whose
// methods are no-ops, so instrumented code never branches on "is
// observability configured".
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing lock-free counter.
type Counter struct{ n atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.n.Add(1)
	}
}

// Add adds delta.
func (c *Counter) Add(delta uint64) {
	if c != nil {
		c.n.Add(delta)
	}
}

// Load returns the current value (0 on nil).
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

// Gauge is a lock-free instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adjusts the value by delta (may be negative).
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Load returns the current value (0 on nil).
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Registry holds a process's named metrics. Metrics are created on first
// use and live forever; lookups after creation are a read-locked map hit,
// and updates on the returned handles are lock-free. Callers should cache
// handles on hot paths.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram

	traces      traceRing
	sampleMu    sync.Mutex
	sampleEvery atomic.Uint64
	sampleSeq   map[string]*uint64

	node          atomic.Pointer[string]
	slow          slowRing
	slowThreshold atomic.Int64

	// Workload introspection plane (DESIGN.md §13).
	keys      *KeySketch
	flight    flightRing
	anomalies anomalyRing

	tenantRule atomic.Pointer[TenantRule]
	tenantMu   sync.RWMutex
	tenants    map[string]*tenantStats

	// exTraces pins traces referenced by histogram-bucket exemplars so an
	// exemplar trace id always resolves to a retained trace even after the
	// sampled-trace ring has wrapped.
	exMu     sync.Mutex
	exTraces map[uint64]*Trace
}

// NewRegistry returns an empty registry. Trace sampling defaults to one
// trace per 256 sampled operations per op name.
func NewRegistry() *Registry {
	r := &Registry{
		counters:  map[string]*Counter{},
		gauges:    map[string]*Gauge{},
		hists:     map[string]*Histogram{},
		sampleSeq: map[string]*uint64{},
		keys:      NewKeySketch(defaultSketchShards, defaultSketchCap),
		exTraces:  map[uint64]*Trace{},
	}
	r.sampleEvery.Store(256)
	return r
}

// Counter returns the named counter, creating it on first use (nil on a nil
// registry).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Snapshot captures every metric's current value. The result is a plain
// value: it can be merged with other snapshots (cluster-wide aggregation),
// diffed against an earlier one (interval measurement) and serialised.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters: make(map[string]uint64, len(r.counters)),
		Gauges:   make(map[string]int64, len(r.gauges)),
		Hists:    make(map[string]HistSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Load()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Load()
	}
	for name, h := range r.hists {
		s.Hists[name] = h.Snapshot()
	}
	return s
}

// Names returns every registered metric name, sorted (for tests and docs).
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for n := range r.counters {
		out = append(out, n)
	}
	for n := range r.gauges {
		out = append(out, n)
	}
	for n := range r.hists {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
