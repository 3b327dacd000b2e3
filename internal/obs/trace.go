package obs

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sedna/internal/wire"
)

// Trace records the stage timeline of one operation as it flows through the
// stack (client → transport → quorum → replica → memstore, or the
// coord-lease / trigger paths). Layers call Mark with a stage name; the
// trace stores the offset from the operation's start. Traces ride the
// context so deep layers need no extra plumbing, and a nil *Trace is a
// no-op — sampled tracing costs nothing on unsampled operations.
//
// A trace that crosses a process boundary keeps its ID: the sender encodes
// a TraceContext onto the wire frame, the receiver continues it with
// ContinueTrace, and the per-process spans are later stitched back into one
// causal timeline by StitchTraces (the CLI and the ops-plane /traces
// endpoint both do this over the STATS merge path).
type Trace struct {
	Op string
	// ID names the distributed trace; every span of one operation shares
	// it, across all processes it touches.
	ID uint64
	// Node identifies the process that recorded this span ("" when the
	// registry has no identity configured).
	Node string
	// Parent is the sender-side stage this span forked from ("" at the
	// trace origin).
	Parent string
	// Tenant is the tenant tag attributed to the traced op ("" when tenant
	// attribution is disabled). It propagates with the trace context so
	// replica-side spans stitch under the right tenant.
	Tenant string
	Start  time.Time

	mu     sync.Mutex
	stages []TraceStage
}

// TraceStage is one recorded stage: name and offset from the trace start.
type TraceStage struct {
	Name string        `json:"name"`
	At   time.Duration `json:"at"`
}

// traceSeq generates process-unique trace IDs; the random base makes
// collisions across processes vanishingly unlikely.
var traceSeq atomic.Uint64

func init() { traceSeq.Store(rand.Uint64() | 1) }

// nextTraceID returns a fresh trace ID (never 0; 0 means "untraced").
func nextTraceID() uint64 {
	for {
		if id := traceSeq.Add(1); id != 0 {
			return id
		}
	}
}

// NewTrace starts a trace for the named operation with a fresh ID.
func NewTrace(op string) *Trace {
	return &Trace{Op: op, ID: nextTraceID(), Start: time.Now()}
}

// Mark records a stage at the current time.
func (t *Trace) Mark(stage string) {
	if t == nil {
		return
	}
	at := time.Since(t.Start)
	t.mu.Lock()
	t.stages = append(t.stages, TraceStage{Name: stage, At: at})
	t.mu.Unlock()
}

// Elapsed returns the time since the trace started (0 on nil).
func (t *Trace) Elapsed() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.Start)
}

// Snapshot captures the span recorded so far without sealing it.
func (t *Trace) Snapshot() TraceSnapshot {
	if t == nil {
		return TraceSnapshot{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return TraceSnapshot{
		ID:     t.ID,
		Op:     t.Op,
		Node:   t.Node,
		Parent: t.Parent,
		Tenant: t.Tenant,
		Stages: append([]TraceStage(nil), t.stages...),
	}
}

// Finish seals the trace with a terminal "done" stage and files it into the
// registry's ring of recent traces. When the total duration crosses the
// registry's slow-op threshold the span is also force-retained in the
// slow-op log, regardless of sampling — unless an op-completion site already
// recorded this trace id, whose entry carries routing context Finish cannot
// know (vnode, key hash, outcome).
func (t *Trace) Finish(r *Registry) {
	if t == nil {
		return
	}
	t.Mark("done")
	if r == nil {
		return
	}
	snap := t.Snapshot()
	r.traces.push(snap)
	if d := t.Elapsed(); r.IsSlow(d) && !r.slow.hasTrace(snap.ID) {
		r.RecordSlowOp(SlowOp{
			Op:      snap.Op,
			Node:    snap.Node,
			TraceID: snap.ID,
			Dur:     d,
			Wall:    time.Now().UnixNano(),
			VNode:   -1,
			Stages:  snap.Stages,
		})
	}
}

// TraceSnapshot is one finished span as exposed by the stats surfaces.
type TraceSnapshot struct {
	ID     uint64       `json:"id,omitempty"`
	Op     string       `json:"op"`
	Node   string       `json:"node,omitempty"`
	Parent string       `json:"parent,omitempty"`
	Tenant string       `json:"tenant,omitempty"`
	Stages []TraceStage `json:"stages"`
}

// String renders the timeline as "op[node]: stage@offset → ...".
func (s TraceSnapshot) String() string {
	var b strings.Builder
	b.WriteString(s.Op)
	if s.Node != "" {
		fmt.Fprintf(&b, "[%s]", s.Node)
	}
	b.WriteString(":")
	for _, st := range s.Stages {
		fmt.Fprintf(&b, " %s@%s", st.Name, st.At)
	}
	return b.String()
}

// traceCtxKey keys the trace in a context.
type traceCtxKey struct{}

// WithTrace attaches t to ctx (returns ctx unchanged for a nil trace).
func WithTrace(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, traceCtxKey{}, t)
}

// FromContext returns the trace riding ctx, or nil.
func FromContext(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceCtxKey{}).(*Trace)
	return t
}

// Mark records a stage on the context's trace, if any — the one-liner deep
// layers use: obs.Mark(ctx, "quorum.acked").
func Mark(ctx context.Context, stage string) { FromContext(ctx).Mark(stage) }

// --- cross-process propagation ---

// traceCtxVersion is the TraceContext wire version. Decoders skip blocks
// with a version they do not understand, so the field can grow without
// breaking old peers.
const traceCtxVersion = 2

// maxTraceCtx bounds one encoded trace-context block (guards frames).
const maxTraceCtx = 1024

// TraceContext is the wire form of a trace crossing a process boundary:
// enough for the receiver to open a child span that stitches back to the
// origin. It rides transport frames as an optional, versioned,
// length-delimited block (see transport's frame format).
type TraceContext struct {
	// ID is the distributed trace ID.
	ID uint64
	// Op is the origin operation name.
	Op string
	// Stage is the sender-side stage the request departed from.
	Stage string
	// Tenant is the origin-attributed tenant tag ("" when disabled).
	Tenant string
}

// Encode serialises the context (version byte first).
func (tc TraceContext) Encode() []byte {
	var e wire.Enc
	e.U8(traceCtxVersion)
	e.U64(tc.ID)
	e.Str(tc.Op)
	e.Str(tc.Stage)
	e.Str(tc.Tenant)
	return e.B
}

// DecodeTraceContext parses an encoded block. It reports ok=false for
// empty, truncated, oversized or unknown-version blocks — callers treat all
// of those as "no trace attached".
func DecodeTraceContext(b []byte) (TraceContext, bool) {
	if len(b) == 0 || len(b) > maxTraceCtx {
		return TraceContext{}, false
	}
	d := wire.NewDec(b)
	if d.U8() != traceCtxVersion {
		return TraceContext{}, false
	}
	tc := TraceContext{ID: d.U64(), Op: d.Str(), Stage: d.Str(), Tenant: d.Str()}
	if d.Err != nil || tc.ID == 0 {
		return TraceContext{}, false
	}
	return tc, true
}

// WireContext encodes the context's trace for an outbound request departing
// from the given stage (nil when ctx carries no trace). The stage is also
// marked on the local span so sender and receiver timelines interlock.
func WireContext(ctx context.Context, stage string) []byte {
	t := FromContext(ctx)
	if t == nil {
		return nil
	}
	t.Mark(stage)
	return TraceContext{ID: t.ID, Op: t.Op, Stage: stage, Tenant: t.Tenant}.Encode()
}

// ContinueTrace opens a child span for an inbound request carrying an
// encoded trace context. It returns nil when the block is absent or
// unparseable, so handlers can call it unconditionally. Propagated traces
// ignore the local sampling period: the origin already decided this op is
// traced. The caller must Finish the returned span.
func (r *Registry) ContinueTrace(encoded []byte) *Trace {
	if r == nil {
		return nil
	}
	tc, ok := DecodeTraceContext(encoded)
	if !ok {
		return nil
	}
	return &Trace{Op: tc.Op, ID: tc.ID, Node: r.NodeName(), Parent: tc.Stage, Tenant: tc.Tenant, Start: time.Now()}
}

// --- stitching ---

// StitchedTrace reassembles the per-process spans of one distributed trace.
type StitchedTrace struct {
	ID uint64 `json:"id"`
	// Op is the origin operation name.
	Op string `json:"op"`
	// Spans holds the per-process timelines, origin first, then children
	// sorted by node for determinism.
	Spans []TraceSnapshot `json:"spans"`
}

// Nodes returns the distinct node names that contributed spans, sorted.
func (st StitchedTrace) Nodes() []string {
	seen := map[string]bool{}
	var out []string
	for _, sp := range st.Spans {
		if !seen[sp.Node] {
			seen[sp.Node] = true
			out = append(out, sp.Node)
		}
	}
	sort.Strings(out)
	return out
}

// String renders every span on its own line, origin first.
func (st StitchedTrace) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace %x %s", st.ID, st.Op)
	for _, sp := range st.Spans {
		b.WriteString("\n  ")
		if sp.Parent != "" {
			fmt.Fprintf(&b, "(from %s) ", sp.Parent)
		}
		b.WriteString(sp.String())
	}
	return b.String()
}

// StitchTraces groups spans (typically gathered from every node's stats
// surface) by trace ID into causal traces. Spans without an ID — pre-trace
// snapshots or untraced local ops — each form their own group. Within a
// group the origin span (empty Parent) leads. Output is ordered by ID for
// determinism.
func StitchTraces(spans []TraceSnapshot) []StitchedTrace {
	byID := map[uint64][]TraceSnapshot{}
	var solo []StitchedTrace
	for _, sp := range spans {
		if sp.ID == 0 {
			solo = append(solo, StitchedTrace{Op: sp.Op, Spans: []TraceSnapshot{sp}})
			continue
		}
		byID[sp.ID] = append(byID[sp.ID], sp)
	}
	out := make([]StitchedTrace, 0, len(byID)+len(solo))
	for id, group := range byID {
		sort.SliceStable(group, func(i, j int) bool {
			if (group[i].Parent == "") != (group[j].Parent == "") {
				return group[i].Parent == ""
			}
			return group[i].Node < group[j].Node
		})
		out = append(out, StitchedTrace{ID: id, Op: group[0].Op, Spans: group})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return append(out, solo...)
}

// --- sampling and the trace ring ---

// SampleTrace returns a new trace for one out of every sampleEvery calls
// per op name (nil otherwise, and always nil on a nil registry). The caller
// must Finish the returned trace.
func (r *Registry) SampleTrace(op string) *Trace {
	if r == nil {
		return nil
	}
	every := r.sampleEvery.Load()
	if every == 0 {
		return nil
	}
	r.sampleMu.Lock()
	seq := r.sampleSeq[op]
	if seq == nil {
		seq = new(uint64)
		r.sampleSeq[op] = seq
	}
	r.sampleMu.Unlock()
	if (atomic.AddUint64(seq, 1)-1)%every != 0 {
		return nil
	}
	t := NewTrace(op)
	t.Node = r.NodeName()
	return t
}

// SetTraceSampling adjusts the sampling period (0 disables sampling).
func (r *Registry) SetTraceSampling(every uint64) {
	if r != nil {
		r.sampleEvery.Store(every)
	}
}

// Traces returns the most recent finished traces, newest last, plus every
// trace still pinned by a histogram-bucket exemplar (deduplicated by ID).
// The union is what makes the exemplar contract hold: any exemplar id on a
// local snapshot resolves to a span in the same Report.
func (r *Registry) Traces() []TraceSnapshot {
	if r == nil {
		return nil
	}
	out := r.traces.snapshot()
	seen := make(map[uint64]struct{}, len(out))
	for _, s := range out {
		if s.ID != 0 {
			seen[s.ID] = struct{}{}
		}
	}
	r.exMu.Lock()
	pinned := make([]*Trace, 0, len(r.exTraces))
	for id, t := range r.exTraces {
		if _, dup := seen[id]; !dup {
			pinned = append(pinned, t)
		}
	}
	r.exMu.Unlock()
	sort.Slice(pinned, func(i, j int) bool { return pinned[i].ID < pinned[j].ID })
	for _, t := range pinned {
		out = append(out, t.Snapshot())
	}
	return out
}

// --- exemplar-pinned traces ---

// maxPinnedTraces bounds the exemplar pin table; on overflow, pins no longer
// referenced by any histogram bucket are collected.
const maxPinnedTraces = 256

// ObserveOp records d on h, tagging the bucket with the op's trace id as an
// exemplar and pinning the trace so the id keeps resolving to a retained
// span after the trace ring wraps. With a nil trace (unsampled op) it
// degrades to a plain Observe. Nil-safe.
func (r *Registry) ObserveOp(h *Histogram, d time.Duration, t *Trace) {
	if r == nil || t == nil || t.ID == 0 {
		h.Observe(d)
		return
	}
	h.ObserveExemplar(d, t.ID)
	r.pinExemplarTrace(t)
}

func (r *Registry) pinExemplarTrace(t *Trace) {
	r.exMu.Lock()
	defer r.exMu.Unlock()
	if r.exTraces == nil {
		r.exTraces = map[uint64]*Trace{}
	}
	if _, ok := r.exTraces[t.ID]; !ok && len(r.exTraces) >= maxPinnedTraces {
		r.gcPinnedLocked()
	}
	r.exTraces[t.ID] = t
}

// gcPinnedLocked drops pins whose trace id no longer appears in any
// histogram bucket's exemplar slot. Caller holds exMu.
func (r *Registry) gcPinnedLocked() {
	referenced := map[uint64]struct{}{}
	r.mu.RLock()
	for _, h := range r.hists {
		h.exemplarIDs(referenced)
	}
	r.mu.RUnlock()
	for id := range r.exTraces {
		if _, ok := referenced[id]; !ok {
			delete(r.exTraces, id)
		}
	}
}

// traceRing is a small fixed ring of recent traces.
type traceRing struct {
	mu   sync.Mutex
	buf  [32]TraceSnapshot
	next int
	n    int
}

func (tr *traceRing) push(s TraceSnapshot) {
	tr.mu.Lock()
	tr.buf[tr.next] = s
	tr.next = (tr.next + 1) % len(tr.buf)
	if tr.n < len(tr.buf) {
		tr.n++
	}
	tr.mu.Unlock()
}

func (tr *traceRing) snapshot() []TraceSnapshot {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	out := make([]TraceSnapshot, 0, tr.n)
	for i := 0; i < tr.n; i++ {
		out = append(out, tr.buf[(tr.next-tr.n+i+len(tr.buf))%len(tr.buf)])
	}
	return out
}
