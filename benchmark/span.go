package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span kinds. A span is recorded by the benchmark's own decorators around a
// public interface of the system (see seams.go), never from inside it.
const (
	kindOp    = "op"    // one client API call in the driver (write, read, mset, mget)
	kindCall  = "call"  // one outgoing transport.Caller.Call
	kindServe = "serve" // one inbound request handled by a transport.Handler
	kindVFS   = "vfs"   // one File.Write, File.Sync or FS.SyncDir
)

// span is {trace id, span id, parent, name, node, start, duration}. Kind and
// Name together are the span's name; Peer is the destination of a call and
// Bytes the length of a vfs write, both needed to match and to count.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Trace  uint64 `json:"trace,omitempty"`
	Kind   string `json:"kind"`
	Name   string `json:"name"`
	Node   string `json:"node"`
	Peer   string `json:"peer,omitempty"`
	Bytes  int    `json:"bytes,omitempty"`
	Start  int64  `json:"start"` // unix nanoseconds
	Dur    int64  `json:"dur"`   // nanoseconds
}

func (s *span) end() int64 { return s.Start + s.Dur }

// recorder keeps one process's spans in memory until dump writes them out.
// While off, the decorators cost one atomic load per call, which is what
// lets one traced cluster serve both the untraced reference window and the
// traced window of a -trace 1 run.
type recorder struct {
	node string
	on   atomic.Bool
	next atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newRecorder(node string) *recorder {
	r := &recorder{node: node}
	// Span ids must be unique across the five processes of a run.
	r.next.Store(uint64(os.Getpid()) << 40)
	return r
}

type spanRef struct{ id, trace uint64 }

type spanCtxKey struct{}

// parentOf returns the span a context was derived under, if any.
func parentOf(ctx context.Context) spanRef {
	ref, _ := ctx.Value(spanCtxKey{}).(spanRef)
	return ref
}

// start opens a span under ctx's span and returns the context its children
// must carry. A span without a parent starts its own trace.
func (r *recorder) start(ctx context.Context, kind, name string) (context.Context, *span, time.Time) {
	now := time.Now()
	parent := parentOf(ctx)
	s := &span{ID: r.next.Add(1), Parent: parent.id, Trace: parent.trace, Kind: kind, Name: name, Node: r.node, Start: now.UnixNano()}
	if s.Trace == 0 {
		s.Trace = s.ID
	}
	return context.WithValue(ctx, spanCtxKey{}, spanRef{id: s.ID, trace: s.Trace}), s, now
}

// finish closes a span opened by start. Duration comes from the monotonic
// clock; only Start is wall time, which the cross-process matcher needs.
func (r *recorder) finish(s *span, began time.Time) {
	s.Dur = int64(time.Since(began))
	r.mu.Lock()
	r.spans = append(r.spans, *s)
	r.mu.Unlock()
}

// take returns the recorded spans and forgets them.
func (r *recorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = nil
	return out
}

func (r *recorder) dump(path string) error {
	blob, err := json.Marshal(r.take())
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

func loadSpans(path string) ([]span, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []span
	return out, json.Unmarshal(blob, &out)
}

// interval is a half-open time range in nanoseconds.
type interval struct{ lo, hi int64 }

// covered returns how much of [lo, hi) the intervals cover, counting
// overlapping intervals once. It reorders ivs.
func covered(lo, hi int64, ivs []interval) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total int64
	at := lo
	for _, iv := range ivs {
		a, b := max(iv.lo, at), min(iv.hi, hi)
		if b > a {
			total += b - a
			at = b
		}
	}
	return total
}

func intervalsOf(spans []*span) []interval {
	ivs := make([]interval, len(spans))
	for i, s := range spans {
		ivs[i] = interval{s.Start, s.end()}
	}
	return ivs
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(s *span, children []*span) int64 {
	return s.Dur - covered(s.Start, s.end(), intervalsOf(children))
}

// matchStats counts what the cross-process matcher could and could not link.
type matchStats struct {
	calls, serves int // candidates seen
	matched       int
	ambiguous     int // matched, but more than one call contained the handler
}

// matchCalls links every serve span to the call span that caused it: the
// call with the same opcode name whose Peer is the serving node and whose
// wall-clock interval contains the handler's. The five processes share one
// machine clock, so containment holds whenever the link is real. When two
// calls in flight both contain a handler the latest-started one is taken
// (the tightest fit) and the match is counted as ambiguous: either
// assignment gives the same total of call-minus-handler time, so medians
// over many ops are unaffected, but a single pair is not trustworthy. It
// returns serve span id -> call span.
func matchCalls(spans []*span) (map[uint64]*span, matchStats) {
	type group struct{ calls, serves []*span }
	groups := map[string]*group{}
	at := func(node, name string) *group {
		k := node + "|" + name
		g := groups[k]
		if g == nil {
			g = &group{}
			groups[k] = g
		}
		return g
	}
	var st matchStats
	for _, s := range spans {
		switch s.Kind {
		case kindCall:
			g := at(s.Peer, s.Name)
			g.calls = append(g.calls, s)
			st.calls++
		case kindServe:
			g := at(s.Node, s.Name)
			g.serves = append(g.serves, s)
			st.serves++
		}
	}
	out := map[uint64]*span{}
	for _, g := range groups {
		sort.Slice(g.calls, func(i, j int) bool { return g.calls[i].Start < g.calls[j].Start })
		sort.Slice(g.serves, func(i, j int) bool { return g.serves[i].Start < g.serves[j].Start })
		used := make([]bool, len(g.calls))
		first := 0 // calls before this index ended before every remaining handler started
		for _, h := range g.serves {
			for first < len(g.calls) && (used[first] || g.calls[first].end() < h.Start) {
				first++
			}
			best, fits := -1, 0
			for i := first; i < len(g.calls) && g.calls[i].Start <= h.Start; i++ {
				if !used[i] && g.calls[i].end() >= h.end() {
					best = i
					fits++
				}
			}
			if best < 0 {
				continue
			}
			used[best] = true
			out[h.ID] = g.calls[best]
			st.matched++
			if fits > 1 {
				st.ambiguous++
			}
		}
	}
	return out, st
}
