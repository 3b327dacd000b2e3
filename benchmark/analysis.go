package main

import (
	"sort"
	"strings"
)

// trace is the span set of one traced window, indexed for the analysis.
type trace struct {
	spans    []*span
	children map[uint64][]*span // in-process children by parent span id
	serveOf  map[uint64]*span   // call span id -> the handler span it caused
	vfsAt    map[string][]*span // node -> its vfs spans, by start time
	vfsMax   map[string]int64   // node -> its longest vfs span
	match    matchStats
	coordAt  string // node name of the coordination process
}

func buildTrace(all []span, coordNode string) *trace {
	t := &trace{children: map[uint64][]*span{}, serveOf: map[uint64]*span{}, vfsAt: map[string][]*span{}, vfsMax: map[string]int64{}, coordAt: coordNode}
	for i := range all {
		s := &all[i]
		t.spans = append(t.spans, s)
		if s.Parent != 0 {
			t.children[s.Parent] = append(t.children[s.Parent], s)
		}
		if s.Kind == kindVFS {
			t.vfsAt[s.Node] = append(t.vfsAt[s.Node], s)
			t.vfsMax[s.Node] = max(t.vfsMax[s.Node], s.Dur)
		}
	}
	for _, v := range t.vfsAt {
		sort.Slice(v, func(i, j int) bool { return v[i].Start < v[j].Start })
	}
	callOf, st := matchCalls(t.spans)
	t.match = st
	byID := map[uint64]*span{}
	for _, s := range t.spans {
		byID[s.ID] = s
	}
	for serveID, call := range callOf {
		t.serveOf[call.ID] = byID[serveID]
	}
	return t
}

// calls returns the outgoing RPCs a span made, optionally only those whose
// opcode name has the prefix.
func (t *trace) calls(parent *span, prefix string) []*span {
	var out []*span
	for _, c := range t.children[parent.ID] {
		if c.Kind == kindCall && strings.HasPrefix(c.Name, prefix) {
			out = append(out, c)
		}
	}
	return out
}

// vfsDuring returns how much of a handler's interval its node's filesystem
// calls cover: all of them, and the syncs alone. The durability layer hands
// the filesystem no context, so overlap in time on the same node is the only
// link there is; under group commit one sync really does serve every
// handler waiting during it.
func (t *trace) vfsDuring(h *span) (all, syncs int64) {
	v := t.vfsAt[h.Node]
	// no span that started earlier than the longest one before h can reach into h
	i := sort.Search(len(v), func(i int) bool { return v[i].Start >= h.Start-t.vfsMax[h.Node] })
	var ivAll, ivSync []interval
	for ; i < len(v) && v[i].Start < h.end(); i++ {
		if v[i].end() <= h.Start {
			continue
		}
		iv := interval{v[i].Start, v[i].end()}
		ivAll = append(ivAll, iv)
		if v[i].Name == "sync" {
			ivSync = append(ivSync, iv)
		}
	}
	return covered(h.Start, h.end(), ivAll), covered(h.Start, h.end(), ivSync)
}

// series collects samples by name and reports medians.
type series map[string][]int64

func (s series) add(name string, v int64) { s[name] = append(s[name], v) }

func us(ns float64) float64 { return ns / 1e3 }

// budget is the per-layer reading of one traced window.
type budget struct {
	s     series
	ops   int // client ops seen
	calls struct{ client, replica, poll, coordServed, coordHandlers int }
	// Per op kind: the op's duration and what of it the self times along
	// its blocking path do not account for.
	opDur, opUnattributed [nKinds][]int64
	syncs                 []int64
	vfsWriteBytes         int64
}

// analyse walks every client op down its blocking path: the client call
// that finished last, the coordinator handler it caused, the replica call
// whose answer let that handler finish (the latest one to end before the
// handler did), and that call's replica handler. Each step contributes its
// self time; what the steps together do not cover is reported, not hidden.
func analyse(t *trace) *budget {
	b := &budget{s: series{}}
	for _, s := range t.spans {
		switch {
		case s.Kind == kindVFS && s.Name == "sync":
			b.syncs = append(b.syncs, s.Dur)
		case s.Kind == kindVFS && s.Name == "write":
			b.vfsWriteBytes += int64(s.Bytes)
		case s.Kind == kindServe && s.Node == t.coordAt:
			b.calls.coordServed++
		case s.Kind == kindCall && s.Node == "driver" && s.Name == "sub_poll":
			b.calls.poll++
		case s.Kind == kindCall && s.Node == "driver" && !strings.HasPrefix(s.Name, "sub_") && s.Name != "obs_stats":
			b.calls.client++
		case s.Kind == kindServe && strings.HasPrefix(s.Name, "coord_"):
			b.coordHandler(t, s)
		case s.Kind == kindServe && strings.HasPrefix(s.Name, "replica_"):
			all, syncs := t.vfsDuring(s)
			b.s.add("core."+s.Name+"_self_us", s.Dur-all)
			if s.Name == "replica_write" || s.Name == "replica_wbatch" {
				b.s.add("wal.fsync_wait_us", syncs)
			}
		}
	}
	for _, s := range t.spans {
		if s.Kind == kindOp {
			b.op(t, s)
		}
	}
	return b
}

// coordHandler records one coordinator handler's self time, its wait for
// replicas and how long its slowest replica call outlived it.
func (b *budget) coordHandler(t *trace, h *span) {
	out := t.calls(h, "replica_")
	self := selfTime(h, out)
	wait := h.Dur - self
	b.calls.coordHandlers++
	b.calls.replica += len(out)
	b.s.add("core."+h.Name+"_self_us", self)
	if strings.HasPrefix(h.Name, "coord_w") {
		b.s.add("quorum.write_wait_us", wait)
	} else {
		b.s.add("quorum.read_wait_us", wait)
	}
	var lastEnd int64
	for _, c := range out {
		lastEnd = max(lastEnd, c.end())
		if rh := t.serveOf[c.ID]; rh != nil {
			b.s.add("transport.replica_hop_us", c.Dur-rh.Dur)
		}
	}
	if len(out) > 0 {
		b.s.add("quorum.straggler_us", max(0, lastEnd-h.end()))
	}
}

// op walks one client op down its blocking path.
func (b *budget) op(t *trace, op *span) {
	kind := opKind(0)
	for k, n := range kindNames {
		if n == op.Name {
			kind = opKind(k)
		}
	}
	b.ops++
	calls := t.calls(op, "")
	self := selfTime(op, calls)
	b.s.add("client.op_self_us", self)
	if len(calls) == 0 {
		return
	}
	last := calls[0]
	for _, c := range calls {
		if c.end() > last.end() {
			last = c
		}
	}
	h := t.serveOf[last.ID]
	if h == nil {
		return // the matcher could not link it; counted in trace.unmatched_ratio
	}
	b.s.add("transport.client_hop_us", last.Dur-h.Dur)
	out := t.calls(h, "replica_")
	attributed := self + (last.Dur - h.Dur) + selfTime(h, out)
	// The replica call that let the handler finish: the last to end before it.
	var blocking *span
	for _, c := range out {
		if c.end() <= h.end() && (blocking == nil || c.end() > blocking.end()) {
			blocking = c
		}
	}
	if blocking != nil {
		if rh := t.serveOf[blocking.ID]; rh != nil {
			attributed += blocking.Dur // hop + replica self + its filesystem time
		}
	}
	b.opDur[kind] = append(b.opDur[kind], op.Dur)
	b.opUnattributed[kind] = append(b.opUnattributed[kind], op.Dur-attributed)
}
