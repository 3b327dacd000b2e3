package obs

import (
	"sync/atomic"
	"time"
)

// WideEvent is one fixed-shape record per completed operation — the unit of
// the always-on flight recorder. Unlike the slow-op log (which only retains
// outliers), every op leaves a wide event, so the recorder answers "what was
// the system doing just before X" without any sampling decision made up
// front. Fields are the attribution set an operator pivots on: latency,
// vnode, key hash, tenant, outcome, retry count, breaker/hint flags, and the
// trace id when the op was sampled.
type WideEvent struct {
	Op      string `json:"op"`
	Node    string `json:"node,omitempty"`
	Wall    int64  `json:"wall"` // unix nanos, stamped at record time
	DurNs   int64  `json:"dur_ns"`
	VNode   int32  `json:"vnode"`
	KeyHash uint64 `json:"key_hash,omitempty"`
	Tenant  string `json:"tenant,omitempty"`
	Outcome string `json:"outcome,omitempty"`
	Retries uint32 `json:"retries,omitempty"`
	Flags   uint32 `json:"flags,omitempty"`
	TraceID uint64 `json:"trace_id,omitempty"`
}

// Flag bits on WideEvent.Flags.
const (
	// FlagBreakerOpen: at least one replica breaker was open when the op
	// completed.
	FlagBreakerOpen uint32 = 1 << iota
	// FlagHintsPending: hinted-handoff rows were queued locally.
	FlagHintsPending
	// FlagRetargeted: the client refreshed its ring lease mid-op (NotOwner).
	FlagRetargeted
	// FlagReplicaFailed: one or more replica RPCs failed during the op.
	FlagReplicaFailed
	// FlagWatchdog: synthetic event emitted by the anomaly watchdog, not a
	// client op.
	FlagWatchdog
)

// flightRingSize bounds the recorder. 512 events x ~100B is ~50 KiB per
// process; at 100k ops/s that is still ~5ms of lookback per node plus
// everything the slow-op log force-retains.
const flightRingSize = 512

// flightRing is a lock-free MPMC event buffer: writers claim a slot with one
// atomic add and publish the event with one atomic pointer store. Readers
// walk slots backwards from the claim cursor; a torn read is impossible
// (pointer loads are atomic) — at worst a reader observes an event newer
// than the cursor position it expected, which is harmless for a telemetry
// ring.
type flightRing struct {
	slots [flightRingSize]atomic.Pointer[WideEvent]
	next  atomic.Uint64
}

func (f *flightRing) push(ev *WideEvent) {
	i := f.next.Add(1) - 1
	f.slots[i%flightRingSize].Store(ev)
}

// snapshot returns up to limit events, newest first.
func (f *flightRing) snapshot(limit int) []WideEvent {
	head := f.next.Load()
	n := int(min64(head, flightRingSize))
	if limit > 0 && n > limit {
		n = limit
	}
	if n == 0 {
		return nil
	}
	out := make([]WideEvent, 0, n)
	for i := 0; i < n; i++ {
		slot := (head - 1 - uint64(i)) % flightRingSize
		if ev := f.slots[slot].Load(); ev != nil {
			out = append(out, *ev)
		}
	}
	return out
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// RecordOp appends one wide event to the flight recorder, stamping the node
// name and wall clock. Nil-safe.
func (r *Registry) RecordOp(ev WideEvent) {
	if r == nil {
		return
	}
	if ev.Node == "" {
		if n := r.node.Load(); n != nil {
			ev.Node = *n
		}
	}
	if ev.Wall == 0 {
		ev.Wall = time.Now().UnixNano()
	}
	r.flight.push(&ev)
}

// FlightEvents returns up to limit recorded wide events, newest first.
// limit <= 0 means the whole ring. Nil-safe.
func (r *Registry) FlightEvents(limit int) []WideEvent {
	if r == nil {
		return nil
	}
	return r.flight.snapshot(limit)
}

// RecordKey attributes one op to a hashed key in the registry's hot-key
// sketch. Nil-safe and allocation-free in steady state.
func (r *Registry) RecordKey(hash uint64, vnode int32, write bool, bytes int) {
	if r == nil {
		return
	}
	r.keys.Record(hash, vnode, write, bytes)
}

// TopKeys returns this process's hottest keys, hottest first. Nil-safe.
func (r *Registry) TopKeys(k int) []TopKEntry {
	if r == nil {
		return nil
	}
	return r.keys.Snapshot(k)
}
