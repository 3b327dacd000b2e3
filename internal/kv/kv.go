// Package kv defines the core data model shared by every Sedna subsystem:
// hierarchical keys, hybrid logical timestamps, versioned values and the
// multi-source value lists that back the paper's write_latest/write_all
// semantics (§III-F), plus the Dirty/Monitors row metadata that drives the
// trigger engine (§IV-C, Fig. 5).
package kv

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// Key is a flat string key. Sedna extends the key implicitly to provide a
// hierarchical data space (§II-A.1): a fully-qualified key has the form
// "dataset/table/name". Use Split/Join to move between the flat and the
// hierarchical representations.
type Key string

// KeySep separates the dataset, table and name components of a Key.
const KeySep = "/"

// Join builds a fully-qualified key from its hierarchy components. Empty
// components are permitted (e.g. a bare name living in the default table).
func Join(dataset, table, name string) Key {
	return Key(dataset + KeySep + table + KeySep + name)
}

// Split breaks a key into its dataset, table and name components. Keys with
// fewer than two separators are treated as living in the default ("" )
// dataset and/or table.
func (k Key) Split() (dataset, table, name string) {
	s := string(k)
	i := strings.Index(s, KeySep)
	if i < 0 {
		return "", "", s
	}
	j := strings.Index(s[i+1:], KeySep)
	if j < 0 {
		return "", s[:i], s[i+1:]
	}
	j += i + 1
	return s[:i], s[i+1 : j], s[j+1:]
}

// Dataset returns the dataset component of the key.
func (k Key) Dataset() string { d, _, _ := k.Split(); return d }

// Table returns the "dataset/table" prefix of the key, the granularity at
// which monitors may also be registered.
func (k Key) Table() string {
	d, t, _ := k.Split()
	return d + KeySep + t
}

// Name returns the final component of the key.
func (k Key) Name() string { _, _, n := k.Split(); return n }

// Timestamp is a hybrid logical clock value. Sedna timestamps every write;
// the paper resolves concurrent writes by "newer timestamp wins"
// (§III-F.1), while this implementation decides supersession causally (Dot,
// DVV) and uses the timestamp only to order siblings — ReadLatest's pick,
// Live's order and sibling eviction. A hybrid clock keeps that order
// meaningful across servers whose wall clocks drift, while remaining
// totally ordered.
type Timestamp struct {
	// Wall is the physical component in nanoseconds since the Unix epoch.
	Wall int64
	// Logical breaks ties between events in the same wall tick.
	Logical uint32
	// Node breaks the remaining ties deterministically; it identifies the
	// server that issued the write.
	Node uint32
}

// ZeroTS is the timestamp older than every real timestamp.
var ZeroTS = Timestamp{}

// Compare returns -1, 0 or +1 as t is older than, equal to, or newer than o.
func (t Timestamp) Compare(o Timestamp) int {
	switch {
	case t.Wall != o.Wall:
		if t.Wall < o.Wall {
			return -1
		}
		return 1
	case t.Logical != o.Logical:
		if t.Logical < o.Logical {
			return -1
		}
		return 1
	case t.Node != o.Node:
		if t.Node < o.Node {
			return -1
		}
		return 1
	}
	return 0
}

// Before reports whether t is strictly older than o.
func (t Timestamp) Before(o Timestamp) bool { return t.Compare(o) < 0 }

// After reports whether t is strictly newer than o.
func (t Timestamp) After(o Timestamp) bool { return t.Compare(o) > 0 }

// IsZero reports whether t is the zero timestamp.
func (t Timestamp) IsZero() bool { return t == ZeroTS }

// String renders the timestamp compactly for logs and test failures.
func (t Timestamp) String() string {
	return fmt.Sprintf("%d.%d@%d", t.Wall, t.Logical, t.Node)
}

// Clock issues monotonically increasing hybrid timestamps for one node. It
// is safe for concurrent use.
type Clock struct {
	node uint32
	now  func() int64

	mu   sync.Mutex
	wall int64
	log  uint32
}

// NewClock returns a Clock owned by the given node id. The zero node id is
// valid. The clock uses the real time; tests may substitute a fake time
// source with NewClockAt.
func NewClock(node uint32) *Clock {
	return NewClockAt(node, func() int64 { return time.Now().UnixNano() })
}

// NewClockAt returns a Clock reading physical time from now. It exists so
// tests can drive the clock deterministically.
func NewClockAt(node uint32, now func() int64) *Clock {
	return &Clock{node: node, now: now}
}

// Now returns the next timestamp, strictly newer than every timestamp this
// clock has previously returned or observed.
func (c *Clock) Now() Timestamp {
	c.mu.Lock()
	defer c.mu.Unlock()
	phys := c.now()
	if phys > c.wall {
		c.wall, c.log = phys, 0
	} else {
		c.log++
	}
	return Timestamp{Wall: c.wall, Logical: c.log, Node: c.node}
}

// Node returns the id this clock stamps into timestamps (and that the
// coordinator mints write dots under).
func (c *Clock) Node() uint32 { return c.node }

// Observe folds a timestamp received from another node into the clock so
// that subsequent local timestamps sort after it (the "receive" rule of a
// hybrid logical clock).
func (c *Clock) Observe(t Timestamp) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.Wall > c.wall || (t.Wall == c.wall && t.Logical > c.log) {
		c.wall, c.log = t.Wall, t.Logical
	}
}

// Versioned is one dotted, timestamped value written by one source. A row's
// value list is a slice of these: write_all's per-source entries and any
// concurrent siblings.
type Versioned struct {
	// Value is the raw payload.
	Value []byte
	// TS is the write timestamp; it orders siblings, it never supersedes.
	TS Timestamp
	// Source identifies the writer, used by write_all to select which
	// list element a write updates (§III-F.1).
	Source string
	// Deleted marks a tombstone: a delete retires the values its context
	// covers like any write, and stays in the row as a value until
	// tombstone GC reclaims the row.
	Deleted bool
	// Dot is the write's causal event id, minted by the coordinator. Every
	// stored value has one; replicas reject a write without one.
	Dot Dot
	// Ctx is the causal context the writer had read when it issued this
	// write: the events the write supersedes. It travels with the value
	// through the replica protocol and hint queues, is consumed by
	// ApplyCausal/Merge, and is never stored in row blobs (the row's Clock
	// absorbs it).
	Ctx DVV
}

// Clone returns a deep copy of v; neither value bytes nor context are
// shared.
func (v Versioned) Clone() Versioned {
	if v.Value != nil {
		dup := make([]byte, len(v.Value))
		copy(dup, v.Value)
		v.Value = dup
	}
	v.Ctx = v.Ctx.Clone()
	return v
}

// Row is the unit Sedna stores per key: the multi-source value list plus the
// two extra columns of Fig. 5, Dirty and Monitors, that the trigger scanner
// consumes.
type Row struct {
	// Values holds the row's value list: the write_all per-source entries
	// and any concurrent siblings. It is kept sorted by (Source, TS, Dot)
	// for deterministic encoding.
	Values []Versioned
	// Dirty is set on every write and cleared by the trigger scanner.
	Dirty bool
	// Monitors lists ids of trigger jobs watching this exact key (table
	// and dataset monitors are resolved from the key hierarchy instead).
	Monitors []uint64
	// Clock is the row's dotted version vector: exactly the write events
	// this replica has observed for the key. A value whose dot another
	// row's clock covers — but which that row no longer holds — was seen
	// and causally superseded there, so Merge discards it instead of
	// resurrecting it.
	Clock DVV
	// Obs counts siblings evicted by the bounded fan-out cap, so capped
	// truncation is never silent: a non-zero Obs tells readers the sibling
	// set is incomplete. Merge takes the max.
	Obs uint32
}

// DefaultSiblingCap bounds the concurrent sibling fan-out per row when the
// caller passes a non-positive cap to ApplyCausal/EnforceSiblingCap.
const DefaultSiblingCap = 16

// Latest returns the freshest live (non-tombstone) value in the row and
// true, or a zero Versioned and false when the row holds none. A newer
// tombstone from one source does not shadow other sources' live values: a
// write_all row keeps per-source semantics, so one source's delete must not
// erase the others' data on read (only that source's own entry).
func (r *Row) Latest() (Versioned, bool) {
	var best Versioned
	found := false
	for _, v := range r.Values {
		if v.Deleted {
			continue
		}
		if !found || v.TS.After(best.TS) {
			best, found = v, true
		}
	}
	return best, found
}

// Live returns the live (non-tombstone) values in the row, freshest first.
func (r *Row) Live() []Versioned {
	out := make([]Versioned, 0, len(r.Values))
	for _, v := range r.Values {
		if !v.Deleted {
			out = append(out, v)
		}
	}
	// insertion sort by descending timestamp; lists are tiny.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].TS.After(out[j-1].TS); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// ApplyCausal applies one dotted write: the replica-side rule of the
// dotted-version-vector protocol, and the only write rule a replica has.
// The write supersedes exactly the stored values its causal context covers;
// everything else is concurrent and is retained as a sibling. ApplyCausal
// returns true when the row changed and false when the event was already
// observed (an idempotent redelivery). v must carry a dot: the replica
// rejects dotless input before it gets here.
//
// latest selects the write_latest discard rules; write_all keeps per-source
// semantics, so the context only discards the writer's own source's values
// there. cap bounds the sibling fan-out (<=0 selects DefaultSiblingCap).
func (r *Row) ApplyCausal(v Versioned, latest bool, cap int) bool {
	if r.Clock.Covers(v.Dot) {
		return false // replay of an observed event
	}
	// Supersession is purely causal: only the write's context retires stored
	// values. Anything TS-based here would depend on what happens to be
	// stored at arrival time, and delivery reordering would make replicas
	// diverge. Program order arrives AS context — the coordinator stamps a
	// blind write with the causal state it has already accepted.
	keep := r.Values[:0]
	for _, w := range r.Values {
		// A covered value was observed by the writer and overwritten. Under
		// write_all the context only retires the writer's own source's
		// values — the other sources' list entries are not its to drop.
		if !(v.Ctx.Covers(w.Dot) && (latest || w.Source == v.Source)) {
			keep = append(keep, w)
		}
	}
	r.Values = keep
	r.Clock.Fold(v.Dot)
	// Folding the whole context into the clock is what lets Merge read
	// covered-and-absent as superseded — and Merge is source-blind. That is
	// only sound because coordinators never ship a write_all context
	// covering another source's events (core.blindCtx): a context that did
	// would poison a reordered replica's clock into discarding that
	// source's acked value from every merged read.
	r.Clock.Union(v.Ctx)
	v.Ctx = nil // contexts are consumed, never stored
	r.Values = append(r.Values, v)
	r.sortValues()
	r.EnforceSiblingCap(cap)
	r.Dirty = true
	return true
}

// EnforceSiblingCap bounds the dotted sibling fan-out: when more than cap
// dotted values are stored, the causally oldest — smallest (TS, Dot) — are
// evicted deterministically, so every replica drops the same ones. Evicted
// dots stay covered by the clock (the eviction propagates through Merge
// instead of resurrecting) and each eviction increments Obs, the witness
// that makes truncation visible to readers. It returns the number of values
// evicted; cap<=0 selects DefaultSiblingCap.
func (r *Row) EnforceSiblingCap(cap int) int {
	if cap <= 0 {
		cap = DefaultSiblingCap
	}
	evicted := 0
	for len(r.Values) > cap {
		victim := 0
		for i := range r.Values {
			if evictBefore(r.Values[i], r.Values[victim]) {
				victim = i
			}
		}
		r.Values = append(r.Values[:victim], r.Values[victim+1:]...)
		evicted++
	}
	if evicted > 0 {
		r.Obs += uint32(evicted)
		r.Dirty = true
	}
	return evicted
}

// evictBefore orders eviction victims: older timestamp first, dot order
// breaking ties — a total order, so replicas evict identically.
func evictBefore(a, b Versioned) bool {
	if c := a.TS.Compare(b.TS); c != 0 {
		return c < 0
	}
	return a.Dot.Less(b.Dot)
}

// Merge folds another row into r: the anti-entropy primitive behind read
// repair, hinted handoff, recovery and migration. It follows the DVV sync
// rule — a value survives unless the other side's clock covers its dot while
// no longer holding it (seen and causally superseded there) — and the clocks
// union. Merge is commutative, associative and idempotent, so replicas
// converge regardless of delivery order. It returns true if r changed.
func (r *Row) Merge(o *Row) bool {
	changed := false
	// Discard r's dotted values the other row observed and dropped.
	if !o.Clock.IsEmpty() {
		keep := r.Values[:0]
		for _, w := range r.Values {
			if o.Clock.Covers(w.Dot) && !o.holdsDot(w.Dot) {
				changed = true
				continue
			}
			keep = append(keep, w)
		}
		r.Values = keep
	}
	// Fold in o's values.
	for _, v := range o.Values {
		if i := r.dotIndex(v.Dot); i >= 0 {
			// Same event on both sides; contents agree unless an actor-id
			// hash collision re-minted the counter (boot-scoped actor ids
			// make that astronomically unlikely, not impossible). Resolve by
			// the deterministic newest-timestamp order so every replica
			// keeps the same — and most recent — winner.
			if !sameValue(r.Values[i], v) && dotCollisionLess(r.Values[i], v) {
				r.Values[i] = v
				r.Values[i].Ctx = nil
				changed = true
			}
			continue
		}
		if r.Clock.Covers(v.Dot) {
			continue // seen and superseded here
		}
		v.Ctx = nil
		r.Values = append(r.Values, v)
		changed = true
	}
	if r.Clock.Union(o.Clock) {
		changed = true
	}
	if o.Obs > r.Obs {
		r.Obs = o.Obs
		changed = true
	}
	if changed {
		r.Dirty = true
		r.sortValues()
	}
	return changed
}

// holdsDot reports whether the row still stores the value of event d.
func (r *Row) holdsDot(d Dot) bool { return r.dotIndex(d) >= 0 }

func (r *Row) dotIndex(d Dot) int {
	for i := range r.Values {
		if r.Values[i].Dot == d {
			return i
		}
	}
	return -1
}

func sameValue(a, b Versioned) bool {
	return a.Source == b.Source && a.TS == b.TS && a.Deleted == b.Deleted && string(a.Value) == string(b.Value)
}

// dotCollisionLess orders two different values minted under the same dot:
// older timestamp loses, ties fall through to tieLess. Total and
// deterministic, so replicas converge on one winner — and it is the newer
// write that survives.
func dotCollisionLess(a, b Versioned) bool {
	if c := a.TS.Compare(b.TS); c != 0 {
		return c < 0
	}
	return tieLess(a, b)
}

// tieLess is an arbitrary but deterministic total order over same-timestamp
// values: tombstones win over live values, then the lexically larger payload
// wins. It only decides pathological dot collisions.
func tieLess(a, b Versioned) bool {
	if a.Deleted != b.Deleted {
		return b.Deleted
	}
	return string(a.Value) < string(b.Value)
}

// sortValues keeps the list in a deterministic total order — by Source,
// then TS, then Dot — so encodings and Equal comparisons are stable across
// replicas even when a source holds multiple concurrent siblings.
func (r *Row) sortValues() {
	less := func(a, b Versioned) bool {
		if a.Source != b.Source {
			return a.Source < b.Source
		}
		if c := a.TS.Compare(b.TS); c != 0 {
			return c < 0
		}
		return a.Dot.Less(b.Dot)
	}
	for i := 1; i < len(r.Values); i++ {
		for j := i; j > 0 && less(r.Values[j], r.Values[j-1]); j-- {
			r.Values[j], r.Values[j-1] = r.Values[j-1], r.Values[j]
		}
	}
}

// RowFromWrite builds the single-value row used to hint one undelivered
// write. For a write_latest the row's clock covers the dot and the
// write's causal context, so delivering the hint by Merge performs the same
// supersession ApplyCausal would have (context-covered siblings at the
// destination are discarded, concurrent ones retained). A write_all hint
// folds only its own dot: ApplyCausal scopes all-mode supersession to the
// writer's source, but Merge's covered-and-absent rule is source-blind — a
// full-context clock on a one-value row would discard other sources' live
// values at the destination. The sibling this leaves behind is retired
// later by merging with any replica whose clock covers it.
func RowFromWrite(v Versioned, latest bool) *Row {
	r := &Row{Values: []Versioned{v.Clone()}}
	r.Clock.Fold(v.Dot)
	if latest {
		r.Clock.Union(v.Ctx)
	}
	r.Values[0].Ctx = nil
	return r
}

// Clone deep-copies the row.
func (r *Row) Clone() *Row {
	c := &Row{Dirty: r.Dirty, Obs: r.Obs, Clock: r.Clock.Clone()}
	c.Values = make([]Versioned, len(r.Values))
	for i, v := range r.Values {
		c.Values[i] = v.Clone()
	}
	if r.Monitors != nil {
		c.Monitors = append([]uint64(nil), r.Monitors...)
	}
	return c
}

// Equal reports whether two rows hold the same value lists and causal state
// (ignoring the Dirty and Monitors bookkeeping columns). Clock and Obs take
// part: replicas whose values agree but whose observed sets differ have not
// converged, and read repair must still run.
func (r *Row) Equal(o *Row) bool {
	if len(r.Values) != len(o.Values) || r.Obs != o.Obs || !r.Clock.Equal(o.Clock) {
		return false
	}
	for i := range r.Values {
		a, b := r.Values[i], o.Values[i]
		if a.Dot != b.Dot || !sameValue(a, b) {
			return false
		}
	}
	return true
}
