package kv

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// Dotted version vectors (Preguiça, Baquero et al.) give Sedna the causal
// metadata that distinguishes "newer" from "concurrent": every replicated
// write is tagged with a Dot — a globally unique event id — and every row
// carries a DVV summarising exactly which dots it has observed. A write
// supersedes precisely the values its causal context covers; everything else
// is concurrent and is retained as a sibling instead of being silently
// discarded by the timestamp rule (§III-F.1's lost-update bug).

// Dot is one write event: the Counter-th write coordinated by Node for this
// key. The zero Dot names no event.
type Dot struct {
	// Node identifies the coordinator that minted the event (the same id
	// the node stamps into Timestamp.Node).
	Node uint32
	// Counter is the per-(node,key) sequence number, starting at 1.
	Counter uint64
}

// IsZero reports whether d is the zero dot, which names no event.
func (d Dot) IsZero() bool { return d == Dot{} }

// Less orders dots deterministically (by node, then counter); it only
// exists so sibling eviction and encoding are stable across replicas.
func (d Dot) Less(o Dot) bool {
	if d.Node != o.Node {
		return d.Node < o.Node
	}
	return d.Counter < o.Counter
}

// String renders the dot compactly for logs and test failures.
func (d Dot) String() string { return fmt.Sprintf("(%d,%d)", d.Node, d.Counter) }

// DVVEntry is one node's slice of a DVV. Unlike a classic version vector —
// whose single max counter would wrongly "cover" in-flight events it has
// never seen (delivery of dot 6 before dot 4 would drop dot 4 as seen) —
// the entry keeps the exact observed set: the contiguous prefix 1..Base
// plus any isolated counters beyond it, which fold back into Base as the
// gaps fill.
type DVVEntry struct {
	Node uint32
	// Base means every counter in 1..Base has been observed.
	Base uint64
	// Dots lists observed counters > Base+1, sorted ascending, each unique.
	Dots []uint64
}

// DVV is a dotted version vector: per node, the exact set of observed write
// events for one key. Entries are kept sorted by Node for deterministic
// encoding. The zero value is the empty (nothing observed) vector.
type DVV []DVVEntry

// find returns the index of node's entry, or -1.
func (c DVV) find(node uint32) int {
	for i := range c {
		if c[i].Node == node {
			return i
		}
	}
	return -1
}

// Covers reports whether the vector has observed event d. The zero dot is
// never covered.
func (c DVV) Covers(d Dot) bool {
	if d.IsZero() {
		return false
	}
	i := c.find(d.Node)
	if i < 0 {
		return false
	}
	e := &c[i]
	if d.Counter <= e.Base {
		return true
	}
	j := sort.Search(len(e.Dots), func(k int) bool { return e.Dots[k] >= d.Counter })
	return j < len(e.Dots) && e.Dots[j] == d.Counter
}

// Fold records event d as observed, absorbing any isolated dots that become
// contiguous with the base. Folding the zero dot is a no-op.
func (c *DVV) Fold(d Dot) {
	if d.IsZero() {
		return
	}
	i := c.find(d.Node)
	if i < 0 {
		// Insert keeping the node order.
		i = sort.Search(len(*c), func(k int) bool { return (*c)[k].Node >= d.Node })
		*c = append(*c, DVVEntry{})
		copy((*c)[i+1:], (*c)[i:])
		(*c)[i] = DVVEntry{Node: d.Node}
	}
	e := &(*c)[i]
	switch {
	case d.Counter <= e.Base:
		return
	case d.Counter == e.Base+1:
		e.Base = d.Counter
		e.absorb()
	default:
		j := sort.Search(len(e.Dots), func(k int) bool { return e.Dots[k] >= d.Counter })
		if j < len(e.Dots) && e.Dots[j] == d.Counter {
			return
		}
		e.Dots = append(e.Dots, 0)
		copy(e.Dots[j+1:], e.Dots[j:])
		e.Dots[j] = d.Counter
	}
}

// ExtendBase raises node's contiguous base to at least counter, swallowing
// isolated dots the widened base now covers. A coordinator uses this to make
// a blind write's context cover the writer's own minted history 1..counter
// even when some of those writes have not yet applied locally. counter 0 is
// a no-op.
func (c *DVV) ExtendBase(node uint32, counter uint64) {
	if counter == 0 {
		return
	}
	i := c.find(node)
	if i < 0 {
		i = sort.Search(len(*c), func(k int) bool { return (*c)[k].Node >= node })
		*c = append(*c, DVVEntry{})
		copy((*c)[i+1:], (*c)[i:])
		(*c)[i] = DVVEntry{Node: node}
	}
	e := &(*c)[i]
	if counter <= e.Base {
		return
	}
	k := 0
	for k < len(e.Dots) && e.Dots[k] <= counter {
		k++
	}
	if k > 0 {
		e.Dots = e.Dots[:copy(e.Dots, e.Dots[k:])]
	}
	e.Base = counter
	e.absorb()
}

// absorb advances Base over any now-contiguous isolated dots.
func (e *DVVEntry) absorb() {
	k := 0
	for k < len(e.Dots) && e.Dots[k] <= e.Base+1 {
		if e.Dots[k] == e.Base+1 {
			e.Base++
		}
		k++
	}
	if k > 0 {
		e.Dots = e.Dots[:copy(e.Dots, e.Dots[k:])]
	}
}

// Union folds every event of o into c (the vector join). It returns true
// when c changed.
func (c *DVV) Union(o DVV) bool {
	changed := false
	for _, oe := range o {
		i := c.find(oe.Node)
		if i < 0 {
			i = sort.Search(len(*c), func(k int) bool { return (*c)[k].Node >= oe.Node })
			*c = append(*c, DVVEntry{})
			copy((*c)[i+1:], (*c)[i:])
			(*c)[i] = DVVEntry{Node: oe.Node}
			changed = true
		}
		e := &(*c)[i]
		if oe.Base > e.Base {
			e.Base = oe.Base
			changed = true
		}
		for _, d := range oe.Dots {
			if d <= e.Base {
				continue
			}
			j := sort.Search(len(e.Dots), func(k int) bool { return e.Dots[k] >= d })
			if j < len(e.Dots) && e.Dots[j] == d {
				continue
			}
			e.Dots = append(e.Dots, 0)
			copy(e.Dots[j+1:], e.Dots[j:])
			e.Dots[j] = d
			changed = true
		}
		e.absorb()
	}
	return changed
}

// MaxCounter returns the largest observed counter for node (0 when none) —
// the seed for a coordinator re-minting dots after a restart.
func (c DVV) MaxCounter(node uint32) uint64 {
	i := c.find(node)
	if i < 0 {
		return 0
	}
	e := &c[i]
	if n := len(e.Dots); n > 0 {
		return e.Dots[n-1]
	}
	return e.Base
}

// Equal reports whether two vectors describe the same observed set.
func (c DVV) Equal(o DVV) bool {
	if len(c) != len(o) {
		return false
	}
	for i := range c {
		a, b := &c[i], &o[i]
		if a.Node != b.Node || a.Base != b.Base || len(a.Dots) != len(b.Dots) {
			return false
		}
		for j := range a.Dots {
			if a.Dots[j] != b.Dots[j] {
				return false
			}
		}
	}
	return true
}

// Clone deep-copies the vector.
func (c DVV) Clone() DVV {
	if c == nil {
		return nil
	}
	out := make(DVV, len(c))
	for i, e := range c {
		out[i] = DVVEntry{Node: e.Node, Base: e.Base}
		if e.Dots != nil {
			out[i].Dots = append([]uint64(nil), e.Dots...)
		}
	}
	return out
}

// IsEmpty reports whether nothing has been observed.
func (c DVV) IsEmpty() bool { return len(c) == 0 }

// String renders the vector compactly for logs and test failures.
func (c DVV) String() string {
	s := "{"
	for i, e := range c {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%d:%d%v", e.Node, e.Base, e.Dots)
	}
	return s + "}"
}

// --- standalone DVV encoding (causal contexts on the wire) ---

// EncodedDVVSize returns the exact byte length AppendDVV will produce.
func EncodedDVVSize(c DVV) int {
	n := 2
	for _, e := range c {
		n += 4 + 8 + 2 + 8*len(e.Dots)
	}
	return n
}

// AppendDVV appends the binary encoding of c to dst. The empty vector
// encodes to two zero bytes; clients treat it as "no context".
func AppendDVV(dst []byte, c DVV) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(c)))
	for _, e := range c {
		dst = binary.LittleEndian.AppendUint32(dst, e.Node)
		dst = binary.LittleEndian.AppendUint64(dst, e.Base)
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(e.Dots)))
		for _, d := range e.Dots {
			dst = binary.LittleEndian.AppendUint64(dst, d)
		}
	}
	return dst
}

// EncodeDVV returns the binary encoding of c in a fresh buffer.
func EncodeDVV(c DVV) []byte { return AppendDVV(make([]byte, 0, EncodedDVVSize(c)), c) }

// DecodeDVV parses an encoding produced by AppendDVV. Nil or empty input
// decodes to the empty vector (a blind write's context).
func DecodeDVV(b []byte) (DVV, error) {
	if len(b) == 0 {
		return nil, nil
	}
	d := rowDecoder{b: b}
	c, err := decodeDVV(&d)
	if err != nil {
		return nil, err
	}
	if d.off != len(d.b) {
		return nil, fmt.Errorf("%w: %d trailing context bytes", ErrCorruptRow, len(d.b)-d.off)
	}
	return c, nil
}

func decodeDVV(d *rowDecoder) (DVV, error) {
	ne, err := d.u16()
	if err != nil {
		return nil, err
	}
	if ne == 0 {
		return nil, nil
	}
	c := make(DVV, 0, ne)
	for i := 0; i < int(ne); i++ {
		var e DVVEntry
		if e.Node, err = d.u32(); err != nil {
			return nil, err
		}
		if e.Base, err = d.u64(); err != nil {
			return nil, err
		}
		nd, err := d.u16()
		if err != nil {
			return nil, err
		}
		if nd > 0 {
			e.Dots = make([]uint64, 0, nd)
			for j := 0; j < int(nd); j++ {
				v, err := d.u64()
				if err != nil {
					return nil, err
				}
				e.Dots = append(e.Dots, v)
			}
		}
		c = append(c, e)
	}
	return c, nil
}
