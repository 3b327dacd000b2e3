package ring

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Ring snapshot wire format (little endian). The snapshot is the value of
// the assignment znode in the coordination service and the payload of client
// lease refreshes, so it is kept compact: node names appear once in a string
// table and each vnode slot is a 32-bit index into it.
//
//	u8  format version
//	u64 assignment version
//	u32 vnode count
//	u8  replica factor
//	u32 node table size; per node: u16 length + bytes
//	per vnode, per slot: u32 index into node table (emptySlot = none)
//	per vnode: u64 ownership epoch
const ringFormatVersion = 2

const emptySlot = ^uint32(0)

// ErrCorruptRing reports a snapshot blob that fails to decode.
var ErrCorruptRing = errors.New("ring: corrupt snapshot encoding")

// EncodeRing serialises a ring snapshot.
func EncodeRing(r *Ring) []byte {
	nodes := r.Nodes()
	index := make(map[NodeID]uint32, len(nodes))
	for i, n := range nodes {
		index[n] = uint32(i)
	}
	size := 1 + 8 + 4 + 1 + 4
	for _, n := range nodes {
		size += 2 + len(n)
	}
	size += r.vnodes * r.replicas * 4
	size += r.vnodes * 8
	b := make([]byte, 0, size)
	b = append(b, ringFormatVersion)
	b = binary.LittleEndian.AppendUint64(b, r.version)
	b = binary.LittleEndian.AppendUint32(b, uint32(r.vnodes))
	b = append(b, byte(r.replicas))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(nodes)))
	for _, n := range nodes {
		b = binary.LittleEndian.AppendUint16(b, uint16(len(n)))
		b = append(b, n...)
	}
	for v := 0; v < r.vnodes; v++ {
		owners := r.assign[v]
		for slot := 0; slot < r.replicas; slot++ {
			idx := emptySlot
			if slot < len(owners) && owners[slot] != "" {
				idx = index[owners[slot]]
			}
			b = binary.LittleEndian.AppendUint32(b, idx)
		}
	}
	for v := 0; v < r.vnodes; v++ {
		b = binary.LittleEndian.AppendUint64(b, r.EpochOf(VNodeID(v)))
	}
	return b
}

// DecodeRing parses a snapshot produced by EncodeRing.
func DecodeRing(b []byte) (*Ring, error) {
	off := 0
	need := func(n int) error {
		if len(b)-off < n {
			return fmt.Errorf("%w: truncated at %d", ErrCorruptRing, off)
		}
		return nil
	}
	if err := need(1 + 8 + 4 + 1 + 4); err != nil {
		return nil, err
	}
	format := b[off]
	if format != ringFormatVersion {
		return nil, fmt.Errorf("%w: unknown version %d", ErrCorruptRing, format)
	}
	off++
	version := binary.LittleEndian.Uint64(b[off:])
	off += 8
	vnodes := int(binary.LittleEndian.Uint32(b[off:]))
	off += 4
	replicas := int(b[off])
	off++
	nNodes := int(binary.LittleEndian.Uint32(b[off:]))
	off += 4
	if vnodes <= 0 || vnodes > 1<<24 || replicas <= 0 || replicas > 255 || nNodes > 1<<20 {
		return nil, fmt.Errorf("%w: implausible header (vnodes=%d replicas=%d nodes=%d)", ErrCorruptRing, vnodes, replicas, nNodes)
	}
	nodes := make([]NodeID, nNodes)
	for i := range nodes {
		if err := need(2); err != nil {
			return nil, err
		}
		l := int(binary.LittleEndian.Uint16(b[off:]))
		off += 2
		if err := need(l); err != nil {
			return nil, err
		}
		nodes[i] = NodeID(b[off : off+l])
		off += l
	}
	r := &Ring{vnodes: vnodes, replicas: replicas, version: version, assign: make([][]NodeID, vnodes)}
	if err := need(vnodes * replicas * 4); err != nil {
		return nil, err
	}
	for v := 0; v < vnodes; v++ {
		owners := make([]NodeID, replicas)
		for slot := 0; slot < replicas; slot++ {
			idx := binary.LittleEndian.Uint32(b[off:])
			off += 4
			if idx != emptySlot {
				if int(idx) >= len(nodes) {
					return nil, fmt.Errorf("%w: node index %d out of range", ErrCorruptRing, idx)
				}
				owners[slot] = nodes[idx]
			}
		}
		r.assign[v] = owners
	}
	if err := need(vnodes * 8); err != nil {
		return nil, err
	}
	r.epochs = make([]uint64, vnodes)
	for v := 0; v < vnodes; v++ {
		r.epochs[v] = binary.LittleEndian.Uint64(b[off:])
		off += 8
	}
	if off != len(b) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorruptRing, len(b)-off)
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return r, nil
}
