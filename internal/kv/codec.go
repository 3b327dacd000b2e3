package kv

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Row wire format (little endian):
//
//	u8  format version (2)
//	u8  flags (bit 0: Dirty)
//	u32 obs (evicted-sibling witness)
//	u16 clock entry count
//	per entry: u32 node, u64 base, u16 dot count, u64 per isolated dot
//	u16 value count
//	per value:
//	    u16 source length, source bytes
//	    i64 wall, u32 logical, u32 node
//	    u8  deleted
//	    u32 dot node, u64 dot counter
//	    u32 value length, value bytes
//	u16 monitor count, u64 per monitor id
//
// Version 1, a layout without the causal fields, only ever held dotless
// rows, and no release wrote it; decoders reject it as corrupt.
//
// The codec is hand-rolled rather than gob/json: rows are encoded on every
// store write and decoded on every read, so the hot path must not allocate
// reflection state.

const rowFormat = 2

// ErrCorruptRow is returned when a row blob fails to decode.
var ErrCorruptRow = errors.New("kv: corrupt row encoding")

// EncodedRowSize returns the exact byte length EncodeRow will produce,
// allowing callers to size buffers without a second pass.
func EncodedRowSize(r *Row) int {
	n := 1 + 1 + 4 + EncodedDVVSize(r.Clock) + 2
	for _, v := range r.Values {
		n += 2 + len(v.Source) + 8 + 4 + 4 + 1 + 4 + 8 + 4 + len(v.Value)
	}
	n += 2 + 8*len(r.Monitors)
	return n
}

// AppendRow appends the encoding of r to dst and returns the extended slice.
func AppendRow(dst []byte, r *Row) []byte {
	dst = append(dst, rowFormat)
	var flags byte
	if r.Dirty {
		flags |= 1
	}
	dst = append(dst, flags)
	dst = binary.LittleEndian.AppendUint32(dst, r.Obs)
	dst = AppendDVV(dst, r.Clock)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(r.Values)))
	for _, v := range r.Values {
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(v.Source)))
		dst = append(dst, v.Source...)
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v.TS.Wall))
		dst = binary.LittleEndian.AppendUint32(dst, v.TS.Logical)
		dst = binary.LittleEndian.AppendUint32(dst, v.TS.Node)
		if v.Deleted {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
		dst = binary.LittleEndian.AppendUint32(dst, v.Dot.Node)
		dst = binary.LittleEndian.AppendUint64(dst, v.Dot.Counter)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(v.Value)))
		dst = append(dst, v.Value...)
	}
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(r.Monitors)))
	for _, m := range r.Monitors {
		dst = binary.LittleEndian.AppendUint64(dst, m)
	}
	return dst
}

// EncodeRow returns the binary encoding of r in a freshly allocated buffer.
func EncodeRow(r *Row) []byte {
	return AppendRow(make([]byte, 0, EncodedRowSize(r)), r)
}

// DecodeRow parses a row blob produced by EncodeRow. The returned row does
// not alias b.
func DecodeRow(b []byte) (*Row, error) {
	r := &Row{}
	if err := decodeRow(r, b, true); err != nil {
		return nil, err
	}
	return r, nil
}

// DecodeRowInto parses a row blob into r, reusing r's Values and Monitors
// capacity so steady-state decoding of a stable row allocates nothing.
//
// Ownership rules (the zero-copy contract): every Value slice ALIASES b, so
// r is only valid while b is, and writing into a decoded value corrupts b.
// Source strings are reused from r's previous entries when unchanged and
// freshly allocated otherwise. Use DecodeRow wherever the row outlives the
// input buffer (pooled transport frames, memstore blobs handed to user
// code). On error r's contents are unspecified.
func DecodeRowInto(r *Row, b []byte) error {
	return decodeRow(r, b, false)
}

func decodeRow(r *Row, b []byte, copyBytes bool) error {
	d := rowDecoder{b: b}
	if err := d.version(); err != nil {
		return err
	}
	flags, err := d.u8()
	if err != nil {
		return err
	}
	if r.Obs, err = d.u32(); err != nil {
		return err
	}
	if err = d.clockInto(&r.Clock); err != nil {
		return err
	}
	nv, err := d.u16()
	if err != nil {
		return err
	}
	r.Dirty = flags&1 != 0
	prev := r.Values
	if cap(r.Values) < int(nv) {
		r.Values = make([]Versioned, 0, nv)
	} else {
		r.Values = r.Values[:0]
	}
	for i := 0; i < int(nv); i++ {
		var v Versioned
		src, err := d.bytes16()
		if err != nil {
			return err
		}
		// Reuse the previous decode's Source string when it is unchanged;
		// the comparison itself does not allocate.
		if i < len(prev) && prev[i].Source == string(src) {
			v.Source = prev[i].Source
		} else {
			v.Source = string(src)
		}
		wall, err := d.u64()
		if err != nil {
			return err
		}
		v.TS.Wall = int64(wall)
		if v.TS.Logical, err = d.u32(); err != nil {
			return err
		}
		if v.TS.Node, err = d.u32(); err != nil {
			return err
		}
		del, err := d.u8()
		if err != nil {
			return err
		}
		v.Deleted = del != 0
		if v.Dot.Node, err = d.u32(); err != nil {
			return err
		}
		if v.Dot.Counter, err = d.u64(); err != nil {
			return err
		}
		val, err := d.bytes32()
		if err != nil {
			return err
		}
		if copyBytes {
			v.Value = append([]byte(nil), val...)
		} else {
			v.Value = val
		}
		r.Values = append(r.Values, v)
	}
	nm, err := d.u16()
	if err != nil {
		return err
	}
	if cap(r.Monitors) < int(nm) {
		if nm > 0 {
			r.Monitors = make([]uint64, 0, nm)
		}
	} else {
		r.Monitors = r.Monitors[:0]
	}
	for i := 0; i < int(nm); i++ {
		m, err := d.u64()
		if err != nil {
			return err
		}
		r.Monitors = append(r.Monitors, m)
	}
	if len(d.b) != d.off {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorruptRow, len(d.b)-d.off)
	}
	return nil
}

// DecodeRowClock parses only the causal clock out of a row blob. The
// coordinator's blind-write context fill needs nothing else, and the clock
// sits ahead of the value list, so this costs a few header bytes instead of
// a full row decode.
func DecodeRowClock(b []byte) (DVV, error) {
	d := rowDecoder{b: b}
	if err := d.version(); err != nil {
		return nil, err
	}
	if _, err := d.u8(); err != nil { // flags
		return nil, err
	}
	if _, err := d.u32(); err != nil { // obs
		return nil, err
	}
	var c DVV
	if err := d.clockInto(&c); err != nil {
		return nil, err
	}
	return c, nil
}

type rowDecoder struct {
	b   []byte
	off int
}

// version reads the format byte and rejects every version but rowFormat.
func (d *rowDecoder) version() error {
	ver, err := d.u8()
	if err != nil {
		return err
	}
	if ver != rowFormat {
		return fmt.Errorf("%w: unknown version %d", ErrCorruptRow, ver)
	}
	return nil
}

// clockInto decodes a DVV into c, reusing entry capacity (the warmed
// zero-copy path); isolated-dot slices are reused per entry when present.
func (d *rowDecoder) clockInto(c *DVV) error {
	ne, err := d.u16()
	if err != nil {
		return err
	}
	prev := (*c)[:cap(*c)]
	if cap(*c) < int(ne) {
		*c = make(DVV, 0, ne)
		prev = nil
	} else {
		*c = (*c)[:0]
	}
	for i := 0; i < int(ne); i++ {
		var e DVVEntry
		if i < len(prev) {
			e.Dots = prev[i].Dots[:0]
		}
		if e.Node, err = d.u32(); err != nil {
			return err
		}
		if e.Base, err = d.u64(); err != nil {
			return err
		}
		nd, err := d.u16()
		if err != nil {
			return err
		}
		if cap(e.Dots) < int(nd) {
			e.Dots = make([]uint64, 0, nd)
		}
		for j := 0; j < int(nd); j++ {
			v, err := d.u64()
			if err != nil {
				return err
			}
			e.Dots = append(e.Dots, v)
		}
		if nd == 0 && cap(e.Dots) == 0 {
			e.Dots = nil
		}
		*c = append(*c, e)
	}
	return nil
}

func (d *rowDecoder) need(n int) error {
	if len(d.b)-d.off < n {
		return fmt.Errorf("%w: truncated at offset %d (need %d of %d)", ErrCorruptRow, d.off, n, len(d.b))
	}
	return nil
}

func (d *rowDecoder) u8() (byte, error) {
	if err := d.need(1); err != nil {
		return 0, err
	}
	v := d.b[d.off]
	d.off++
	return v, nil
}

func (d *rowDecoder) u16() (uint16, error) {
	if err := d.need(2); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint16(d.b[d.off:])
	d.off += 2
	return v, nil
}

func (d *rowDecoder) u32() (uint32, error) {
	if err := d.need(4); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v, nil
}

func (d *rowDecoder) u64() (uint64, error) {
	if err := d.need(8); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v, nil
}

func (d *rowDecoder) bytes16() ([]byte, error) {
	n, err := d.u16()
	if err != nil {
		return nil, err
	}
	if err := d.need(int(n)); err != nil {
		return nil, err
	}
	v := d.b[d.off : d.off+int(n)]
	d.off += int(n)
	return v, nil
}

func (d *rowDecoder) bytes32() ([]byte, error) {
	n, err := d.u32()
	if err != nil {
		return nil, err
	}
	if err := d.need(int(n)); err != nil {
		return nil, err
	}
	v := d.b[d.off : d.off+int(n)]
	d.off += int(n)
	return v, nil
}
