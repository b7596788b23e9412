package table

import (
	"encoding/binary"
	"fmt"
	"math"
)

// This file defines the wire encodings shared by the column store, the
// row store and the WAL:
//
//   - int-class values: 8-byte little-endian
//   - float values:     8-byte little-endian of the IEEE bits
//   - strings:          uvarint length + bytes
//
// Column encodings feed the compression codecs (which are byte
// transformers); row encodings form slotted row-store pages.

func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

func appendUvarint(dst []byte, x uint64) []byte {
	for x >= 0x80 {
		dst = append(dst, byte(x)|0x80)
		x >>= 7
	}
	return append(dst, byte(x))
}

func readUvarint(src []byte) (uint64, int) {
	var x uint64
	var s uint
	for i, b := range src {
		if i == 10 {
			return 0, -1
		}
		if b < 0x80 {
			return x | uint64(b)<<s, i + 1
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
	return 0, 0
}

func appendLE64(dst []byte, u uint64) []byte {
	return append(dst, byte(u), byte(u>>8), byte(u>>16), byte(u>>24),
		byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
}

func readLE64(b []byte) uint64 { return binary.LittleEndian.Uint64(b) }

// EncodeBytes appends the wire form of elements [lo, hi) of v to dst.
func (v *Vector) EncodeBytes(dst []byte, lo, hi int) []byte {
	switch v.Type.Physical() {
	case PhysInt:
		for _, x := range v.I[lo:hi] {
			dst = appendLE64(dst, uint64(x))
		}
	case PhysFloat:
		for _, x := range v.F[lo:hi] {
			dst = appendLE64(dst, math.Float64bits(x))
		}
	default:
		for _, s := range v.S[lo:hi] {
			dst = appendUvarint(dst, uint64(len(s)))
			dst = append(dst, s...)
		}
	}
	return dst
}

// DecodeVector parses n values of type t from data, which must contain
// exactly n encoded values, into a fresh vector.
func DecodeVector(t Type, data []byte, n int) (*Vector, error) {
	v := &Vector{Type: t}
	if err := DecodeVectorInto(v, t, data, n); err != nil {
		return nil, err
	}
	return v, nil
}

// DecodeVectorInto is DecodeVector into v: v becomes a vector of type t
// holding the n values, reusing its backing arrays when they are large
// enough, so a caller that decodes block after block into one vector
// allocates nothing but the strings themselves. On error v's contents are
// unspecified.
func DecodeVectorInto(v *Vector, t Type, data []byte, n int) error {
	v.Type = t
	v.Reset()
	switch t.Physical() {
	case PhysInt:
		if n < 0 || len(data)%8 != 0 || len(data)/8 != n {
			return fmt.Errorf("table: int column of %d values needs %d bytes, have %d", n, n*8, len(data))
		}
		v.I = resize(v.I, n)
		for i := range v.I {
			v.I[i] = int64(readLE64(data[i*8:]))
		}
	case PhysFloat:
		if n < 0 || len(data)%8 != 0 || len(data)/8 != n {
			return fmt.Errorf("table: float column of %d values needs %d bytes, have %d", n, n*8, len(data))
		}
		v.F = resize(v.F, n)
		for i := range v.F {
			v.F[i] = math.Float64frombits(readLE64(data[i*8:]))
		}
	default:
		// Every value needs at least its length byte.
		if n < 0 || n > len(data) {
			return fmt.Errorf("table: string column of %d values cannot fit in %d bytes", n, len(data))
		}
		v.S = resize(v.S, n)
		off := 0
		for i := range v.S {
			l, k := readUvarint(data[off:])
			if k <= 0 || l > uint64(len(data)) || off+k+int(l) > len(data) {
				return fmt.Errorf("table: corrupt string column at value %d", i)
			}
			off += k
			v.S[i] = string(data[off : off+int(l)])
			off += int(l)
		}
		if off != len(data) {
			return fmt.Errorf("table: %d trailing bytes after string column", len(data)-off)
		}
	}
	return nil
}

// resize returns s with length n, reusing its backing array when it holds
// n elements. A nil s always gets a fresh (non-nil) array.
func resize[T any](s []T, n int) []T {
	if s == nil || cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// EncodeRows appends the row-major wire form of batch rows [lo, hi): each
// row is its columns' wire values concatenated in schema order. This is
// the row-store page payload and the WAL record body. lo and hi index
// physical rows: a batch carrying a deferred selection must be compacted
// first (Clone, AppendBatch), or filtered-out rows would be encoded.
func (b *Batch) EncodeRows(dst []byte, lo, hi int) []byte {
	if b.Sel != nil {
		panic("table: EncodeRows over a selected batch; compact it first")
	}
	for r := lo; r < hi; r++ {
		for _, v := range b.Vecs {
			dst = v.EncodeBytes(dst, r, r+1)
		}
	}
	return dst
}

// DecodeRows parses n rows in the EncodeRows format into a fresh batch.
func DecodeRows(s *Schema, data []byte, n int) (*Batch, error) {
	b := NewBatch(s, n)
	off := 0
	for r := 0; r < n; r++ {
		for ci, c := range s.Cols {
			switch c.Type.Physical() {
			case PhysInt:
				if off+8 > len(data) {
					return nil, fmt.Errorf("table: truncated row %d col %d", r, ci)
				}
				b.Vecs[ci].I = append(b.Vecs[ci].I, int64(readLE64(data[off:])))
				off += 8
			case PhysFloat:
				if off+8 > len(data) {
					return nil, fmt.Errorf("table: truncated row %d col %d", r, ci)
				}
				b.Vecs[ci].F = append(b.Vecs[ci].F, math.Float64frombits(readLE64(data[off:])))
				off += 8
			default:
				l, k := readUvarint(data[off:])
				if k <= 0 || l > uint64(len(data)) || off+k+int(l) > len(data) {
					return nil, fmt.Errorf("table: corrupt string in row %d col %d", r, ci)
				}
				off += k
				b.Vecs[ci].S = append(b.Vecs[ci].S, string(data[off:off+int(l)]))
				off += int(l)
			}
		}
	}
	if off != len(data) {
		return nil, fmt.Errorf("table: %d trailing bytes after %d rows", len(data)-off, n)
	}
	b.SetRows(n)
	return b, nil
}
