package compress

import "slices"

// RLE is a byte-level run-length codec: the stream is a sequence of
// (run length varint, value byte) pairs. Column-major integer data is full
// of long zero runs (high-order bytes), which is why RLE is a classic
// column-store codec despite its simplicity.
var RLE Codec = register(rleCodec{})

type rleCodec struct{}

func (rleCodec) Name() string { return "rle" }

func (rleCodec) Encode(dst, src []byte) []byte {
	for i := 0; i < len(src); {
		j := i + 1
		for j < len(src) && src[j] == src[i] {
			j++
		}
		dst = putUvarint(dst, uint64(j-i))
		dst = append(dst, src[i])
		i = j
	}
	return dst
}

func (rleCodec) Decode(dst, src []byte) ([]byte, error) {
	budget := decodeBudget(len(src))
	produced := 0
	for len(src) > 0 {
		n, k := uvarint(src)
		if k <= 0 || k >= len(src)+1 {
			return dst, ErrCorrupt
		}
		src = src[k:]
		if len(src) == 0 {
			return dst, ErrCorrupt
		}
		v := src[0]
		src = src[1:]
		if n == 0 || n > uint64(budget-produced) {
			return dst, ErrCorrupt
		}
		produced += int(n)
		// Fill the run in grown capacity.
		start := len(dst)
		dst = slices.Grow(dst, int(n))[:start+int(n)]
		run := dst[start:]
		for i := range run {
			run[i] = v
		}
	}
	return dst, nil
}

func (rleCodec) Cost() CostModel {
	return CostModel{EncodeCyclesPerByte: 1.5, DecodeCyclesPerByte: 0.8}
}

// Delta is an int64 delta + zigzag + varint codec for fixed-width 8-byte
// little-endian integer streams (sorted keys compress to ~1 byte/value).
// Inputs whose length is not a multiple of 8 keep a raw tail.
var Delta Codec = register(deltaCodec{})

type deltaCodec struct{}

func (deltaCodec) Name() string { return "delta" }

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

func le64(b []byte) int64 {
	return int64(uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56)
}

func putLE64(dst []byte, v int64) []byte {
	u := uint64(v)
	return append(dst, byte(u), byte(u>>8), byte(u>>16), byte(u>>24),
		byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
}

func (deltaCodec) Encode(dst, src []byte) []byte {
	n := len(src) / 8
	tail := src[n*8:]
	dst = putUvarint(dst, uint64(n))
	var prev int64
	for i := 0; i < n; i++ {
		v := le64(src[i*8 : i*8+8])
		dst = putUvarint(dst, zigzag(v-prev))
		prev = v
	}
	dst = putUvarint(dst, uint64(len(tail)))
	return append(dst, tail...)
}

func (deltaCodec) Decode(dst, src []byte) ([]byte, error) {
	n, k := uvarint(src)
	if k <= 0 {
		return dst, ErrCorrupt
	}
	src = src[k:]
	var prev int64
	for i := uint64(0); i < n; i++ {
		u, k := uvarint(src)
		if k <= 0 {
			return dst, ErrCorrupt
		}
		src = src[k:]
		prev += unzigzag(u)
		dst = putLE64(dst, prev)
	}
	tn, k := uvarint(src)
	if k <= 0 {
		return dst, ErrCorrupt
	}
	src = src[k:]
	if uint64(len(src)) != tn {
		return dst, ErrCorrupt
	}
	return append(dst, src...), nil
}

func (deltaCodec) Cost() CostModel {
	return CostModel{EncodeCyclesPerByte: 2.2, DecodeCyclesPerByte: 1.6}
}

// Bitpack frame-of-reference packs int64 streams: per 128-value frame it
// stores the minimum and the bit width of offsets, then the packed bits.
var Bitpack Codec = register(bitpackCodec{})

type bitpackCodec struct{}

const bpFrame = 128

func (bitpackCodec) Name() string { return "bitpack" }

func (bitpackCodec) Encode(dst, src []byte) []byte {
	n := len(src) / 8
	tail := src[n*8:]
	dst = putUvarint(dst, uint64(n))
	for f := 0; f < n; f += bpFrame {
		hi := f + bpFrame
		if hi > n {
			hi = n
		}
		lo64 := le64(src[f*8 : f*8+8])
		maxOff := uint64(0)
		for i := f; i < hi; i++ {
			v := le64(src[i*8 : i*8+8])
			if v < lo64 {
				lo64 = v
			}
		}
		for i := f; i < hi; i++ {
			off := uint64(le64(src[i*8:i*8+8]) - lo64)
			if off > maxOff {
				maxOff = off
			}
		}
		width := 0
		for maxOff != 0 {
			width++
			maxOff >>= 1
		}
		dst = putUvarint(dst, zigzag(lo64))
		// Widths above 56 bits cannot be streamed through the 64-bit
		// accumulator without overflow; store such frames raw (width
		// sentinel 255). They are incompressible anyway.
		if width > 56 {
			dst = append(dst, 255)
			dst = append(dst, src[f*8:hi*8]...)
			continue
		}
		dst = append(dst, byte(width))
		var acc uint64
		var bits uint
		for i := f; i < hi; i++ {
			off := uint64(le64(src[i*8:i*8+8]) - lo64)
			acc |= off << bits
			bits += uint(width)
			for bits >= 8 {
				dst = append(dst, byte(acc))
				acc >>= 8
				bits -= 8
			}
		}
		if bits > 0 {
			dst = append(dst, byte(acc))
		}
	}
	dst = putUvarint(dst, uint64(len(tail)))
	return append(dst, tail...)
}

func (bitpackCodec) Decode(dst, src []byte) ([]byte, error) {
	n, k := uvarint(src)
	if k <= 0 {
		return dst, ErrCorrupt
	}
	src = src[k:]
	for f := uint64(0); f < n; f += bpFrame {
		hi := f + bpFrame
		if hi > n {
			hi = n
		}
		cnt := int(hi - f)
		zl, k := uvarint(src)
		if k <= 0 {
			return dst, ErrCorrupt
		}
		src = src[k:]
		lo := unzigzag(zl)
		if len(src) == 0 {
			return dst, ErrCorrupt
		}
		width := int(src[0])
		src = src[1:]
		if width == 255 { // raw frame
			if len(src) < cnt*8 {
				return dst, ErrCorrupt
			}
			dst = append(dst, src[:cnt*8]...)
			src = src[cnt*8:]
			continue
		}
		if width > 56 {
			return dst, ErrCorrupt
		}
		nbytes := (cnt*width + 7) / 8
		if len(src) < nbytes {
			return dst, ErrCorrupt
		}
		var acc uint64
		var bits uint
		bi := 0
		mask := uint64(1)<<uint(width) - 1
		for i := 0; i < cnt; i++ {
			for bits < uint(width) {
				acc |= uint64(src[bi]) << bits
				bi++
				bits += 8
			}
			off := acc & mask
			acc >>= uint(width)
			bits -= uint(width)
			dst = putLE64(dst, lo+int64(off))
		}
		src = src[nbytes:]
	}
	tn, k := uvarint(src)
	if k <= 0 {
		return dst, ErrCorrupt
	}
	src = src[k:]
	if uint64(len(src)) != tn {
		return dst, ErrCorrupt
	}
	return append(dst, src...), nil
}

func (bitpackCodec) Cost() CostModel {
	return CostModel{EncodeCyclesPerByte: 2.0, DecodeCyclesPerByte: 1.2}
}
