package compress

import (
	"bytes"
	"slices"
	"testing"
)

// lzDecodeBytewise is the reference LZ decoder: the same token walk and
// checks as lzCodec.Decode, but copying every match one byte at a time,
// which is self-evidently right for overlapping matches.
func lzDecodeBytewise(dst, src []byte) ([]byte, error) {
	base := len(dst)
	budget := decodeBudget(len(src))
	for {
		litLen, k := uvarint(src)
		if k <= 0 || uint64(len(src[k:])) < litLen || litLen > uint64(budget-(len(dst)-base)) {
			return dst, ErrCorrupt
		}
		src = src[k:]
		dst = append(dst, src[:litLen]...)
		src = src[litLen:]

		mlen, k := uvarint(src)
		if k <= 0 {
			return dst, ErrCorrupt
		}
		src = src[k:]
		if mlen == 0 {
			if len(src) != 0 {
				return dst, ErrCorrupt
			}
			return dst, nil
		}
		off, k := uvarint(src)
		if k <= 0 {
			return dst, ErrCorrupt
		}
		src = src[k:]
		if off == 0 || off > uint64(len(dst)-base) || mlen > uint64(budget-(len(dst)-base)) {
			return dst, ErrCorrupt
		}
		pos := len(dst) - int(off)
		for j := uint64(0); j < mlen; j++ {
			dst = append(dst, dst[pos+int(j)])
		}
	}
}

// lzToken appends one literal run and match in LZ's token format.
func lzToken(dst, lits []byte, mlen, off uint64) []byte {
	dst = putUvarint(dst, uint64(len(lits)))
	dst = append(dst, lits...)
	dst = putUvarint(dst, mlen)
	return putUvarint(dst, off)
}

func TestLZMatchesBytewiseReference(t *testing.T) {
	// Every overlap shape: offsets below, at and above the match length,
	// with the match running past several doublings of the period.
	for off := uint64(1); off <= 9; off++ {
		for mlen := uint64(1); mlen <= 40; mlen++ {
			src := lzToken(nil, []byte("abcdefghi"), mlen, off)
			src = append(putUvarint(src, 2), 'x', 'y', 0)
			want, werr := lzDecodeBytewise(nil, src)
			got, gerr := LZ.Decode([]byte("prefix"), src)
			if werr != nil || gerr != nil {
				t.Fatalf("off %d mlen %d: errors %v / %v", off, mlen, werr, gerr)
			}
			if !bytes.Equal(got[len("prefix"):], want) {
				t.Fatalf("off %d mlen %d: got %q, want %q", off, mlen, got[len("prefix"):], want)
			}
		}
	}
}

// FuzzDecode feeds arbitrary bytes to every registered codec. A decode
// must fail with ErrCorrupt or produce at most decodeBudget bytes — never
// panic — and LZ must agree byte for byte with the reference decoder.
// The same bytes, taken as a logical block, must survive
// Decode(Encode(x)) under every codec.
func FuzzDecode(f *testing.F) {
	names := Names()
	slices.Sort(names)
	codecs := make([]Codec, len(names))
	for i, n := range names {
		codecs[i], _ = ByName(n)
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{'a'}, 300))
	f.Add(lzToken(nil, []byte("ab"), 50, 2))
	for _, c := range codecs {
		f.Add(c.Encode(nil, []byte("\x04HIGH\x03LOW\x04HIGH\x00\x00\x00\x00\x07\x07")))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range codecs {
			out, err := c.Decode(nil, data)
			if err != nil && err != ErrCorrupt {
				t.Fatalf("%s: error %v is not ErrCorrupt", c.Name(), err)
			}
			if err == nil && len(out) > decodeBudget(len(data)) {
				t.Fatalf("%s: %d bytes out of %d in exceeds the budget", c.Name(), len(out), len(data))
			}
			if c == LZ {
				want, werr := lzDecodeBytewise(nil, data)
				if err != werr || !bytes.Equal(out, want) {
					t.Fatalf("lz: got (%x, %v), reference (%x, %v)", out, err, want, werr)
				}
			}

			enc := c.Encode(nil, data)
			if len(data) > decodeBudget(len(enc)) {
				continue // beyond any real block's expansion
			}
			dec, err := c.Decode(nil, enc)
			if err != nil || !bytes.Equal(dec, data) {
				t.Fatalf("%s: round trip of %x gave (%x, %v)", c.Name(), data, dec, err)
			}
		}
	})
}
