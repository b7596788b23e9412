package table

import (
	"math"
	"testing"
)

// dirtyVector returns a vector holding stale values of every physical
// class, as a reused scan vector does after earlier blocks.
func dirtyVector() *Vector {
	v := &Vector{Type: String}
	v.I = append(make([]int64, 0, 64), 7, 8, 9)
	v.F = append(make([]float64, 0, 64), 1.5, math.NaN())
	v.S = append(make([]string, 0, 64), "stale", "values")
	return v
}

// sameVector reports whether v and w have the same type and the same
// values in their physical class (floats compared bit for bit).
func sameVector(v, w *Vector) bool {
	if v.Type != w.Type || v.Len() != w.Len() {
		return false
	}
	for i := 0; i < v.Len(); i++ {
		switch v.Type.Physical() {
		case PhysInt:
			if v.I[i] != w.I[i] {
				return false
			}
		case PhysFloat:
			if math.Float64bits(v.F[i]) != math.Float64bits(w.F[i]) {
				return false
			}
		default:
			if v.S[i] != w.S[i] {
				return false
			}
		}
	}
	return true
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// FuzzDecodeVector checks that decoding into a reused, dirty vector gives
// exactly what a fresh DecodeVector gives — the same values or the same
// error — and that decoding never panics or sizes itself from a count the
// data cannot hold.
func FuzzDecodeVector(f *testing.F) {
	ints := NewVector(Int64, 0)
	ints.Append(IntVal(-3))
	ints.Append(IntVal(1 << 40))
	strs := NewVector(String, 0)
	strs.Append(StrVal(""))
	strs.Append(StrVal("1-URGENT"))
	f.Add(uint8(Int64), 2, ints.EncodeBytes(nil, 0, 2))
	f.Add(uint8(Float64), 1, []byte{0, 0, 0, 0, 0, 0, 0xf8, 0x7f})
	f.Add(uint8(String), 2, strs.EncodeBytes(nil, 0, 2))
	f.Add(uint8(String), 1<<30, []byte{1})
	f.Add(uint8(Date), -1, []byte{})
	f.Fuzz(func(t *testing.T, kind uint8, n int, data []byte) {
		typ := Type(kind % 5)
		want, werr := DecodeVector(typ, data, n)
		v := dirtyVector()
		for round := 0; round < 2; round++ {
			err := DecodeVectorInto(v, typ, data, n)
			if errText(err) != errText(werr) {
				t.Fatalf("%v n=%d round %d: error %q, fresh decode %q", typ, n, round, errText(err), errText(werr))
			}
			if err == nil && !sameVector(v, want) {
				t.Fatalf("%v n=%d round %d: reused vector differs from fresh decode", typ, n, round)
			}
		}
	})
}
