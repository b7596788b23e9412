package compress

// Dict is a dictionary codec for streams of length-prefixed strings (the
// wire format the table layer uses for string columns): it collects the
// distinct strings of a block into a symbol table and replaces each
// occurrence by a varint index. Low-cardinality columns (order status,
// priorities, nation names) collapse to ~1 byte per value.
//
// Input format: repeated (len uvarint, bytes). Inputs that do not parse as
// that format are stored verbatim with a marker byte.
var Dict Codec = register(dictCodec{})

type dictCodec struct{}

func (dictCodec) Name() string { return "dict" }

const (
	dictMarker = 0xD1
	rawMarker  = 0x00
)

// parseStrings splits a length-prefixed string stream; ok is false when
// the input is not in that format.
func parseStrings(src []byte) (vals [][]byte, ok bool) {
	for off := 0; off < len(src); {
		n, k := uvarint(src[off:])
		// Guard n before converting: a 2^63+ length would wrap negative.
		// Decode re-emits each length in canonical form, so a padded or
		// overlong varint would not round-trip: such input is not a
		// string stream.
		if k <= 0 || k != uvarintLen(n) || n > uint64(len(src)) || off+k+int(n) > len(src) {
			return nil, false
		}
		off += k
		vals = append(vals, src[off:off+int(n)])
		off += int(n)
	}
	return vals, true
}

func (dictCodec) Encode(dst, src []byte) []byte {
	vals, ok := parseStrings(src)
	if !ok {
		dst = append(dst, rawMarker)
		return append(dst, src...)
	}
	index := map[string]int{}
	var symbols []string
	for _, v := range vals {
		if _, seen := index[string(v)]; !seen {
			index[string(v)] = len(symbols)
			symbols = append(symbols, string(v))
		}
	}
	dst = append(dst, dictMarker)
	dst = putUvarint(dst, uint64(len(symbols)))
	for _, s := range symbols {
		dst = putUvarint(dst, uint64(len(s)))
		dst = append(dst, s...)
	}
	dst = putUvarint(dst, uint64(len(vals)))
	for _, v := range vals {
		dst = putUvarint(dst, uint64(index[string(v)]))
	}
	return dst
}

func (dictCodec) Decode(dst, src []byte) ([]byte, error) {
	if len(src) == 0 {
		return dst, nil
	}
	base, budget := len(dst), decodeBudget(len(src))
	switch src[0] {
	case rawMarker:
		return append(dst, src[1:]...), nil
	case dictMarker:
		src = src[1:]
	default:
		return dst, ErrCorrupt
	}
	nsym, k := uvarint(src)
	// Every symbol needs at least its length byte: bound the count by the
	// input before sizing the table from it.
	if k <= 0 || nsym > uint64(len(src)-k) {
		return dst, ErrCorrupt
	}
	src = src[k:]
	symbols := make([][]byte, 0, nsym)
	for i := uint64(0); i < nsym; i++ {
		n, k := uvarint(src)
		if k <= 0 || uint64(len(src[k:])) < n {
			return dst, ErrCorrupt
		}
		symbols = append(symbols, src[k:k+int(n)])
		src = src[k+int(n):]
	}
	nvals, k := uvarint(src)
	if k <= 0 {
		return dst, ErrCorrupt
	}
	src = src[k:]
	for i := uint64(0); i < nvals; i++ {
		idx, k := uvarint(src)
		if k <= 0 || idx >= uint64(len(symbols)) {
			return dst, ErrCorrupt
		}
		src = src[k:]
		s := symbols[idx]
		dst = putUvarint(dst, uint64(len(s)))
		if len(s) > budget-(len(dst)-base) {
			return dst, ErrCorrupt
		}
		dst = append(dst, s...)
	}
	if len(src) != 0 {
		return dst, ErrCorrupt
	}
	return dst, nil
}

func (dictCodec) Cost() CostModel {
	return CostModel{EncodeCyclesPerByte: 5.0, DecodeCyclesPerByte: 1.8}
}
