package exec

import (
	"fmt"
	"testing"

	"energydb/internal/compress"
	"energydb/internal/table"
)

// TestColumnScanEveryCodecAtEveryDOP scans a multi-block table placed
// under each codec (and a mixed set) serially and as four fragments,
// cloning every batch on receipt. Scans refill one decode buffer and one
// vector per column per block, so a batch that still aliased them after
// its producer moved on would show up here as rows of a later block.
func TestColumnScanEveryCodecAtEveryDOP(t *testing.T) {
	tab := ordersLike(5000)
	const blockRows = 512
	sets := map[string][]compress.Codec{
		"mixed": {compress.Delta, compress.Bitpack, compress.Dict, compress.LZ,
			compress.Bitpack, compress.Dict, compress.Dict},
	}
	for _, c := range []compress.Codec{compress.Raw, compress.RLE, compress.Delta,
		compress.Bitpack, compress.Dict, compress.LZ} {
		cs := make([]compress.Codec, len(tab.Schema.Cols))
		for i := range cs {
			cs[i] = c
		}
		sets[c.Name()] = cs
	}
	all := []int{0, 1, 2, 3, 4, 5, 6}
	for _, name := range []string{"raw", "rle", "delta", "bitpack", "dict", "lz", "mixed"} {
		for _, dop := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/dop%d", name, dop), func(t *testing.T) {
				r := newParRig(dop, 2)
				st, err := PlaceColumnMajor(tab, r.vol, 1, blockRows, sets[name])
				if err != nil {
					t.Fatal(err)
				}
				if st.NumBlocks() < 8 {
					t.Fatalf("only %d blocks", st.NumBlocks())
				}
				var batches []*table.Batch
				r.run(t, func(ctx *Ctx) {
					var op Operator = NewColumnScan(st, all, all, nil)
					if dop > 1 {
						op = parallelColScan(st, all, all, nil, dop, 1)
					}
					if err := op.Open(ctx); err != nil {
						t.Error(err)
						return
					}
					for {
						b, err := op.Next(ctx)
						if err != nil {
							t.Error(err)
							break
						}
						if b == nil {
							break
						}
						batches = append(batches, b.Clone())
					}
					if err := op.Close(ctx); err != nil {
						t.Error(err)
					}
				})
				if len(batches) != st.NumBlocks() {
					t.Fatalf("%d batches from %d blocks", len(batches), st.NumBlocks())
				}
				tablesEqual(t, tab, flattenSorted(t, tab.Schema, batches, 0))
			})
		}
	}
}

// TestColumnScanDecodeAllocFree pins the steady state of the scan's
// decode path: once the first block has sized a serial scan's buffers and
// vectors, decoding further int blocks allocates nothing, under every
// codec, so allocations do not grow with the block count. (Charging and
// I/O go through the simulator, whose events allocate; they are outside
// this measurement.)
func TestColumnScanDecodeAllocFree(t *testing.T) {
	tab := benchInts(64 * 256)
	for _, c := range []compress.Codec{compress.Raw, compress.RLE, compress.Delta,
		compress.Bitpack, compress.Dict, compress.LZ} {
		t.Run(c.Name(), func(t *testing.T) {
			st, err := PlaceColumnMajor(tab, newRig(1).vol, 1, 256, []compress.Codec{c, c})
			if err != nil {
				t.Fatal(err)
			}
			nb := st.NumBlocks()
			s := NewColumnScan(st, []int{0, 1}, []int{0, 1}, nil)
			b := 0
			decodeBlock := func() {
				for i := range s.ReadCols {
					if err := s.decodeColumn(i, b); err != nil {
						t.Fatal(err)
					}
				}
				b = (b + 1) % nb
			}
			if allocs := testing.AllocsPerRun(2*nb, decodeBlock); allocs != 0 {
				t.Fatalf("%d blocks: %v allocations per decoded block, want 0", nb, allocs)
			}
			// The reused vectors hold the rows of the last block decoded.
			lo, _ := st.blockSpan((b + nb - 1) % nb)
			if got := s.read.Vecs[0].I[0]; got != int64(lo) {
				t.Fatalf("last block's first key = %d, want %d", got, lo)
			}
		})
	}
}
