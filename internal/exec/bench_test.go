package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"energydb/internal/compress"
	"energydb/internal/energy"
	"energydb/internal/hw"
	"energydb/internal/sim"
	"energydb/internal/storage"
	"energydb/internal/table"
)

// benchCtx returns a Ctx with all simulated-hardware cost constants zeroed,
// so benchmarks measure the real CPU work of the executor kernels rather
// than discrete-event bookkeeping: with zero cycles charged, hw.CPU.Use
// returns before touching the event queue and nothing ever parks.
func benchCtx() *Ctx {
	eng := sim.NewEngine()
	cpu := hw.NewCPU(eng, energy.NewMeter(), "cpu", hw.ScanCPU2008())
	return &Ctx{CPU: cpu, Costs: CostParams{}, VectorSize: 4096}
}

// benchInts builds an n-row table of two int64 columns: a sequential key
// and a uniform value in [0, 1000).
func benchInts(n int) *table.Table {
	s := table.NewSchema("ints",
		table.Col("k", table.Int64),
		table.Col("v", table.Int64),
	)
	rng := rand.New(rand.NewSource(42))
	t := table.NewTable(s)
	for i := 0; i < n; i++ {
		t.AppendRow(table.IntVal(int64(i)), table.IntVal(rng.Int63n(1000)))
	}
	return t
}

// benchStrings builds an n-row table of a string column drawn from nGroups
// distinct values plus an int64 payload.
func benchStrings(n, nGroups int) *table.Table {
	s := table.NewSchema("strs",
		table.Col("g", table.String),
		table.Col("v", table.Int64),
	)
	rng := rand.New(rand.NewSource(43))
	groups := make([]string, nGroups)
	for i := range groups {
		groups[i] = fmt.Sprintf("group-%06d", i)
	}
	t := table.NewTable(s)
	for i := 0; i < n; i++ {
		t.AppendRow(table.StrVal(groups[rng.Intn(nGroups)]), table.IntVal(rng.Int63n(1000)))
	}
	return t
}

const benchRows = 1 << 16

// BenchmarkFilterInt drains a ~50% selective int64 comparison filter.
func BenchmarkFilterInt(b *testing.B) {
	tab := benchInts(benchRows)
	ctx := benchCtx()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := RowCount(ctx, &Filter{
			In:   &Values{Tab: tab},
			Pred: &ColConst{Col: 1, Op: Lt, Val: table.IntVal(500)},
		})
		if err != nil {
			b.Fatal(err)
		}
		if n == 0 {
			b.Fatal("no rows passed")
		}
	}
	b.ReportMetric(float64(benchRows)*float64(b.N)/float64(b.Elapsed().Seconds())/1e6, "Mrows/s")
}

// BenchmarkFilterString drains a selective string comparison filter.
func BenchmarkFilterString(b *testing.B) {
	tab := benchStrings(benchRows, 1000)
	ctx := benchCtx()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := RowCount(ctx, &Filter{
			In:   &Values{Tab: tab},
			Pred: &ColConst{Col: 0, Op: Lt, Val: table.StrVal("group-000500")},
		})
		if err != nil {
			b.Fatal(err)
		}
		if n == 0 {
			b.Fatal("no rows passed")
		}
	}
	b.ReportMetric(float64(benchRows)*float64(b.N)/float64(b.Elapsed().Seconds())/1e6, "Mrows/s")
}

// BenchmarkHashAggGroups aggregates 64k rows into 1000 string groups
// (count, sum, min, max over the int payload).
func BenchmarkHashAggGroups(b *testing.B) {
	tab := benchStrings(benchRows, 1000)
	ctx := benchCtx()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg := NewHashAgg(&Values{Tab: tab}, []int{0}, []AggSpec{
			{Func: Count, As: "n"},
			{Func: Sum, Col: 1, As: "s"},
			{Func: Min, Col: 1, As: "lo"},
			{Func: Max, Col: 1, As: "hi"},
		})
		n, err := RowCount(ctx, agg)
		if err != nil {
			b.Fatal(err)
		}
		if n != 1000 {
			b.Fatalf("groups = %d", n)
		}
	}
	b.ReportMetric(float64(benchRows)*float64(b.N)/float64(b.Elapsed().Seconds())/1e6, "Mrows/s")
}

// BenchmarkHashJoinProbe joins a 64k-row probe side against a 256-row
// build side on an int64 key (~25% of probe rows match).
func BenchmarkHashJoinProbe(b *testing.B) {
	probe := benchInts(benchRows) // v in [0, 1000)
	bs := table.NewSchema("dim", table.Col("d_key", table.Int64), table.Col("d_name", table.String))
	build := table.NewTable(bs)
	for i := 0; i < 256; i++ {
		build.AppendRow(table.IntVal(int64(i)), table.StrVal(fmt.Sprintf("dim-%04d", i)))
	}
	ctx := benchCtx()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := NewHashJoin(&Values{Tab: build}, &Values{Tab: probe}, 0, 1)
		n, err := RowCount(ctx, j)
		if err != nil {
			b.Fatal(err)
		}
		if n == 0 {
			b.Fatal("no matches")
		}
	}
	b.ReportMetric(float64(benchRows)*float64(b.N)/float64(b.Elapsed().Seconds())/1e6, "Mrows/s")
}

// BenchmarkFusedExpr drains a projection computing (v*2 + k) / (v + 1)
// over 64k rows (16 batches) through its compiled single kernel,
// operator built once and re-drained per iteration.
func BenchmarkFusedExpr(b *testing.B) {
	tab := benchInts(benchRows)
	expr := &Arith{Op: Div,
		L: &Arith{Op: Add,
			L: &Arith{Op: Mul, L: &ColRef{Col: 1}, R: &Const{Val: table.IntVal(2)}},
			R: &ColRef{Col: 0}},
		R: &Arith{Op: Add, L: &ColRef{Col: 1}, R: &Const{Val: table.IntVal(1)}}}
	ctx := benchCtx()
	p := project(b, &Values{Tab: tab}, []Expr{expr}, "x")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := RowCount(ctx, p)
		if err != nil {
			b.Fatal(err)
		}
		if n != benchRows {
			b.Fatalf("rows = %d", n)
		}
	}
	b.ReportMetric(float64(benchRows)*float64(b.N)/float64(b.Elapsed().Seconds())/1e6, "Mrows/s")
}

// BenchmarkSortInt sorts 64k rows by the random int64 payload column.
func BenchmarkSortInt(b *testing.B) {
	tab := benchInts(benchRows)
	ctx := benchCtx()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := &Sort{In: &Values{Tab: tab}, Keys: []SortKey{{Col: 1}, {Col: 0}}}
		n, err := RowCount(ctx, s)
		if err != nil {
			b.Fatal(err)
		}
		if n != benchRows {
			b.Fatalf("rows = %d", n)
		}
	}
	b.ReportMetric(float64(benchRows)*float64(b.N)/float64(b.Elapsed().Seconds())/1e6, "Mrows/s")
}

// benchScan runs one simulated column scan of tab at the given DOP on a
// fresh multi-core rig and returns the simulated elapsed seconds. Unlike
// the kernel benchmarks above, this path keeps the discrete-event engine
// live (charges are real), because the morsel/merge machinery under test
// *is* simulator bookkeeping plus real block decoding.
func benchScan(b *testing.B, tab *table.Table, codecs []compress.Codec, dop int) float64 {
	b.Helper()
	// Rig construction and placement encoding are per-iteration setup, not
	// the scan under measurement: keep them off the timer.
	b.StopTimer()
	eng := sim.NewEngine()
	meter := energy.NewMeter()
	spec := hw.ScanCPU2008()
	spec.Cores = 8
	cpu := hw.NewCPU(eng, meter, "cpu", spec)
	devs := make([]storage.BlockDevice, 3)
	for i := range devs {
		devs[i] = hw.NewSSD(eng, meter, fmt.Sprintf("ssd%d", i), hw.FlashSSD2008())
	}
	vol := storage.NewVolume("vol", storage.Striped, 16<<10, devs)
	st, err := PlaceColumnMajor(tab, vol, 1, 4096, codecs)
	if err != nil {
		b.Fatal(err)
	}
	eng.Go("query", func(p *sim.Proc) {
		ctx := NewCtx(p, cpu)
		newPred := func() Pred {
			return &ColConst{Col: 1, Op: Lt, Val: table.IntVal(500)}
		}
		var op Operator
		if dop <= 1 {
			op = NewColumnScan(st, []int{0, 1}, []int{0, 1}, newPred())
		} else {
			op = parallelColScan(st, []int{0, 1}, []int{0, 1}, newPred, dop, 0)
		}
		n, err := RowCount(ctx, op)
		if err != nil {
			b.Error(err)
		}
		if n == 0 {
			b.Error("no rows passed")
		}
	})
	b.StartTimer()
	if err := eng.Run(); err != nil {
		b.Fatal(err)
	}
	return eng.Now()
}

// BenchmarkColumnScan measures the full simulated scan path (block
// decode + predicate + event bookkeeping) per codec at DOP 1 and 8. ns/op
// and allocs/op are the real cost of simulating the scan, so they track
// the decode kernels; the sim_ms metric is the *simulated* elapsed time,
// which is what shrinks with DOP. Every case reads two columns and keeps
// about half the rows: two int columns for raw, lz and bitpack; a
// 1000-group string column beside an int column for dict (which stores
// the int column verbatim behind its raw marker).
func BenchmarkColumnScan(b *testing.B) {
	ints, strs := benchInts(benchRows), benchStrings(benchRows, 1000)
	cases := []struct {
		tab   *table.Table
		codec compress.Codec
	}{
		{ints, compress.Raw}, {ints, compress.LZ}, {strs, compress.Dict}, {ints, compress.Bitpack},
	}
	for _, c := range cases {
		codecs := []compress.Codec{c.codec, c.codec}
		for _, dop := range []int{1, 8} {
			b.Run(fmt.Sprintf("%s/dop%d", c.codec.Name(), dop), func(b *testing.B) {
				b.ReportAllocs()
				var simSecs float64
				for i := 0; i < b.N; i++ {
					simSecs = benchScan(b, c.tab, codecs, dop)
				}
				b.ReportMetric(simSecs*1e3, "sim_ms")
				b.ReportMetric(float64(benchRows)*float64(b.N)/float64(b.Elapsed().Seconds())/1e6, "Mrows/s")
			})
		}
	}
}

// benchPipelineRig builds the simulated machine the pipeline benchmarks
// run on (8 cores, 3 SSDs) and returns its parts.
func benchPipelineRig() (*sim.Engine, *hw.CPU, *storage.Volume) {
	eng := sim.NewEngine()
	meter := energy.NewMeter()
	spec := hw.ScanCPU2008()
	spec.Cores = 8
	cpu := hw.NewCPU(eng, meter, "cpu", spec)
	devs := make([]storage.BlockDevice, 3)
	for i := range devs {
		devs[i] = hw.NewSSD(eng, meter, fmt.Sprintf("ssd%d", i), hw.FlashSSD2008())
	}
	return eng, cpu, storage.NewVolume("vol", storage.Striped, 16<<10, devs)
}

// BenchmarkParallelHashAgg measures the partitioned parallel aggregation
// end to end (scan fragments → thread-local partials → partition-wise
// merge) at DOP 1, 4 and 8 over a stored table. sim_ms is the simulated
// elapsed time; ns/op the real cost of simulating it.
func BenchmarkParallelHashAgg(b *testing.B) {
	tab := benchStrings(benchRows, 1000)
	specs := []AggSpec{
		{Func: Count, As: "n"},
		{Func: Sum, Col: 1, As: "s"},
		{Func: Min, Col: 1, As: "lo"},
		{Func: Max, Col: 1, As: "hi"},
	}
	for _, dop := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("dop%d", dop), func(b *testing.B) {
			b.ReportAllocs()
			var simSecs float64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				eng, cpu, vol := benchPipelineRig()
				st, err := PlaceColumnMajor(tab, vol, 1, 4096, rawCodecs(2))
				if err != nil {
					b.Fatal(err)
				}
				eng.Go("query", func(p *sim.Proc) {
					ctx := NewCtx(p, cpu)
					frags, q := colScanFrags(st, []int{0, 1}, []int{0, 1}, nil, dop, 0)
					agg := NewPartitionedHashAgg(frags, q, []int{0}, specs)
					n, err := RowCount(ctx, agg)
					if err != nil {
						b.Error(err)
					}
					if n != 1000 {
						b.Errorf("groups = %d", n)
					}
				})
				b.StartTimer()
				if err := eng.Run(); err != nil {
					b.Fatal(err)
				}
				simSecs = eng.Now()
			}
			b.ReportMetric(simSecs*1e3, "sim_ms")
			b.ReportMetric(float64(benchRows)*float64(b.N)/float64(b.Elapsed().Seconds())/1e6, "Mrows/s")
		})
	}
}

// BenchmarkParallelJoinBuild measures the partitioned parallel hash-join
// build (scan fragments → key partitioning → concurrent per-partition
// table builds) plus a serial probe, at build DOP 1, 4 and 8.
func BenchmarkParallelJoinBuild(b *testing.B) {
	build := benchInts(benchRows) // build side: 64k rows, sequential keys
	probeT := benchInts(1 << 12)  // small probe: the build is what's measured
	for _, dop := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("dop%d", dop), func(b *testing.B) {
			b.ReportAllocs()
			var simSecs float64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				eng, cpu, vol := benchPipelineRig()
				st, err := PlaceColumnMajor(build, vol, 1, 4096, rawCodecs(2))
				if err != nil {
					b.Fatal(err)
				}
				eng.Go("query", func(p *sim.Proc) {
					ctx := NewCtx(p, cpu)
					frags, q := colScanFrags(st, []int{0, 1}, []int{0, 1}, nil, dop, 0)
					j := NewPartitionedHashJoin(frags, q, &Values{Tab: probeT}, 0, 0, dop)
					n, err := RowCount(ctx, j)
					if err != nil {
						b.Error(err)
					}
					if n == 0 {
						b.Error("no matches")
					}
				})
				b.StartTimer()
				if err := eng.Run(); err != nil {
					b.Fatal(err)
				}
				simSecs = eng.Now()
			}
			b.ReportMetric(simSecs*1e3, "sim_ms")
			b.ReportMetric(float64(benchRows)*float64(b.N)/float64(b.Elapsed().Seconds())/1e6, "Mrows/s")
		})
	}
}

// BenchmarkParallelFilterPipeline measures the fragmented filter pipeline
// (scan fragments → per-fragment Filter → Parallel merge → serial agg) at
// DOP 1, 4 and 8 — the scan→filter→agg shape the optimizer sweeps.
func BenchmarkParallelFilterPipeline(b *testing.B) {
	tab := benchInts(benchRows)
	for _, dop := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("dop%d", dop), func(b *testing.B) {
			b.ReportAllocs()
			var simSecs float64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				eng, cpu, vol := benchPipelineRig()
				st, err := PlaceColumnMajor(tab, vol, 1, 4096, rawCodecs(2))
				if err != nil {
					b.Fatal(err)
				}
				eng.Go("query", func(p *sim.Proc) {
					ctx := NewCtx(p, cpu)
					frags, q := colScanFrags(st, []int{0, 1}, []int{0, 1}, nil, dop, 0)
					for i := range frags {
						frags[i] = &Filter{In: frags[i],
							Pred: &ColConst{Col: 1, Op: Lt, Val: table.IntVal(500)}}
					}
					agg := NewHashAgg(NewParallel(frags, q), nil,
						[]AggSpec{{Func: Count, As: "n"}, {Func: Sum, Col: 1, As: "s"}})
					if _, err := RowCount(ctx, agg); err != nil {
						b.Error(err)
					}
				})
				b.StartTimer()
				if err := eng.Run(); err != nil {
					b.Fatal(err)
				}
				simSecs = eng.Now()
			}
			b.ReportMetric(simSecs*1e3, "sim_ms")
			b.ReportMetric(float64(benchRows)*float64(b.N)/float64(b.Elapsed().Seconds())/1e6, "Mrows/s")
		})
	}
}

// BenchmarkParallelProbe measures the fragmented probe pipeline (scan
// fragments → Probers over one shared build → Parallel merge) at probe
// DOP 1, 4 and 8 — the scan→probe→agg shape. The build side is small so
// the probe stream is what's measured.
func BenchmarkParallelProbe(b *testing.B) {
	probeT := benchInts(benchRows) // probe side: 64k rows, what's measured
	build := benchInts(1 << 12)    // small build
	for _, dop := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("dop%d", dop), func(b *testing.B) {
			b.ReportAllocs()
			var simSecs float64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				eng, cpu, vol := benchPipelineRig()
				st, err := PlaceColumnMajor(probeT, vol, 1, 4096, rawCodecs(2))
				if err != nil {
					b.Fatal(err)
				}
				eng.Go("query", func(p *sim.Proc) {
					ctx := NewCtx(p, cpu)
					frags, q := colScanFrags(st, []int{0, 1}, []int{0, 1}, nil, dop, 0)
					sb := NewSharedBuild(&Values{Tab: build}, nil, nil, 0, 1)
					for i := range frags {
						frags[i] = NewProber(sb, frags[i], 0)
					}
					n, err := RowCount(ctx, NewParallel(frags, q))
					if err != nil {
						b.Error(err)
					}
					if n == 0 {
						b.Error("no matches")
					}
				})
				b.StartTimer()
				if err := eng.Run(); err != nil {
					b.Fatal(err)
				}
				simSecs = eng.Now()
			}
			b.ReportMetric(simSecs*1e3, "sim_ms")
			b.ReportMetric(float64(benchRows)*float64(b.N)/float64(b.Elapsed().Seconds())/1e6, "Mrows/s")
		})
	}
}
