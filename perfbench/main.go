// Command perfbench is energydb's benchmark. One invocation runs one
// workload for a fixed host-time budget and prints every metric by name
// with its unit; the last line of standard output is a JSON object
//
//	{"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
//
// holding the end-to-end metrics (-trace 0) or the per-layer metrics
// (-trace 1). Run it from the repository root through run.sh:
//
//	bash perfbench/run.sh --workload diurnal-wire --seed 1 --seconds 20 --trace 0
//
// A run repeats one deterministic round — set-up, timed phase, checks —
// until the budget is spent. Every round of a run submits the same
// statements at the same simulated times to a freshly opened database, so
// its simulated outputs must repeat bit for bit; host-clock metrics are
// medians over rounds. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"energydb/internal/table"
)

// defaultSeed is the workload seed used while a change is written;
// heldOutSeed is kept aside so a claimed gain can be re-checked on inputs
// the change was not tuned on.
const (
	defaultSeed = 1
	heldOutSeed = 2009
)

// After its rounds a run makes extraSetups more set-ups, and keeps making
// them for setupBudget up to maxSetups: set-up takes well under a second,
// so its median needs more samples than a run has rounds.
const (
	extraSetups = 6
	maxSetups   = 100
	setupBudget = time.Second
)

// minRounds is the fewest rounds a run makes, whatever its budget: host
// metrics are medians over rounds and need several samples. A traced run
// alternates traced and untraced rounds, so it needs twice as many.
const minRounds = 3

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", defaultSeed, fmt.Sprintf("workload seed; %d is held out for re-checking claimed gains", heldOutSeed))
	seconds := flag.Float64("seconds", 20, "host seconds to keep starting rounds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.Parse()

	w := workloadByName(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	rounds := minRounds
	if *trace == 1 {
		rounds = 2 * minRounds
	}
	rep, err := measure(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, rounds)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	rep.print(os.Stdout)
	if !rep.correct {
		os.Exit(1)
	}
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is a run's outcome.
type report struct {
	workload    string
	seed        int64
	rounds      int
	correct     bool
	attempted   int64
	failed      int64
	problems    []string
	fingerprint uint64
	inexact     int64 // float result values per round that match the reference only within floatTolerance
	timings     []string
	metrics     map[string]metric
}

func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s  seed %d  rounds %d\n", r.workload, r.seed, r.rounds)
	for _, t := range r.timings {
		fmt.Fprintln(w, t)
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		fmt.Fprintf(w, "  %-34s %16.6g %s\n", n, m.Value, m.Unit)
	}
	frac := 0.0
	if r.attempted > 0 {
		frac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "  %-34s %16.6g %s\n", "failed_frac", frac, "fraction")
	fmt.Fprintf(w, "  %-34s %16d %s\n", "inexact_float_values", r.inexact, "count/round")
	fmt.Fprintf(w, "sim_fingerprint %s %016x\n", r.workload, r.fingerprint)
	for _, p := range r.problems {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", p)
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, r.metrics}
	buf, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain structs of finite numbers always marshal
	}
	fmt.Fprintln(w, string(buf))
}

// measure runs rounds until the budget is spent and at least minRounds
// have run, then checks every round and builds the report.
func measure(w *workload, seed int64, budget time.Duration, traced bool, minRounds int) (*report, error) {
	in := w.inputs(seed)
	var rounds []*round
	start := time.Now()
	for i := 0; i < minRounds || time.Since(start) < budget; i++ {
		var tr *tracer
		if traced && i%2 == 0 {
			tr = newTracer()
		}
		r, err := runRound(w, in, tr, false)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", i, err)
		}
		rounds = append(rounds, r)
	}
	var setups []float64
	setupStart := time.Now()
	for i := 0; i < extraSetups || (i < maxSetups && time.Since(setupStart) < setupBudget); i++ {
		r, err := runRound(w, in, nil, true)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		setups = append(setups, r.setupSeconds())
	}
	// Read the heap high-water mark before the reference database below
	// adds its own.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	peakHeapMB := float64(ms.HeapSys) / (1 << 20)

	rep := &report{workload: w.name, seed: seed, rounds: len(rounds), correct: true,
		fingerprint: rounds[0].fingerprint}
	ref, err := newReference(in)
	if err != nil {
		return nil, err
	}
	bad := map[int]bool{}
	for i, r := range rounds {
		problems := r.problems
		if r.fingerprint != rounds[0].fingerprint {
			problems = append(problems, fmt.Sprintf("sim_fingerprint %016x differs from round 0's %016x", r.fingerprint, rounds[0].fingerprint))
		}
		if err := ref.check(r); err != nil {
			problems = append(problems, err.Error())
		}
		rep.attempted += r.attempted
		traced := ""
		if r.trace != nil {
			traced = " traced"
		}
		rep.timings = append(rep.timings, fmt.Sprintf("  round %d%s: setup %.3f s, timed %.3f s, %d statements",
			i, traced, r.setupSeconds(), r.timed.Seconds(), r.attempted))
		rep.failed += r.failed
		if len(problems) > 0 {
			bad[i] = true
			rep.correct = false
			rep.failed += r.attempted - r.failed // a failed check fails the round
			for _, p := range problems {
				rep.problems = append(rep.problems, fmt.Sprintf("round %d: %s", i, p))
			}
		}
	}
	if rep.failed > 0 {
		rep.correct = false
	}
	rep.inexact = ref.inexact / int64(len(rounds))

	if traced {
		rep.metrics = layerMetrics(rounds, bad)
		rep.metrics["check.inexact_float_values"] = metric{float64(rep.inexact), "count"}
		return rep, nil
	}
	rep.metrics = map[string]metric{}
	for k, v := range rounds[0].sim {
		rep.metrics[k] = v
	}
	setup, rate := setups, []float64(nil)
	for i, r := range rounds {
		if bad[i] {
			continue
		}
		setup = append(setup, r.setupSeconds())
		rate = append(rate, ratio(float64(r.completed), r.timed.Seconds()))
	}
	rep.metrics["setup_s"] = metric{median(setup), "s"}
	rep.metrics["stmts_per_host_s"] = metric{median(rate), "stmt/s"}
	rep.metrics["peak_heap_mb"] = metric{peakHeapMB, "MB"}
	return rep, nil
}

// layerMetrics builds the per-layer report: simulated counters from round
// 0 (every round repeats them), host figures as medians over the traced
// rounds, and the tracing overhead against the untraced rounds between
// them.
func layerMetrics(rounds []*round, bad map[int]bool) map[string]metric {
	out := map[string]metric{}
	for k, v := range rounds[0].layer {
		out[k] = v
	}
	var tracedT, plainT []float64
	setup := map[string][]float64{}
	spans := map[string][]float64{}
	var drain, share, allocB, allocN, cycles []float64
	prof := map[string]float64{}
	var samples float64
	for i, r := range rounds {
		if bad[i] {
			continue
		}
		if r.trace == nil {
			plainT = append(plainT, r.timed.Seconds())
			continue
		}
		tracedT = append(tracedT, r.timed.Seconds())
		for k, v := range r.setup {
			setup[k] = append(setup[k], v.Seconds())
		}
		for k, v := range r.trace.spans {
			for _, d := range v {
				spans[k] = append(spans[k], float64(d)/float64(time.Microsecond))
			}
		}
		drain = append(drain, r.trace.drain.Seconds())
		share = append(share, ratio(r.trace.drain.Seconds(), r.timed.Seconds()))
		n := float64(r.completed)
		allocB = append(allocB, ratio(r.trace.allocBytes, n))
		allocN = append(allocN, ratio(r.trace.allocObjects, n))
		cycles = append(cycles, r.trace.gcCycles)
		for k, v := range r.trace.prof {
			prof[k] += v
			samples += v
		}
	}
	for _, k := range []string{"tpch.generate_s", "core.place_s", "server.connect_s"} {
		out[k] = metric{median(setup[k]), "s"}
	}
	for _, k := range spanNames {
		out[k+".p50"] = metric{percentile(spans[k], 0.50), "us"}
		out[k+".p99"] = metric{percentile(spans[k], 0.99), "us"}
	}
	out["engine.drain_s"] = metric{median(drain), "s"}
	out["engine.drain_share"] = metric{median(share), "fraction"}
	out["gc.alloc_bytes_per_stmt"] = metric{median(allocB), "B"}
	out["gc.alloc_objects_per_stmt"] = metric{median(allocN), "count"}
	out["gc.cycles"] = metric{median(cycles), "count"}
	for _, m := range profModules {
		v := 0.0
		if samples > 0 {
			v = prof[m] / samples
		}
		out["prof."+m] = metric{v, "fraction"}
	}
	overhead := 0.0
	if len(plainT) > 0 && len(tracedT) > 0 {
		overhead = median(tracedT)/median(plainT) - 1
	}
	out["trace.overhead"] = metric{overhead, "fraction"}
	return out
}

// round is one execution of a workload on a freshly opened database.
type round struct {
	setup map[string]time.Duration // tpch.generate_s, core.place_s, server.connect_s
	timed time.Duration

	attempted, failed, completed int64

	fingerprint uint64
	sim         map[string]metric // simulated end-to-end metrics
	layer       map[string]metric // simulated per-layer metrics
	checked     []checkedStmt     // SELECTs to compare against the reference
	problems    []string          // failed checks and firing guards
	trace       *tracer           // nil in an untraced round
}

func (r *round) setupSeconds() float64 {
	var s time.Duration
	for _, d := range r.setup {
		s += d
	}
	return s.Seconds()
}

// checkedStmt is a SELECT over tables no insert touches, with the rows
// it returned.
type checkedStmt struct {
	sql string
	tab *table.Table
}

// median is the middle value of xs (the mean of the two middle ones for
// an even count), 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 0 {
		return (s[m-1] + s[m]) / 2
	}
	return s[m]
}

// percentile returns the p-quantile of xs by nearest rank, 0 when empty.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}
