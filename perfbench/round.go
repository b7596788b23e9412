package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"strings"
	"time"

	"energydb/internal/core"
	"energydb/internal/energy"
	"energydb/internal/fault"
	"energydb/internal/table"
	"energydb/internal/tpch"
)

// attrTolerance is how far Σ attributed + idle floor may sit from the
// meter, in joules.
const attrTolerance = 1e-6

// runRound runs one round of w and derives its simulated metrics, its
// sim_fingerprint and the outcome of its in-round checks and guards.
// With setupOnly it stops after set-up and returns only set-up times.
func runRound(w *workload, in *inputs, tr *tracer, setupOnly bool) (*round, error) {
	// Start every round from a collected heap, so no round pays for the
	// garbage of the one before it.
	runtime.GC()
	r := &round{setup: map[string]time.Duration{}, trace: tr}
	o, err := w.round(in, &roundCtx{r: r, tr: tr, setupOnly: setupOnly})
	if err != nil {
		return nil, err
	}
	if o == nil {
		return r, nil // set-up only
	}
	summarize(w, o, r)
	r.problems = append(r.problems, o.problems...)
	r.problems = append(r.problems, w.guard(o, r)...)
	r.checked = o.checked
	return r, nil
}

// summarize fills r's attempted/failed/completed counts, simulated
// metrics and fingerprint from a round's outcome. Everything it reads is
// on the simulated clock, so it repeats bit for bit across rounds.
func summarize(w *workload, o *outcome, r *round) {
	db := o.db
	now := db.Srv.Eng.Now()

	// Latency counts from the due time. A session runs its statements one
	// after another, so in an open loop a statement is submitted when it
	// is due or when its predecessor on the session finishes, whichever is
	// later; in a closed loop it is due when its predecessor finishes.
	prevEnd := map[int]float64{}
	lat := map[string][]float64{}
	var critical, hits, failed, granted, selects float64
	h := fnv.New64a()
	for _, s := range o.stmts {
		start := math.Max(s.at, prevEnd[s.stream])
		end := start + s.elapsed
		prevEnd[s.stream] = end
		due := start
		if w.open {
			due = s.at
		}
		ok := s.err == nil
		if ok {
			lat[s.class] = append(lat[s.class], 1000*(end-due))
			granted += float64(s.granted)
			selects++
		} else {
			failed++
		}
		if s.class == w.critical {
			critical++
			if ok && (s.deadline == 0 || end <= s.deadline) {
				hits++
			}
		}
		hashWords(h, s.class, s.rows, math.Float64bits(s.elapsed), math.Float64bits(s.attributed), errCode(s.err))
	}
	for _, b := range o.bills {
		hashWords(h, math.Float64bits(b))
	}
	hashWords(h, math.Float64bits(o.meterJ), math.Float64bits(o.unattributedJ), math.Float64bits(now))
	r.fingerprint = h.Sum64()

	r.attempted = int64(len(o.stmts)) + o.inserts
	r.failed = int64(failed) + o.insertErrs
	r.completed = r.attempted - r.failed
	completed := float64(r.completed)

	idleW := float64(db.Srv.IdlePower())
	gap := math.Abs(o.meterJ - (o.billedJ + o.unattributedJ))
	if gap > attrTolerance {
		r.problems = append(r.problems, fmt.Sprintf("billing does not close: meter %.9g J, Σ attributed + idle floor %.9g J (gap %.3g J)",
			o.meterJ, o.billedJ+o.unattributedJ, gap))
	}
	cl := lat[w.critical]
	r.sim = map[string]metric{
		"sim_p50_ms":          {percentile(cl, 0.50), "ms"},
		"sim_p90_ms":          {percentile(cl, 0.90), "ms"},
		"sim_p99_ms":          {percentile(cl, 0.99), "ms"},
		"deadline_hit_rate":   {ratio(hits, critical), "fraction"},
		"sim_stmts_per_s":     {ratio(completed, now), "stmt/sim-s"},
		"meter_j_per_stmt":    {ratio(o.meterJ, completed), "J"},
		"marginal_j_per_stmt": {ratio(o.meterJ-idleW*now, completed), "J"},
	}

	st := db.SchedStats()
	cpu := db.Srv.CPU
	vol := db.Vol.Stats()
	pool := db.Pool.Stats()
	var seeks, spinups float64
	for _, d := range db.Srv.Disks {
		ds := d.Stats()
		seeks += float64(ds.Seeks)
		spinups += float64(ds.SpinUps)
	}
	comp := map[string]float64{}
	for _, ce := range db.Srv.Meter.Breakdown(energy.Seconds(now)) {
		name := ce.Name[strings.LastIndex(ce.Name, "/")+1:]
		name = strings.TrimRight(name, "0123456789")
		comp[name] += float64(ce.Energy)
	}
	l := map[string]metric{
		"sched.mean_wait_ms":              {1000 * st.MeanWait(), "ms"},
		"sched.waited_frac":               {ratio(float64(st.Waited), float64(st.Submitted)), "fraction"},
		"sched.peak_queue":                {float64(st.PeakQueue), "count"},
		"sched.peak_active":               {float64(st.PeakActive), "count"},
		"sched.expired":                   {float64(st.Expired), "count"},
		"sched.regrants":                  {float64(st.Regrants), "count"},
		"sched.mean_granted_cores":        {ratio(granted, selects), "cores"},
		"class.analytic.p50_ms":           {percentile(lat[classAnalytic], 0.50), "ms"},
		"class.analytic.p99_ms":           {percentile(lat[classAnalytic], 0.99), "ms"},
		"class.report.p50_ms":             {percentile(lat[classReport], 0.50), "ms"},
		"class.insert.count":              {float64(o.inserts), "count"},
		"hw.cpu_busy_core_s":              {cpu.BusyCoreSeconds(), "core-s"},
		"hw.cpu_peak_busy_cores":          {float64(cpu.PeakBusyCores()), "cores"},
		"hw.cpu_util":                     {cpu.Utilization(), "fraction"},
		"storage.pages_read_per_stmt":     {ratio(float64(vol.PagesRead), completed), "pages"},
		"storage.bytes_read_per_stmt":     {ratio(float64(vol.BytesRead), completed), "B"},
		"hw.disk_seeks":                   {seeks, "count"},
		"hw.disk_spinups":                 {spinups, "count"},
		"buffer.requests":                 {float64(pool.Hits + pool.Misses), "count"},
		"buffer.hit_rate":                 {pool.HitRate(), "fraction"},
		"energy.idle_floor_share":         {ratio(idleW*now, o.meterJ), "fraction"},
		"energy.cpu_j":                    {comp["cpu"], "J"},
		"energy.disk_j":                   {comp["disk"], "J"},
		"energy.dram_j":                   {comp["dram"], "J"},
		"energy.attr_gap_j":               {gap, "J"},
		"server.plancache_hit_rate":       {ratio(float64(o.cacheHits), float64(o.cacheHits+o.cacheMisses)), "fraction"},
		"core.stored_bytes_per_user_byte": {storedPerUserByte(db), "B/B"},
	}
	var ws struct{ commits, perFlush, commitMs, devPerUser float64 }
	if db.Log != nil {
		s := db.Log.Stats()
		ws.commits = float64(s.Commits)
		ws.perFlush = ratio(float64(s.Commits), float64(s.Flushes))
		ws.commitMs = 1000 * s.MeanLatency()
		ws.devPerUser = ratio(float64(s.DeviceBytes), float64(s.BytesWritten))
	}
	l["wal.commits"] = metric{ws.commits, "count"}
	l["wal.commits_per_flush"] = metric{ws.perFlush, "count"}
	l["wal.mean_commit_ms"] = metric{ws.commitMs, "ms"}
	l["wal.device_bytes_per_user_byte"] = metric{ws.devPerUser, "B/B"}
	r.layer = l
}

// storedPerUserByte is the bytes every placed variant of every table
// occupies on the volume over the tables' uncompressed bytes.
func storedPerUserByte(db *core.DB) float64 {
	var stored, user float64
	for _, name := range db.Catalog.Names() {
		p, err := db.Catalog.Get(name)
		if err != nil || len(p.Variants) == 0 {
			continue
		}
		for _, v := range p.Variants {
			stored += float64(v.ST.EncodedBytes())
		}
		user += float64(p.Variants[0].ST.RawBytes())
	}
	return ratio(stored, user)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// errCode folds a statement's outcome into the fingerprint: 0 for
// success, else which taxonomy class the error belongs to.
func errCode(err error) uint64 {
	switch {
	case err == nil:
		return 0
	case errors.Is(err, fault.ErrDeadlineExceeded):
		return 1
	default:
		return 2
	}
}

func hashWords(h hash.Hash, words ...any) {
	var buf [8]byte
	for _, w := range words {
		switch v := w.(type) {
		case string:
			h.Write([]byte(v))
			h.Write([]byte{0})
		case uint64:
			binary.LittleEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		}
	}
}

// fingerprintTable hashes a result's rows with full float bits. An empty
// result and a missing one hash alike.
func fingerprintTable(t *table.Table) uint64 {
	h := fnv.New64a()
	if t == nil {
		return h.Sum64()
	}
	for i := 0; i < t.Rows(); i++ {
		for c := range t.Schema.Cols {
			v := t.Column(c)
			switch {
			case v.I != nil:
				hashWords(h, uint64(v.I[i]))
			case v.F != nil:
				hashWords(h, math.Float64bits(v.F[i]))
			default:
				hashWords(h, v.S[i])
			}
		}
	}
	return h.Sum64()
}

// reference answers each checked SELECT with one DB.Exec on a separately
// opened database holding the same TPC-H data: the one-statement path
// that the wire, parallel and admission paths must agree with.
//
// Integer and string values must match exactly. A float value may differ
// from the reference in its last bits — the engine's parallel fragments
// add a group's values in an order set by simulated timing, so a float
// SUM over a join differs between a loaded and an idle server — but by
// no more than floatTolerance of its magnitude. Such values are counted
// in inexact and reported, so a change in that count shows.
type reference struct {
	db      *core.DB
	answers map[string]*table.Table
	inexact int64
}

// floatTolerance bounds the relative difference of a float result value
// from the reference: far above the rounding error of summing a result
// group in another order, far below any wrong answer.
const floatTolerance = 1e-10

func newReference(in *inputs) (*reference, error) {
	ref := &reference{answers: map[string]*table.Table{}}
	if in.sf == 0 {
		return ref, nil
	}
	db, err := core.Open(core.Config{Server: smallServer()})
	if err != nil {
		return nil, err
	}
	if err := loadTables(db, tpch.Generate(in.sf, in.seed).Tables); err != nil {
		return nil, err
	}
	ref.db = db
	return ref, nil
}

// check compares every checked statement of r with the reference.
func (ref *reference) check(r *round) error {
	var bad []string
	for _, c := range r.checked {
		want, ok := ref.answers[c.sql]
		if !ok {
			res, err := ref.db.Exec(c.sql)
			if err != nil {
				return fmt.Errorf("reference: %w", err)
			}
			want = res.Rows
			ref.answers[c.sql] = want
		}
		inexact, err := compareTables(c.tab, want)
		ref.inexact += inexact
		if err != nil {
			bad = append(bad, fmt.Sprintf("%v in %s", err, strings.Join(strings.Fields(c.sql), " ")))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("%d SELECTs differ from one DB.Exec of the same statement, first: %s", len(bad), bad[0])
	}
	return nil
}

// compareTables reports how many float values of got differ from want
// within floatTolerance, and an error for any other difference.
func compareTables(got, want *table.Table) (int64, error) {
	rows := func(t *table.Table) int {
		if t == nil {
			return 0
		}
		return t.Rows()
	}
	if rows(got) != rows(want) {
		return 0, fmt.Errorf("%d rows, want %d", rows(got), rows(want))
	}
	if rows(got) == 0 {
		return 0, nil
	}
	if len(got.Schema.Cols) != len(want.Schema.Cols) {
		return 0, fmt.Errorf("%d columns, want %d", len(got.Schema.Cols), len(want.Schema.Cols))
	}
	var inexact int64
	for c := range got.Schema.Cols {
		g, w := got.Column(c), want.Column(c)
		for i := 0; i < got.Rows(); i++ {
			switch {
			case g.I != nil && w.I != nil:
				if g.I[i] != w.I[i] {
					return inexact, fmt.Errorf("row %d column %d is %d, want %d", i, c, g.I[i], w.I[i])
				}
			case g.F != nil && w.F != nil:
				a, b := g.F[i], w.F[i]
				if math.Float64bits(a) == math.Float64bits(b) {
					continue
				}
				if math.Abs(a-b) > floatTolerance*math.Max(math.Abs(a), math.Abs(b)) {
					return inexact, fmt.Errorf("row %d column %d is %v, want %v", i, c, a, b)
				}
				inexact++
			case g.S != nil && w.S != nil:
				if g.S[i] != w.S[i] {
					return inexact, fmt.Errorf("row %d column %d is %q, want %q", i, c, g.S[i], w.S[i])
				}
			default:
				return inexact, fmt.Errorf("column %d has another type", c)
			}
		}
	}
	return inexact, nil
}
