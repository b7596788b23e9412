package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"energydb/internal/client"
	"energydb/internal/core"
	"energydb/internal/hw"
	"energydb/internal/server"
	"energydb/internal/table"
	"energydb/internal/tpch"
)

// Statement classes. The latency-critical class of each workload is the
// one its sim_p50_ms, sim_p90_ms, sim_p99_ms and deadline_hit_rate
// describe.
const (
	classInteractive = "interactive" // Q6-shaped scan with a deadline
	classAnalytic    = "analytic"    // TPC-H Q3 join
	classInsert      = "insert"      // small multi-row insert into events
	classReport      = "report"      // aggregation over events
	classQuery       = "query"       // one TPC-H throughput-mix query
)

// workload is one traffic mix. Its round function sets up a freshly
// opened database, runs the timed phase and returns what happened.
type workload struct {
	name     string
	critical string // latency-critical class
	open     bool   // open loop: latency counts from each statement's due time
	inputs   func(seed int64) *inputs
	round    func(in *inputs, c *roundCtx) (*outcome, error)
	guard    func(o *outcome, r *round) []string
}

var workloads = []*workload{
	{name: "diurnal-wire", critical: classInteractive, open: true,
		inputs: diurnalInputs, round: diurnalRound, guard: diurnalGuard},
	{name: "tpch-streams", critical: classQuery,
		inputs: streamsInputs, round: streamsRound, guard: streamsGuard},
	{name: "ingest-report", critical: classReport, open: true,
		inputs: ingestInputs, round: ingestRound, guard: ingestGuard},
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// inputs is everything a workload generates from its seed before the
// first round. Every round replays the same inputs.
type inputs struct {
	seed     int64
	sf       float64   // TPC-H scale factor; 0 when no TPC-H table is read
	arrivals []arrival // statements in submission order
	baseRows int       // ingest-report: rows in events before the first insert
	inserted int       // ingest-report: rows the insert statements add
}

// arrival is one generated statement.
type arrival struct {
	at       float64 // due time, simulated seconds (0 in a closed loop)
	deadline float64 // absolute, 0 for none
	stream   int     // session the statement runs on
	class    string
	sql      string
}

// stmt is a submitted SELECT's outcome, in submission order.
type stmt struct {
	arrival
	elapsed    float64 // submission to completion, simulated seconds
	attributed float64
	granted    int
	maxDOP     int    // of the plan that ran (embedded only)
	rows       uint64 // fingerprint of the result rows
	tab        *table.Table
	err        error
}

// outcome is a round's raw result, before metrics are derived from it.
type outcome struct {
	db      *core.DB
	stmts   []*stmt
	inserts int64
	// insertErrs counts inserts that failed.
	insertErrs int64
	// billedJ is Σ attributed joules over every statement of the round;
	// with unattributedJ it must add up to meterJ.
	meterJ, unattributedJ, billedJ float64
	bills                          []float64 // per insert (embedded) or per tenant (wire)
	cacheHits, cacheMisses         int64
	problems                       []string
	checked                        []checkedStmt
}

// roundCtx times one round's phases.
type roundCtx struct {
	r      *round
	tr     *tracer
	timedT time.Time
	// setupOnly stops the round once set-up is done: a set-up sample.
	setupOnly bool
}

// setup runs one set-up step and adds its host time to the named
// set-up metric.
func (c *roundCtx) setup(name string, fn func() error) error {
	t0 := time.Now()
	err := fn()
	c.r.setup[name] += time.Since(t0)
	return err
}

func (c *roundCtx) startTimed() {
	c.tr.startTimed()
	c.timedT = time.Now()
}

func (c *roundCtx) stopTimed() error {
	c.r.timed = time.Since(c.timedT)
	return c.tr.stopTimed()
}

// smallServer is the simulated machine of every workload: 8 cores, two
// disks (with a WAL, the second one holds the log).
func smallServer() hw.ServerSpec { return hw.SmallServer(2) }

// loadTPCH generates the TPC-H tables and registers them for placement.
func loadTPCH(c *roundCtx, db *core.DB, sf float64, seed int64) error {
	var gen *tpch.DB
	_ = c.setup("tpch.generate_s", func() error { gen = tpch.Generate(sf, seed); return nil })
	return c.setup("core.place_s", func() error { return loadTables(db, gen.Tables) })
}

// loadTables registers tables in name order, so every database built
// from the same tables places them alike.
func loadTables(db *core.DB, tables map[string]*table.Table) error {
	names := make([]string, 0, len(tables))
	for n := range tables {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if err := db.LoadTable(tables[n]); err != nil {
			return err
		}
	}
	return nil
}

// --- diurnal-wire ---

// diurnal-wire sizing. The statements are I/O-bound and each holds one
// core while it reads, so on an eight-core server admission would queue
// only once the data disk saturates, and tail latency would then swing
// with the seed. A two-core front end queues at admission under a load
// the disk sustains; interactive p99 sits clearly above p50 from disk
// and session contention, while p90 stays near the service time.
const (
	diurnalSF       = 0.001
	diurnalTenants  = 2
	diurnalSessions = 8     // per tenant: independent clients sharing the tenant's connection
	diurnalHorizon  = 188.0 // simulated seconds in the compressed day
	diurnalRate     = 16.0  // mean statements per second per tenant
	diurnalSwing    = 0.9   // rate amplitude over the day, as a share of the mean
	diurnalCores    = 2
	diurnalDeadline = 5.0 // interactive latency budget, simulated seconds
)

const eventsDDL = `CREATE TABLE events (tenant BIGINT, day BIGINT, v DOUBLE)`

func interactiveSQL(q int) string {
	return fmt.Sprintf(`SELECT COUNT(*) AS n, SUM(l_extendedprice) AS s FROM lineitem WHERE l_quantity < %d AND l_discount > 0.01`, q)
}

func tenantReportSQL(t int) string {
	return fmt.Sprintf(`SELECT day, COUNT(*) AS n, SUM(v) AS sv FROM events WHERE tenant = %d GROUP BY day ORDER BY day`, t)
}

func insertSQL(rng *rand.Rand, tenant, day int) string {
	n := 1 + rng.Intn(4)
	s := "INSERT INTO events VALUES "
	for i := 0; i < n; i++ {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("(%d, %d, %.6f)", tenant, day, rng.Float64()*100)
	}
	return s
}

// diurnalDeck is eesim's statement mix as a deck of 100 classes. Each
// tenant deals its arrivals from the deck, reshuffled every 100 arrivals,
// so every seed runs the same mix in another order.
func diurnalDeck() []string {
	var deck []string
	for _, c := range []struct {
		class string
		n     int
	}{{classInteractive, 50}, {classInsert, 30}, {classAnalytic, 17}, {classReport, 3}} {
		for i := 0; i < c.n; i++ {
			deck = append(deck, c.class)
		}
	}
	return deck
}

// diurnalInputs paces each tenant's arrivals along a sinusoidal rate over
// the compressed day, with a per-tenant phase so the tenants peak at
// different times: the k-th arrival is due when the integrated rate
// reaches k plus a seeded jitter. The seed also draws each statement's
// class and constants.
func diurnalInputs(seed int64) *inputs {
	in := &inputs{seed: seed, sf: diurnalSF}
	for t := 0; t < diurnalTenants; t++ {
		rng := rand.New(rand.NewSource(seed*7919 + int64(t)))
		phase := float64(t) / diurnalTenants
		w := 2 * math.Pi / diurnalHorizon
		// arrived is the integral of the tenant's rate from 0 to at.
		arrived := func(at float64) float64 {
			return diurnalRate * (at - diurnalSwing/w*(math.Cos(w*at-2*math.Pi*phase)-math.Cos(-2*math.Pi*phase)))
		}
		deck := diurnalDeck()
		for k := 0; ; k++ {
			target := float64(k) + rng.Float64()
			if target >= arrived(diurnalHorizon) {
				break
			}
			lo, hi := 0.0, diurnalHorizon
			for i := 0; i < 60; i++ {
				if mid := (lo + hi) / 2; arrived(mid) < target {
					lo = mid
				} else {
					hi = mid
				}
			}
			at := lo
			if k%len(deck) == 0 {
				rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
			}
			a := arrival{at: at, stream: t*diurnalSessions + k%diurnalSessions, class: deck[k%len(deck)]}
			switch a.class {
			case classInteractive:
				a.deadline = at + diurnalDeadline
				a.sql = interactiveSQL(20 + rng.Intn(25))
			case classInsert:
				a.sql = insertSQL(rng, t, int(24*at/diurnalHorizon))
			case classAnalytic:
				a.sql = tpch.Q3
			default:
				a.sql = tenantReportSQL(t)
			}
			in.arrivals = append(in.arrivals, a)
		}
	}
	sort.SliceStable(in.arrivals, func(i, j int) bool { return in.arrivals[i].at < in.arrivals[j].at })
	return in
}

// diurnalRound serves the database through the wire protocol: an admin
// connection creates events, drains and reads the meter; each tenant
// submits its statements on its own connection and session, all driven
// in arrival order from this goroutine.
func diurnalRound(in *inputs, c *roundCtx) (*outcome, error) {
	spec := smallServer()
	spec.CPU.Cores = diurnalCores
	db, err := core.Open(core.Config{Server: spec, WALBatch: 1})
	if err != nil {
		return nil, err
	}
	if err := loadTPCH(c, db, in.sf, in.seed); err != nil {
		return nil, err
	}
	srv := server.New(db)
	defer srv.Close()
	var admin *client.DB
	conns := make([]*client.DB, diurnalTenants)
	sessions := make([]*client.Session, diurnalTenants*diurnalSessions)
	defer func() {
		for _, cn := range append(conns, admin) {
			if cn != nil {
				cn.Close()
			}
		}
	}()
	err = c.setup("server.connect_s", func() error {
		var err error
		if admin, err = client.New(srv.Pipe(), "admin"); err != nil {
			return err
		}
		for t := range conns {
			if conns[t], err = client.New(srv.Pipe(), fmt.Sprintf("tenant%d", t)); err != nil {
				return err
			}
			for k := 0; k < diurnalSessions; k++ {
				if sessions[t*diurnalSessions+k], err = conns[t].Session(); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Preparing one statement of each shape places every table the
	// tenants read, so placement is billed to set-up.
	err = c.setup("core.place_s", func() error {
		if err := admin.Exec(eventsDDL); err != nil {
			return err
		}
		for t := 0; t < diurnalTenants; t++ {
			for _, q := range []string{interactiveSQL(20), tpch.Q3, tenantReportSQL(t)} {
				if _, err := sessions[t*diurnalSessions].Prepare(q); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if c.setupOnly {
		return nil, nil
	}
	o := &outcome{db: db}
	tr := c.tr
	handles := make([]*client.Rows, 0, len(in.arrivals))
	c.startTimed()
	for _, a := range in.arrivals {
		if a.class == classInsert {
			o.inserts++
			t0 := tr.begin()
			if err := conns[a.stream/diurnalSessions].ExecAt(a.at, a.sql); err != nil {
				o.insertErrs++
			}
			tr.end("client.exec_at_us", t0)
			continue
		}
		s := &stmt{arrival: a}
		o.stmts = append(o.stmts, s)
		t0 := tr.begin()
		st, err := sessions[a.stream].Prepare(a.sql)
		tr.end("client.prepare_us", t0)
		var rows *client.Rows
		if err == nil {
			t0 = tr.begin()
			rows, err = st.QueryAtDeadline(a.at, a.deadline)
			tr.end("client.submit_us", t0)
		}
		s.err = err
		handles = append(handles, rows)
	}
	t0 := tr.begin()
	err = admin.Drain()
	tr.endDrain(t0)
	if err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}
	for i, s := range o.stmts {
		if handles[i] == nil {
			continue
		}
		t0 := tr.begin()
		tab, res, err := handles[i].Collect()
		tr.end("client.result_us", t0)
		s.elapsed, s.attributed, s.granted = res.Elapsed, res.Attributed, int(res.Granted)
		s.rows, s.tab = fingerprintTable(tab), tab
		s.err = err
	}
	m, err := admin.Meter()
	if err := c.stopTimed(); err != nil {
		return nil, err
	}
	if err != nil {
		return nil, fmt.Errorf("meter: %w", err)
	}
	o.meterJ, o.unattributedJ = m.MeterJ, m.UnattributedJ
	for _, b := range m.Tenants {
		o.billedJ += b.AttributedJ
		o.bills = append(o.bills, b.AttributedJ)
	}
	o.cacheHits, o.cacheMisses = srv.PlanCacheStats()
	for _, s := range o.stmts {
		if s.err == nil && (s.class == classInteractive || s.class == classAnalytic) {
			o.checked = append(o.checked, checkedStmt{s.sql, s.tab})
		}
	}
	return o, nil
}

func diurnalGuard(o *outcome, r *round) []string {
	var bad []string
	if r.layer["sched.waited_frac"].Value <= 0 {
		bad = append(bad, "no statement waited at admission")
	}
	if r.sim["sim_p99_ms"].Value <= r.sim["sim_p50_ms"].Value {
		bad = append(bad, "interactive p99 does not exceed p50")
	}
	if o.cacheHits == 0 {
		bad = append(bad, "the per-tenant plan cache never hit")
	}
	return bad
}

// --- tpch-streams ---

// tpch-streams sizing: four sessions on the eight-core server, each
// running the throughput mix back to back.
const (
	streamsSF       = 0.02
	streamsSessions = 4
	streamsMixes    = 5 // throughput mixes per session
)

func streamsInputs(seed int64) *inputs {
	in := &inputs{seed: seed, sf: streamsSF}
	mix := tpch.ThroughputMix()
	for s := 0; s < streamsSessions; s++ {
		for i := 0; i < streamsMixes*len(mix); i++ {
			// Each session starts at another point of the rotation, as
			// TPC-H throughput streams do.
			in.arrivals = append(in.arrivals, arrival{stream: s, class: classQuery, sql: mix[(i+s)%len(mix)]})
		}
	}
	return in
}

func streamsRound(in *inputs, c *roundCtx) (*outcome, error) {
	db, err := core.Open(core.Config{Server: smallServer()})
	if err != nil {
		return nil, err
	}
	if err := loadTPCH(c, db, in.sf, in.seed); err != nil {
		return nil, err
	}
	sessions := make([]*core.Session, streamsSessions)
	for i := range sessions {
		sessions[i] = db.Session()
		defer sessions[i].Close()
	}
	err = c.setup("core.place_s", func() error {
		for _, q := range tpch.ThroughputMix() {
			if _, err := sessions[0].Prepare(q); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if c.setupOnly {
		return nil, nil
	}
	o := &outcome{db: db}
	tr := c.tr
	handles := make([]*core.Rows, 0, len(in.arrivals))
	c.startTimed()
	for _, a := range in.arrivals {
		s := &stmt{arrival: a}
		o.stmts = append(o.stmts, s)
		t0 := tr.begin()
		st, err := sessions[a.stream].Prepare(a.sql)
		tr.end("core.prepare_us", t0)
		var rows *core.Rows
		if err == nil {
			rows, err = st.Query()
		}
		s.err = err
		handles = append(handles, rows)
	}
	t0 := tr.begin()
	err = db.Drain()
	tr.endDrain(t0)
	if err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}
	for i, s := range o.stmts {
		if handles[i] != nil {
			collectEmbedded(s, handles[i])
			o.billedJ += float64(handles[i].Attributed())
		}
	}
	meterJ, unattrJ := db.Ledger()
	if err := c.stopTimed(); err != nil {
		return nil, err
	}
	o.meterJ, o.unattributedJ = float64(meterJ), float64(unattrJ)
	for _, s := range o.stmts {
		if s.err == nil {
			o.checked = append(o.checked, checkedStmt{s.sql, s.tab})
		}
	}
	return o, nil
}

// collectEmbedded settles an embedded statement into s and returns its
// rows.
func collectEmbedded(s *stmt, rows *core.Rows) *table.Table {
	res, err := rows.Collect()
	s.err = err
	if st := rows.Stats(); st != nil {
		s.elapsed, s.attributed, s.granted = float64(st.Elapsed), float64(st.Attributed), st.Granted
		if st.Plan != nil {
			s.maxDOP = st.Plan.MaxDOP()
		}
	}
	if err != nil {
		return nil
	}
	s.rows, s.tab = fingerprintTable(res.Rows), res.Rows
	return res.Rows
}

func streamsGuard(o *outcome, r *round) []string {
	var bad []string
	if r.layer["hw.cpu_peak_busy_cores"].Value < 2 {
		bad = append(bad, "never more than one simulated core busy")
	}
	wide := false
	for _, s := range o.stmts {
		wide = wide || s.maxDOP >= 2
	}
	if !wide {
		bad = append(bad, "no query ran an exchange with two or more fragments")
	}
	return bad
}

// --- ingest-report ---

// ingest-report sizing: a group-committed insert stream into events with
// a report over the whole table after every block of inserts.
const (
	ingestBaseRows    = 20000
	ingestInserts     = 30000
	ingestSpacing     = 0.002 // simulated seconds between inserts
	ingestReportEvery = 300   // inserts per report
	ingestWALBatch    = 8
)

const ingestReportSQL = `SELECT tenant, COUNT(*) AS n, SUM(v) AS sv FROM events GROUP BY tenant ORDER BY tenant`

func eventsSchema() *table.Schema {
	return table.NewSchema("events",
		table.Col("tenant", table.Int64), table.Col("day", table.Int64), table.Col("v", table.Float64))
}

func ingestInputs(seed int64) *inputs {
	in := &inputs{seed: seed, baseRows: ingestBaseRows}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < ingestInserts; i++ {
		at := float64(i+1) * ingestSpacing
		n := 1 + rng.Intn(4)
		s := "INSERT INTO events VALUES "
		for k := 0; k < n; k++ {
			if k > 0 {
				s += ", "
			}
			s += fmt.Sprintf("(%d, %d, %.6f)", rng.Intn(8), i/ingestReportEvery, rng.Float64()*100)
		}
		in.inserted += n
		in.arrivals = append(in.arrivals, arrival{at: at, class: classInsert, sql: s})
		if (i+1)%ingestReportEvery == 0 {
			in.arrivals = append(in.arrivals, arrival{at: at + ingestSpacing/2, class: classReport, sql: ingestReportSQL})
		}
	}
	return in
}

// baseEvents builds the rows events holds before the first insert. It is
// rebuilt for every round: the database appends inserts to the table it
// was given.
func baseEvents(seed int64, n int) *table.Table {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	t := table.NewTable(eventsSchema())
	for i := 0; i < n; i++ {
		t.AppendRow(table.IntVal(int64(rng.Intn(8))), table.IntVal(-1), table.FloatVal(math.Round(rng.Float64()*1e8)/1e6))
	}
	return t
}

func ingestRound(in *inputs, c *roundCtx) (*outcome, error) {
	base := baseEvents(in.seed, in.baseRows)
	db, err := core.Open(core.Config{Server: smallServer(), WALBatch: ingestWALBatch})
	if err != nil {
		return nil, err
	}
	sess := db.Session()
	defer sess.Close()
	var report *core.Stmt
	err = c.setup("core.place_s", func() error {
		if err := db.LoadTable(base); err != nil {
			return err
		}
		var err error
		report, err = sess.Prepare(ingestReportSQL)
		return err
	})
	if err != nil {
		return nil, err
	}
	if c.setupOnly {
		return nil, nil
	}
	o := &outcome{db: db}
	tr := c.tr
	var deferred []*core.Deferred
	var handles []*core.Rows
	c.startTimed()
	for _, a := range in.arrivals {
		if a.class == classInsert {
			o.inserts++
			t0 := tr.begin()
			d, err := db.ExecAt(a.at, a.sql)
			tr.end("core.exec_at_us", t0)
			if err != nil {
				o.insertErrs++
				continue
			}
			deferred = append(deferred, d)
			continue
		}
		s := &stmt{arrival: a}
		o.stmts = append(o.stmts, s)
		rows, err := report.QueryAt(a.at)
		s.err = err
		handles = append(handles, rows)
	}
	// Settle the reports one by one, so the catalog can be read between
	// them: each report must have re-placed events.
	prev, _ := db.Catalog.Get("events")
	replaced := 0
	for i, s := range o.stmts {
		if handles[i] == nil {
			continue
		}
		t0 := tr.begin()
		collectEmbedded(s, handles[i])
		tr.endDrain(t0)
		if p, _ := db.Catalog.Get("events"); p != prev {
			replaced++
			prev = p
		}
	}
	t0 := tr.begin()
	err = db.Drain()
	tr.endDrain(t0)
	if err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}
	reports := len(handles)
	// A final report after the last commit must count every row.
	final := &stmt{arrival: arrival{at: db.Srv.Eng.Now(), class: classReport, sql: ingestReportSQL}}
	o.stmts = append(o.stmts, final)
	var counted *table.Table
	rows, err := report.Query()
	final.err = err
	if err == nil {
		t0 := tr.begin()
		counted = collectEmbedded(final, rows)
		tr.endDrain(t0)
		handles = append(handles, rows)
	}
	for _, d := range deferred {
		if d.Err() != nil {
			o.insertErrs++
		}
		o.bills = append(o.bills, float64(d.Attributed()))
		o.billedJ += float64(d.Attributed())
	}
	for _, h := range handles {
		if h != nil {
			o.billedJ += float64(h.Attributed())
		}
	}
	meterJ, unattrJ := db.Ledger()
	if err := c.stopTimed(); err != nil {
		return nil, err
	}
	o.meterJ, o.unattributedJ = float64(meterJ), float64(unattrJ)

	if replaced < reports {
		o.problems = append(o.problems, fmt.Sprintf("events re-placed before only %d of %d reports", replaced, reports))
	}
	if counted != nil {
		var n int64
		for _, c := range counted.Column(1).I {
			n += c
		}
		if want := int64(in.baseRows + in.inserted); n != want {
			o.problems = append(o.problems, fmt.Sprintf("final report counts %d rows, the generator produced %d", n, want))
		}
	}
	return o, nil
}

func ingestGuard(o *outcome, r *round) []string {
	if r.layer["wal.commits_per_flush"].Value <= 1 {
		return []string{"WAL group commit never batched two commits"}
	}
	return nil
}
