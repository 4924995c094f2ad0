package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro"
)

// workload is one traffic mix driven against rfidserve.
type workload interface {
	// wal reports whether the server runs with a write-ahead log.
	wal() bool
	// tails fixes the tail percentile of each latency class: p90, which
	// has at least ten samples beyond it in every class at the 30-second
	// run length. Higher percentiles spread over 0.3 of their median from
	// run to run on a noisy 2-vCPU VM.
	tails() map[string]int
	// serve drives the running server for the measured window, then
	// runs any check that needs the whole run, and returns how long the
	// window lasted.
	serve(ctx context.Context, c *client, seconds time.Duration, rec *recorder, traced bool) (time.Duration, error)
	// probes are the statements the traced run times layer by layer,
	// and regret the ones it times under every strategy.
	probes() []stmt
	regret() []stmt
}

// newWorkload builds a workload and its reference answers, computed
// in-process on db, or for ingest-query on a copy of the snapshot.
func newWorkload(name string, db *repro.DB, ds *dataset, snap string, seed int64, seconds time.Duration) (workload, error) {
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case "paper-grid":
		return newPaperGrid(db, ds, rng)
	case "epc-trail":
		return newEPCTrail(db, ds, rng, seconds)
	case "ingest-query":
		return newIngestQuery(ds, snap, rng, seconds)
	}
	return nil, fmt.Errorf("unknown workload %q (want paper-grid, epc-trail or ingest-query)", name)
}

// wrongAnswer reports a served result that differs from its reference.
func wrongAnswer(s stmt, got, want answer) error {
	return fmt.Errorf("%s: wrong answer: %d rows, want %d (first differing row %s)", s.name, len(got), len(want), firstDiff(got, want))
}

func firstDiff(got, want answer) string {
	for i := range got {
		if i >= len(want) || got[i] != want[i] {
			return got[i]
		}
	}
	if len(want) > len(got) {
		return "missing " + want[len(got)]
	}
	return "none"
}

// minPasses is the fewest whole grid passes paper-grid measures, so every
// statement is sampled equally often and the p90 has ten samples beyond it.
const minPasses = 4

// paperGrid is a reporting client: it prepares the 27 paper statements
// once and re-runs them through its session, one at a time, in a seeded
// order.
type paperGrid struct {
	stmts []stmt
	// refs are the statements' answers under the naive rewrite.
	refs []answer
}

func newPaperGrid(db *repro.DB, ds *dataset, rng *rand.Rand) (*paperGrid, error) {
	w := &paperGrid{stmts: ds.grid()}
	rng.Shuffle(len(w.stmts), func(i, j int) { w.stmts[i], w.stmts[j] = w.stmts[j], w.stmts[i] })
	for _, s := range w.stmts {
		a, err := naiveAnswer(db, s)
		if err != nil {
			return nil, err
		}
		w.refs = append(w.refs, a)
	}
	return w, nil
}

func (w *paperGrid) wal() bool             { return false }
func (w *paperGrid) tails() map[string]int { return map[string]int{classQuery: 90} }

// probes are the first 14 statements of the seeded order: probing all
// 27 through every layer takes about 35 s, and the regret pass already
// times every statement.
func (w *paperGrid) probes() []stmt { return w.stmts[:14] }

func (w *paperGrid) regret() []stmt { return w.stmts }

func (w *paperGrid) serve(ctx context.Context, c *client, seconds time.Duration, rec *recorder, traced bool) (time.Duration, error) {
	session, ids := "", make([]string, len(w.stmts))
	for i, s := range w.stmts {
		var err error
		if session, ids[i], err = c.prepare(ctx, s, session); err != nil {
			return 0, fmt.Errorf("prepare %s: %w", s.name, err)
		}
	}
	n := len(w.stmts)
	start := time.Now()
	next := func(i int) (job, bool) {
		if i%n == 0 && i/n >= minPasses && time.Since(start) >= seconds {
			return job{}, false
		}
		k := i % n
		return job{class: classQuery, do: func(ctx context.Context) (time.Time, error) {
			r, err := c.run(ctx, session, ids[k])
			if err != nil {
				return r.read, fmt.Errorf("%s: %w", w.stmts[k].name, err)
			}
			if got := newAnswer(r.rows); !got.equal(w.refs[k]) {
				return r.read, wrongAnswer(w.stmts[k], got, w.refs[k])
			}
			return r.read, nil
		}}, true
	}
	// Traced runs alternate tracing by statement and pass, so traced and
	// untraced samples cover the same statements.
	tracedJob := never
	if traced {
		tracedJob = func(i int) bool { return (i%n+i/n)%2 == 0 }
	}
	closedLoop(ctx, next, rec, tracedJob)
	return time.Since(start), nil
}

// Open-loop rate of epc-trail and the share of its requests that are
// lookups. A 2-vCPU VM serves about 74 requests/s of this mix, and about
// half that while another process keeps one core busy. The rate is a
// quarter of the full capacity, so a busy neighbour core leaves the
// server at about half load: at 40/s it saturated the server and the
// trail p50 rose threefold.
const (
	trailRate   = 20
	lookupEvery = 4
	// trailSkew is the exponent of the EPC popularity power law: skewed,
	// yet the distinct trails requested in a 30-second run (about 300)
	// overflow the 256-entry plan cache, and most trails miss it.
	trailSkew = 0.8
	// regretTrails is how many trail statements the traced run times
	// under every strategy.
	regretTrails = 6
)

// epcTrail is independent users looking up single EPCs: pedigree trails
// under all five rules, and uncleansed dimension lookups, arriving on a
// fixed schedule.
type epcTrail struct {
	jobs   []stmt
	refs   []answer
	trails []stmt
}

func newEPCTrail(db *repro.DB, ds *dataset, rng *rand.Rand, seconds time.Duration) (*epcTrail, error) {
	// One naive pass over the whole reads table gives every trail's
	// reference: the naive rewrite cleanses caser in full and then applies
	// the query's predicate, which here is the EPC filter.
	all, err := naiveAnswer(db, stmt{name: "cleansed caser", sql: "SELECT epc, rtime, biz_loc, biz_step FROM caser", rules: ds.rules})
	if err != nil {
		return nil, err
	}
	byEPC := map[string][]string{}
	for _, row := range all {
		var vals []json.RawMessage
		if err := json.Unmarshal([]byte(row), &vals); err != nil || len(vals) != 4 {
			return nil, fmt.Errorf("reference row %s: %v", row, err)
		}
		epc, err := strconv.Unquote(string(vals[0]))
		if err != nil {
			return nil, fmt.Errorf("reference row %s: %w", row, err)
		}
		rest, _ := json.Marshal(vals[1:])
		byEPC[epc] = append(byEPC[epc], string(rest))
	}
	// Popularity ranks are a seeded permutation of the EPCs.
	ranked := append([]string(nil), ds.epcs...)
	rng.Shuffle(len(ranked), func(i, j int) { ranked[i], ranked[j] = ranked[j], ranked[i] })
	pick := newSkewed(len(ranked), trailSkew)
	w := &epcTrail{}
	total := int(seconds.Seconds() * trailRate)
	for i := 0; i < total; i++ {
		var s stmt
		var ref answer
		switch {
		case i%lookupEvery != lookupEvery-1:
			epc := ranked[pick.draw(rng)]
			s, ref = ds.trail(epc), newAnswer(byEPC[epc])
			if len(w.trails) < regretTrails {
				w.trails = append(w.trails, s)
			}
		case (i/lookupEvery)%2 == 0:
			gln := ds.glns[rng.Intn(len(ds.glns))]
			s, ref = locLookup(gln), answer{ds.locs[gln]}
		default:
			id := ds.products[rng.Intn(len(ds.products))]
			s, ref = productLookup(id), answer{ds.product[id]}
		}
		w.jobs = append(w.jobs, s)
		w.refs = append(w.refs, ref)
	}
	return w, nil
}

func (w *epcTrail) wal() bool { return false }
func (w *epcTrail) tails() map[string]int {
	return map[string]int{classQuery: 90, classLookup: 90}
}
func (w *epcTrail) regret() []stmt { return w.trails }

// probes are the first 48 requests of the schedule: 36 trails and 12
// lookups.
func (w *epcTrail) probes() []stmt { return w.jobs[:min(48, len(w.jobs))] }

func (w *epcTrail) serve(ctx context.Context, c *client, seconds time.Duration, rec *recorder, traced bool) (time.Duration, error) {
	// A few requests first, so connections and the server's lazy state
	// are warm; they are not measured.
	for k := 0; k < min(8, len(w.jobs)); k++ {
		if _, err := w.check(ctx, c, k); err != nil {
			return 0, fmt.Errorf("warm-up: %w", err)
		}
	}
	jobs := make([]job, len(w.jobs))
	for k, s := range w.jobs {
		class := classQuery
		if s.rules == nil {
			class = classLookup
		}
		jobs[k] = job{at: time.Duration(k) * time.Second / trailRate, class: class,
			do: func(ctx context.Context) (time.Time, error) { return w.check(ctx, c, k) }}
	}
	tracedJob := never
	if traced {
		tracedJob = coin
	}
	start := time.Now()
	openLoop(ctx, start, jobs, 2, rec, tracedJob)
	return time.Since(start), nil
}

// check runs request k and compares its answer with the reference; a
// trail must also come back in rtime order. It returns when the reply was
// read.
func (w *epcTrail) check(ctx context.Context, c *client, k int) (time.Time, error) {
	s := w.jobs[k]
	r, err := c.query(ctx, s)
	if err != nil {
		return r.read, fmt.Errorf("%s: %w", s.name, err)
	}
	if got := newAnswer(r.rows); !got.equal(w.refs[k]) {
		return r.read, wrongAnswer(s, got, w.refs[k])
	}
	if s.rules != nil {
		return r.read, ordered(r.rows)
	}
	return r.read, nil
}

// ordered checks that rows, whose first column is a wire-encoded TIME,
// are in non-decreasing time order.
func ordered(rows []string) error {
	var prev time.Time
	for i, row := range rows {
		var vals []any
		if err := json.Unmarshal([]byte(row), &vals); err != nil || len(vals) == 0 {
			return fmt.Errorf("trail row %s: %v", row, err)
		}
		s, _ := vals[0].(string)
		t, err := time.Parse(time.RFC3339Nano, s)
		if err != nil {
			return fmt.Errorf("trail row %s: %w", row, err)
		}
		if i > 0 && t.Before(prev) {
			return fmt.Errorf("trail out of rtime order at row %d", i)
		}
		prev = t
	}
	return nil
}

// ingestRate is ingest-query's open-loop batch rate; batches carry
// batchRows reads each.
const ingestRate = 5

// ingestQuery is a durable feed of new reads beside a dashboard: one
// connection posts batches on a fixed schedule, the other re-runs q2 at
// 1% under three rules as fast as replies come back.
type ingestQuery struct {
	dash    stmt
	batches [][][]any
	// refs[k] is the dashboard's answer once the first k batches are in.
	refs   []answer
	loaded int64
	// sent and acked count the batches whose request has begun and whose
	// acknowledgement has arrived. Batches go out one at a time, in
	// order, so the server holds at least acked and at most sent of them.
	sent, acked atomic.Int64
}

func newIngestQuery(ds *dataset, snap string, rng *rand.Rand, seconds time.Duration) (*ingestQuery, error) {
	w := &ingestQuery{dash: ds.dashboard(), loaded: ds.loaded}
	// One warm-up batch, then the measured schedule.
	for n := 0; n <= int(seconds.Seconds()*ingestRate); n++ {
		w.batches = append(w.batches, ds.ingestBatch(rng, n))
	}
	// The reference answers come from the naive rewrite, after each
	// prefix of the schedule, on a private copy of the database.
	ref, err := repro.OpenDir(snap)
	if err != nil {
		return nil, fmt.Errorf("open reference database: %w", err)
	}
	defer ref.Close()
	for k := 0; ; k++ {
		a, err := naiveAnswer(ref, w.dash)
		if err != nil {
			return nil, err
		}
		w.refs = append(w.refs, a)
		if k == len(w.batches) {
			return w, nil
		}
		if err := ref.Ingest("caser", ingestValues(w.batches[k])...); err != nil {
			return nil, fmt.Errorf("reference ingest: %w", err)
		}
	}
}

func (w *ingestQuery) wal() bool { return true }
func (w *ingestQuery) tails() map[string]int {
	return map[string]int{classQuery: 90, classIngest: 90}
}
func (w *ingestQuery) regret() []stmt { return []stmt{w.dash} }

// probes repeat the dashboard; the traced run puts an ingest batch before
// each, as the served workload does.
func (w *ingestQuery) probes() []stmt {
	out := make([]stmt, probeBatches)
	for i := range out {
		out[i] = w.dash
	}
	return out
}

func (w *ingestQuery) post(ctx context.Context, c *client, n int) (time.Time, error) {
	w.sent.Add(1)
	read, err := c.ingest(ctx, "caser", w.batches[n])
	if err != nil {
		return read, err
	}
	w.acked.Add(1)
	return read, nil
}

// query runs the dashboard once and checks its answer against the states
// the server may have held while it ran. It returns when the reply was
// read.
func (w *ingestQuery) query(ctx context.Context, c *client) (time.Time, error) {
	lo := w.acked.Load()
	r, err := c.query(ctx, w.dash)
	if err != nil {
		return r.read, fmt.Errorf("%s: %w", w.dash.name, err)
	}
	hi := w.sent.Load()
	got := newAnswer(r.rows)
	for k := lo; k <= hi; k++ {
		if got.equal(w.refs[k]) {
			return r.read, nil
		}
	}
	return r.read, fmt.Errorf("%w; no state with %d to %d batches ingested matches", wrongAnswer(w.dash, got, w.refs[hi]), lo, hi)
}

func (w *ingestQuery) serve(ctx context.Context, c *client, seconds time.Duration, rec *recorder, traced bool) (time.Duration, error) {
	if _, err := w.post(ctx, c, 0); err != nil {
		return 0, fmt.Errorf("warm-up ingest: %w", err)
	}
	// The warm-up dashboard is not measured, but its answer is checked.
	warm := time.Now()
	_, err := w.query(ctx, c)
	rec.record(outcome{class: "check", lat: time.Since(warm), err: err}, 0, false, warm, time.Now())
	jobs := make([]job, len(w.batches)-1)
	for k := range jobs {
		jobs[k] = job{at: time.Duration(k) * time.Second / ingestRate, class: classIngest,
			do: func(ctx context.Context) (time.Time, error) { return w.post(ctx, c, k+1) }}
	}
	tracedJob := never
	if traced {
		tracedJob = coin
	}
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		openLoop(ctx, start, jobs, 1, rec, tracedJob)
	}()
	closedLoop(ctx, func(int) (job, bool) {
		if time.Since(start) >= seconds {
			return job{}, false
		}
		return job{class: classQuery, do: func(ctx context.Context) (time.Time, error) { return w.query(ctx, c) }}, true
	}, rec, tracedJob)
	wg.Wait()
	window := time.Since(start)
	w.checkCount(ctx, c, rec)
	return window, nil
}

// checkCount checks that every acknowledged read is in the table: the
// raw caser count must be the loaded rows plus the acknowledged rows.
func (w *ingestQuery) checkCount(ctx context.Context, c *client, rec *recorder) {
	start := time.Now()
	err := func() error {
		r, err := c.query(ctx, stmt{name: "count", sql: "SELECT count(*) FROM caser", dirty: true})
		if err != nil {
			return err
		}
		acked := w.acked.Load() * batchRows
		want := fmt.Sprintf("[%d]", w.loaded+acked)
		if len(r.rows) != 1 || r.rows[0] != want {
			return fmt.Errorf("caser count %v after ingest, want %s (%d loaded + %d acknowledged)", r.rows, want, w.loaded, acked)
		}
		return nil
	}()
	rec.record(outcome{class: "check", lat: time.Since(start), err: err}, 0, false, start, time.Now())
}
