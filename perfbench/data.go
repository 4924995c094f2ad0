package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"time"

	"repro"
	"repro/internal/exec"
	"repro/internal/types"
)

// anomalyPct is the RFIDGen dirty percentage every workload loads.
const anomalyPct = 10

// dataset is one generated RFIDGen database, described by the value
// domains the workloads draw their requests from. The database itself is
// saved as a snapshot for the server and then dropped.
type dataset struct {
	// rules are the paper's rule names in Table 1 order (reader,
	// duplicate, replacing, cycle, missing_r1, missing_r2).
	rules []string
	// minT and maxT bound caser.rtime in microseconds.
	minT, maxT int64
	// dc is a distribution-center site that appears in the reads (q2's
	// constant).
	dc string
	// epcs are the distinct case EPCs of caser.
	epcs []string
	// readers, bizLocs and bizSteps are the value domains of caser, which
	// ingested reads reuse.
	readers, bizLocs, bizSteps []string
	// glns lists every locs.gln and locs maps each to its wire-encoded
	// [site, loc_desc] row; products and product do the same for product
	// ids and their [manufacturer, name] rows.
	glns     []string
	locs     map[string]string
	products []int64
	product  map[int64]string
	// loaded is the caser row count after the load.
	loaded int64
}

// generate loads the RFIDGen workload at the given scale from seed, with
// the paper's five rules, into a fresh in-memory database.
func generate(scale int, seed int64) (*repro.DB, *dataset, error) {
	db := repro.Open()
	if err := db.LoadRFIDWorkload(repro.WorkloadConfig{Scale: scale, AnomalyPct: anomalyPct, Seed: seed}); err != nil {
		return nil, nil, fmt.Errorf("load workload: %w", err)
	}
	names, err := db.DefinePaperRules()
	if err != nil {
		return nil, nil, fmt.Errorf("define rules: %w", err)
	}
	ds := &dataset{rules: names, locs: map[string]string{}, product: map[int64]string{}}
	dirty := func(sql string) ([][]repro.Value, error) {
		rows, err := db.Query(sql, repro.WithStrategy(repro.Dirty))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sql, err)
		}
		return rows.Data, nil
	}
	column := func(sql string) ([]string, error) {
		rows, err := dirty(sql)
		if err != nil {
			return nil, err
		}
		out := make([]string, len(rows))
		for i, r := range rows {
			out[i] = r[0].Str()
		}
		return out, nil
	}
	rows, err := dirty(`SELECT MIN(rtime), MAX(rtime), COUNT(*) FROM caser`)
	if err != nil {
		return nil, nil, err
	}
	ds.minT, ds.maxT, ds.loaded = rows[0][0].TimeUsec(), rows[0][1].TimeUsec(), rows[0][2].Int()
	// The same choice of distribution center as the figure harness: the
	// most-visited one, so q2 selects reads at every selectivity.
	if rows, err = dirty(`SELECT l.site, COUNT(*) c FROM caser r, locs l
		WHERE r.biz_loc = l.gln AND l.site IN ('distribution center 0','distribution center 1','distribution center 2','distribution center 3','distribution center 4')
		GROUP BY l.site ORDER BY c DESC, l.site LIMIT 1`); err != nil {
		return nil, nil, err
	}
	if len(rows) == 0 {
		return nil, nil, fmt.Errorf("no distribution center appears in the reads")
	}
	ds.dc = rows[0][0].Str()
	for _, c := range []struct {
		dst *[]string
		sql string
	}{
		{&ds.epcs, `SELECT DISTINCT epc FROM caser ORDER BY epc`},
		{&ds.readers, `SELECT DISTINCT reader FROM caser ORDER BY reader`},
		{&ds.bizLocs, `SELECT DISTINCT biz_loc FROM caser ORDER BY biz_loc`},
		{&ds.bizSteps, `SELECT DISTINCT biz_step FROM caser ORDER BY biz_step`},
	} {
		if *c.dst, err = column(c.sql); err != nil {
			return nil, nil, err
		}
	}
	if rows, err = dirty(`SELECT gln, site, loc_desc FROM locs ORDER BY gln`); err != nil {
		return nil, nil, err
	}
	for _, r := range rows {
		ds.glns = append(ds.glns, r[0].Str())
		ds.locs[r[0].Str()] = encodeRow(r[1:])
	}
	if rows, err = dirty(`SELECT product, manufacturer, name FROM product ORDER BY product`); err != nil {
		return nil, nil, err
	}
	for _, r := range rows {
		ds.products = append(ds.products, r[0].Int())
		ds.product[r[0].Int()] = encodeRow(r[1:])
	}
	return db, ds, nil
}

// stmt is one SQL statement as a client sends it.
type stmt struct {
	name  string
	sql   string
	rules []string
	// dirty skips cleansing; every other statement runs under Auto.
	dirty bool
}

// request is the /v1/query and /v1/prepare body (docs/WIRE.md).
func (s stmt) request() map[string]any {
	req := map[string]any{"sql": s.sql, "strategy": "auto"}
	if s.dirty {
		req["strategy"] = "dirty"
	}
	if s.rules != nil {
		req["rules"] = s.rules
	}
	return req
}

// ts renders the timestamp at fraction f of the caser rtime domain.
func (ds *dataset) ts(f float64) string {
	return types.NewTime(ds.minT + int64(f*float64(ds.maxT-ds.minT))).SQL()
}

// The paper's benchmark queries (§6, Figure 6), with rtime predicates
// scaled so they select about sel of caser.
func (ds *dataset) q1(sel float64) string {
	return fmt.Sprintf(`WITH v1 AS (
  SELECT biz_loc AS current_loc, rtime,
         MAX(rtime) OVER (PARTITION BY epc ORDER BY rtime ROWS BETWEEN 1 PRECEDING AND 1 PRECEDING) AS prev_time,
         MAX(biz_loc) OVER (PARTITION BY epc ORDER BY rtime ROWS BETWEEN 1 PRECEDING AND 1 PRECEDING) AS prev_loc
  FROM caser WHERE rtime <= %s)
SELECT l1.loc_desc, l2.loc_desc, AVG(rtime - prev_time)
FROM v1, locs l1, locs l2
WHERE v1.prev_loc = l1.gln AND v1.current_loc = l2.gln
GROUP BY l1.loc_desc, l2.loc_desc`, ds.ts(sel))
}

func (ds *dataset) q2(sel float64) string {
	return fmt.Sprintf(`SELECT p.manufacturer, COUNT(DISTINCT s.type), COUNT(DISTINCT c.reader)
FROM caser c, steps s, locs l, epc_info i, product p
WHERE c.biz_step = s.biz_step AND c.biz_loc = l.gln
  AND c.epc = i.epc AND i.product = p.product
  AND c.rtime >= %s
  AND l.site = '%s'
GROUP BY p.manufacturer`, ds.ts(1-sel), ds.dc)
}

// q2prime is Figure 8's variant: a business-step type predicate that is
// uncorrelated with EPC sequences replaces the site predicate.
func (ds *dataset) q2prime(sel float64) string {
	return fmt.Sprintf(`SELECT l.site, COUNT(DISTINCT p.manufacturer), COUNT(DISTINCT c.reader)
FROM caser c, steps s, locs l, epc_info i, product p
WHERE c.biz_step = s.biz_step AND c.biz_loc = l.gln
  AND c.epc = i.epc AND i.product = p.product
  AND c.rtime >= %s
  AND s.type = 'type-3'
GROUP BY l.site`, ds.ts(1-sel))
}

// rulePrefix is the first n rules in Table 1 order; n = 5 is all five
// (the missing rule contributes two sub-rules).
func (ds *dataset) rulePrefix(n int) []string {
	if n >= 5 {
		return ds.rules
	}
	return ds.rules[:n]
}

// grid is the 27 paper statements: q1, q2 and q2′ × selectivity {1, 10,
// 40}% × the first {1, 3, 5} rules.
func (ds *dataset) grid() []stmt {
	var out []stmt
	for _, q := range []struct {
		name string
		sql  func(float64) string
	}{{"q1", ds.q1}, {"q2", ds.q2}, {"q2p", ds.q2prime}} {
		for _, sel := range []float64{0.01, 0.10, 0.40} {
			for _, n := range []int{1, 3, 5} {
				out = append(out, stmt{
					name:  fmt.Sprintf("%s/sel=%.0f%%/rules=%d", q.name, sel*100, n),
					sql:   q.sql(sel),
					rules: ds.rulePrefix(n),
				})
			}
		}
	}
	return out
}

// trail is a per-EPC pedigree query under all five rules.
func (ds *dataset) trail(epc string) stmt {
	return stmt{
		name:  "trail",
		sql:   fmt.Sprintf("SELECT rtime, biz_loc, biz_step FROM caser WHERE epc = '%s' ORDER BY rtime", epc),
		rules: ds.rules,
	}
}

func locLookup(gln string) stmt {
	return stmt{name: "locs", sql: fmt.Sprintf("SELECT site, loc_desc FROM locs WHERE gln = '%s'", gln)}
}

func productLookup(id int64) stmt {
	return stmt{name: "product", sql: fmt.Sprintf("SELECT manufacturer, name FROM product WHERE product = %d", id)}
}

// dashboard is the ingest-query workload's reader: q2 at 1% under the
// first three rules.
func (ds *dataset) dashboard() stmt {
	return stmt{name: "dashboard", sql: ds.q2(0.01), rules: ds.rulePrefix(3)}
}

// batchRows is the row count of one ingest batch.
const batchRows = 100

// ingestBatch makes batch number n of new caser reads: known case EPCs,
// readers, locations and steps, at one-second steps after the loaded
// window, so batches never repeat a read. Values are in wire form (TIME
// as epoch microseconds).
func (ds *dataset) ingestBatch(rng *rand.Rand, n int) [][]any {
	base := ds.maxT + int64(time.Hour/time.Microsecond)
	rows := make([][]any, batchRows)
	for i := range rows {
		rows[i] = []any{
			ds.epcs[rng.Intn(len(ds.epcs))],
			base + int64(n*batchRows+i)*int64(time.Second/time.Microsecond),
			ds.readers[rng.Intn(len(ds.readers))],
			ds.bizLocs[rng.Intn(len(ds.bizLocs))],
			ds.bizSteps[rng.Intn(len(ds.bizSteps))],
		}
	}
	return rows
}

// ingestValues converts a wire batch to engine values for DB.Ingest.
func ingestValues(batch [][]any) [][]repro.Value {
	out := make([][]repro.Value, len(batch))
	for i, r := range batch {
		out[i] = []repro.Value{
			repro.NewString(r[0].(string)),
			repro.NewTime(time.UnixMicro(r[1].(int64))),
			repro.NewString(r[2].(string)),
			repro.NewString(r[3].(string)),
			repro.NewString(r[4].(string)),
		}
	}
	return out
}

// skewed draws indexes in [0, n) with probability proportional to
// 1/(i+1)^s, by inverse CDF over a precomputed table.
type skewed struct{ cdf []float64 }

func newSkewed(n int, s float64) *skewed {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &skewed{cdf: cdf}
}

func (z *skewed) draw(rng *rand.Rand) int {
	return sort.SearchFloat64s(z.cdf, rng.Float64())
}

// encodeValue is the wire encoding of one value (docs/WIRE.md): NULL →
// null, BOOL → bool, INT/FLOAT → number, STRING → string, TIME →
// RFC3339Nano UTC string, INTERVAL → microseconds. Encoding reference rows
// the same way lets them compare byte for byte with served rows.
func encodeValue(v repro.Value) any {
	switch v.Kind() {
	case types.KindNull:
		return nil
	case types.KindBool:
		return v.Bool()
	case types.KindInt:
		return v.Int()
	case types.KindFloat:
		return v.Float()
	case types.KindString:
		return v.Str()
	case types.KindTime:
		return time.UnixMicro(v.TimeUsec()).UTC().Format(time.RFC3339Nano)
	case types.KindInterval:
		return v.IntervalUsec()
	default:
		return v.String()
	}
}

// encodeRow renders one row as the JSON array the server sends for it.
func encodeRow(row []repro.Value) string {
	enc := make([]any, len(row))
	for i, v := range row {
		enc[i] = encodeValue(v)
	}
	b, err := json.Marshal(enc)
	if err != nil {
		// Every encodeValue result is a JSON-encodable scalar.
		panic(err)
	}
	return string(b)
}

// answer is a result as a sorted multiset of wire-encoded rows: two
// results are equal when their answers are, which is how the Theorem 1
// tests compare strategies.
type answer []string

func newAnswer(rows []string) answer {
	a := append(answer(nil), rows...)
	sort.Strings(a)
	return a
}

func (a answer) equal(b answer) bool { return slices.Equal(a, b) }

// naiveAnswer is s's answer under the naive rewrite, computed in-process
// through the facade.
func naiveAnswer(db *repro.DB, s stmt) (answer, error) {
	res, err := db.Query(s.sql, repro.WithStrategy(repro.Naive), repro.WithRules(s.rules...))
	if err != nil {
		return nil, fmt.Errorf("%s under naive: %w", s.name, err)
	}
	rows := make([]string, len(res.Data))
	for i, r := range res.Data {
		rows[i] = encodeRow(r)
	}
	return newAnswer(rows), nil
}

// strategyRun is one statement compiled under one strategy and executed
// once in-process.
type strategyRun struct {
	feasible bool
	rows     answer
	exec     time.Duration
}

// repeatBelow is the exec time under which runStrategy runs a plan twice
// more and keeps the fastest time: a single scheduling delay distorts a
// short plan's time the most.
const repeatBelow = 200 * time.Millisecond

// runStrategy rewrites s under strat and executes the plan with exec.Run
// at the server's parallelism.
// An infeasible rewrite (expanded under the cycle or missing rule, Table
// 1) is reported, not failed.
func runStrategy(db *repro.DB, s stmt, strat repro.Strategy) (strategyRun, error) {
	res, err := db.Rewriter.RewriteSQL(s.sql, s.rules, strat)
	if err != nil {
		if strat == repro.Expanded {
			return strategyRun{}, nil
		}
		return strategyRun{}, fmt.Errorf("rewrite %s under %v: %w", s.name, strat, err)
	}
	start := time.Now()
	out, err := exec.Run(exec.NewCtx().SetParallelism(queryParallelism), res.Plan)
	d := time.Since(start)
	if err != nil {
		return strategyRun{}, fmt.Errorf("execute %s under %v: %w", s.name, strat, err)
	}
	for i := 0; i < 2 && d < repeatBelow; i++ {
		start := time.Now()
		if _, err := exec.Run(exec.NewCtx().SetParallelism(queryParallelism), res.Plan); err != nil {
			return strategyRun{}, fmt.Errorf("execute %s under %v: %w", s.name, strat, err)
		}
		d = min(d, time.Since(start))
	}
	rows := make([]string, len(out.Rows))
	for i, r := range out.Rows {
		rows[i] = encodeRow(r)
	}
	return strategyRun{feasible: true, rows: newAnswer(rows), exec: d}, nil
}
