package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/serve"
)

// selfKinds are the exec operator families whose self time the traced run
// reports; each appears in the plans of every workload.
var selfKinds = []string{"Scan", "IndexScan", "Filter", "Project", "HashJoin", "Sort", "Window", "Requalify"}

// probeBatches is how many ingest batches the traced run appends
// in-process after the statements (ingest-query interleaves them).
const probeBatches = 16

// strategyOf is the strategy a statement runs under.
func strategyOf(s stmt) repro.Strategy {
	if s.dirty {
		return repro.Dirty
	}
	return repro.Auto
}

func queryOptions(s stmt) []repro.QueryOption {
	opts := []repro.QueryOption{repro.WithStrategy(strategyOf(s)), repro.WithParallelism(queryParallelism)}
	if s.rules != nil {
		opts = append(opts, repro.WithRules(s.rules...))
	}
	return opts
}

// layerStats accumulates the per-statement measurements of the probe.
type layerStats struct {
	compile, parse, rewrite, plan, run, drain []float64
	// Facade and serve overheads are per-statement differences.
	queryOver, streamOver, preparedOver, serveOver []float64
	self                                           map[string]float64
	qerr                                           []float64
	scanRows, rootRows, segments, pruned           float64
	bytes, rows                                    float64
	ingest                                         []float64
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// probeLayers is the traced run's in-process phase. It opens an HTTP
// front end over db on a loopback listener and, for each probe statement,
// times the public entry point of every layer on the same statement:
// compile (core.Rewriter.RewriteSQL), exec.Run and a drained exec.Open of
// the compiled plan, the facade's DB.Query, drained DB.QueryStream and
// drained Prepared.Stream, and /v1/query on the loopback server. It also
// times the regret statements under every strategy and appends ingest
// batches with DB.IngestContext. Every execution runs at the server's
// queryParallelism, so the layer times explain the served ones.
func probeLayers(ctx context.Context, db *repro.DB, ds *dataset, w workload, seed int64, tr *tracer) (map[string]float64, int, int, error) {
	srv := serve.New(serve.Config{DB: db, QueryOptions: []repro.QueryOption{repro.WithParallelism(queryParallelism)}})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, 0, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		_ = srv.Close()
		_ = hs.Close()
		<-served
	}()
	lc := newClient(ln.Addr().String())
	defer lc.close()

	// Regret is timed first, on the database as loaded: rows appended by
	// the ingest probes below are not visible to index scans (see
	// README.md, known defects), so strategies would disagree after them.
	regret, picks, attempted, failed, err := probeRegret(db, w, tr)
	if err != nil {
		return nil, 0, 0, err
	}
	st := &layerStats{self: map[string]float64{}}
	before, err := scrape(ctx, lc)
	if err != nil {
		return nil, 0, 0, err
	}
	wal0 := db.WALStats()
	batches := 0
	rng := rand.New(rand.NewSource(seed))
	ingest := func() error {
		batch := ingestValues(ds.ingestBatch(rng, 1_000_000+batches))
		_, d, err := tr.timed("persist.ingest", 0, func() error { return db.IngestContext(ctx, "caser", batch...) })
		st.ingest = append(st.ingest, ms(d))
		batches++
		return err
	}
	// A WAL-backed workload ingests beside its statements, so its probes
	// interleave a batch before each statement; the others append their
	// batches after the statements.
	for _, s := range w.probes() {
		if w.wal() {
			if err := ingest(); err != nil {
				return nil, 0, 0, fmt.Errorf("probe ingest: %w", err)
			}
		}
		if err := probeStmt(ctx, db, lc, s, st, tr); err != nil {
			return nil, 0, 0, fmt.Errorf("probe %s: %w", s.name, err)
		}
	}
	for batches < probeBatches {
		if err := ingest(); err != nil {
			return nil, 0, 0, fmt.Errorf("probe ingest: %w", err)
		}
	}
	after, err := scrape(ctx, lc)
	if err != nil {
		return nil, 0, 0, err
	}
	wal1 := db.WALStats()

	m := map[string]float64{
		"core.compile_ms":            mean(st.compile),
		"core.parse_ms":              mean(st.parse),
		"core.rewrite_ms":            mean(st.rewrite),
		"plan.plan_ms":               mean(st.plan),
		"exec.run_ms":                mean(st.run),
		"exec.drain_ms":              mean(st.drain),
		"exec.rows_in_per_row_out":   st.scanRows / math.Max(st.rootRows, 1),
		"storage.pruned_frac":        st.pruned / math.Max(st.segments, 1),
		"repro.query_overhead_ms":    median(st.queryOver),
		"repro.stream_overhead_ms":   median(st.streamOver),
		"repro.prepared_overhead_ms": median(st.preparedOver),
		"serve.overhead_ms":          median(st.serveOver),
		"serve.bytes_per_row":        st.bytes / math.Max(st.rows, 1),
		"persist.ingest_ms":          mean(st.ingest),
		"persist.fsync_ms":           meanDeltaMS(before, after, "repro_wal_fsync_seconds"),
		"persist.fsyncs_per_batch":   (after["repro_wal_fsync_seconds_count"] - before["repro_wal_fsync_seconds_count"]) / float64(batches),
		"persist.wal_bytes_per_row":  float64(wal1.Bytes-wal0.Bytes) / float64(batches*batchRows),
	}
	if wal1.Seq != wal0.Seq {
		return nil, 0, 0, errors.New("the WAL rotated during the probe; wal_bytes_per_row would be wrong")
	}
	n := float64(len(st.run))
	for _, k := range selfKinds {
		m["exec.self_ms."+k] = st.self[k] / n
	}
	sort.Float64s(st.qerr)
	m["plan.qerror_p50"] = quantile(st.qerr, 0.5)
	m["plan.qerror_max"] = quantile(st.qerr, 1)
	m["core.auto_regret"], m["core.auto_best_picks"] = regret, picks
	return m, attempted, failed, nil
}

// probeStmt measures one statement through every layer.
func probeStmt(ctx context.Context, db *repro.DB, lc *client, s stmt, st *layerStats, tr *tracer) error {
	root := tr.open("probe")
	defer tr.close(root)
	var res *core.Result
	_, compile, err := tr.timed("core.compile", root, func() error {
		var err error
		res, err = db.Rewriter.RewriteSQL(s.sql, s.rules, strategyOf(s))
		return err
	})
	if err != nil {
		return err
	}
	st.compile = append(st.compile, ms(compile))
	st.parse = append(st.parse, ms(res.Phases.Parse))
	st.rewrite = append(st.rewrite, ms(res.Phases.Rewrite))
	st.plan = append(st.plan, ms(res.Phases.Plan))

	// exec.Run is timed without operator statistics, which a separate
	// run collects, so the facade overheads below subtract the same work.
	_, run, err := tr.timed("exec.run", root, func() error {
		_, err := exec.Run(exec.NewCtxWith(ctx).SetParallelism(queryParallelism), res.Plan)
		return err
	})
	if err != nil {
		return err
	}
	st.run = append(st.run, ms(run))
	sctx := exec.NewCtxWith(ctx).SetParallelism(queryParallelism).EnableStats()
	out, err := exec.Run(sctx, res.Plan)
	if err != nil {
		return err
	}
	operatorStats(sctx.StatsSnapshot(), len(out.Rows), st)

	_, drain, err := tr.timed("exec.drain", root, func() error {
		return drainExec(exec.Open(exec.NewCtxWith(ctx).SetParallelism(queryParallelism), res.Plan))
	})
	if err != nil {
		return err
	}
	st.drain = append(st.drain, ms(drain))

	// The facade is timed on a plan-cache hit, so its overhead excludes
	// compilation, which core.compile_ms measures.
	opts := queryOptions(s)
	if _, err := db.RewriteContext(ctx, s.sql, opts...); err != nil {
		return err
	}
	_, q, err := tr.timed("repro.query", root, func() error {
		_, err := db.QueryContext(ctx, s.sql, opts...)
		return err
	})
	if err != nil {
		return err
	}
	st.queryOver = append(st.queryOver, ms(q-run))
	_, stream, err := tr.timed("repro.stream", root, func() error {
		rows, err := db.QueryStreamContext(ctx, s.sql, opts...)
		if err != nil {
			return err
		}
		return drainRows(rows)
	})
	if err != nil {
		return err
	}
	st.streamOver = append(st.streamOver, ms(stream-drain))
	p, err := db.PrepareContext(ctx, s.sql, opts...)
	if err != nil {
		return err
	}
	_, prepared, err := tr.timed("repro.prepared_stream", root, func() error {
		rows, err := p.StreamContext(ctx)
		if err != nil {
			return err
		}
		return drainRows(rows)
	})
	if err != nil {
		return err
	}
	st.preparedOver = append(st.preparedOver, ms(prepared-drain))
	var r reply
	_, served, err := tr.timed("serve.query", root, func() error {
		var err error
		r, err = lc.query(ctx, s)
		return err
	})
	if err != nil {
		return err
	}
	st.serveOver = append(st.serveOver, ms(served-stream))
	st.bytes += float64(r.bytes)
	st.rows += float64(len(r.rows))
	return nil
}

// operatorStats folds one execution's operator statistics into st: self
// time per operator family, q-error of every operator's row estimate,
// rows scanned, and zone-map pruning.
func operatorStats(stats map[exec.Node]*exec.NodeStats, rootRows int, st *layerStats) {
	for n, ns := range stats {
		self := ns.Elapsed
		for _, c := range n.Children() {
			if cs := stats[c]; cs != nil {
				self -= cs.Elapsed
			}
		}
		st.self[exec.Kind(n)] += ms(max(self, 0))
		est, act := math.Max(n.EstRows(), 1), math.Max(float64(ns.Rows), 1)
		st.qerr = append(st.qerr, math.Max(est/act, act/est))
		if k := exec.Kind(n); k == "Scan" || k == "IndexScan" {
			st.scanRows += float64(ns.Rows)
		}
		st.segments += float64(ns.Segments)
		st.pruned += float64(ns.Pruned)
	}
	st.rootRows += float64(rootRows)
}

func drainExec(s exec.Stream) error {
	for {
		b, err := s.Next()
		if err != nil || b == nil {
			if cerr := s.Close(); err == nil {
				err = cerr
			}
			return err
		}
	}
}

func drainRows(rows *repro.Rows) error {
	for rows.Next() {
	}
	err := rows.Err()
	if cerr := rows.Close(); err == nil {
		err = cerr
	}
	return err
}

// autoPickTolerance is how much slower than the best strategy Auto's pick
// may run and still count as a best pick.
const autoPickTolerance = 1.15

// probeRegret times each regret statement under every feasible strategy
// and under Auto, and checks Theorem 1: every strategy returns the naive
// rewrite's answer. It returns Σ Auto exec time ÷ Σ fastest feasible
// strategy's exec time, and the number of statements where Auto's pick
// ran within autoPickTolerance of the fastest.
func probeRegret(db *repro.DB, w workload, tr *tracer) (regret, picks float64, attempted, failed int, err error) {
	var autoSum, bestSum float64
	for _, s := range w.regret() {
		var naive strategyRun
		best := math.Inf(1)
		for _, strat := range []repro.Strategy{repro.Naive, repro.Expanded, repro.JoinBack, repro.Auto} {
			var r strategyRun
			if _, _, err = tr.timed("regret."+strat.String(), 0, func() error {
				var err error
				r, err = runStrategy(db, s, strat)
				return err
			}); err != nil {
				return 0, 0, 0, 0, err
			}
			if !r.feasible {
				continue
			}
			attempted++
			if strat == repro.Naive {
				naive = r
			} else if !r.rows.equal(naive.rows) {
				failed++
				fmt.Printf("theorem 1 violated: %s under %v: %v\n", s.name, strat, wrongAnswer(s, r.rows, naive.rows))
			}
			if strat == repro.Auto {
				autoSum += ms(r.exec)
				if ms(r.exec) <= autoPickTolerance*best {
					picks++
				}
				continue
			}
			best = math.Min(best, ms(r.exec))
		}
		bestSum += best
	}
	fmt.Printf("core.auto_regret base: Σ fastest feasible strategy %.1f ms over %d statements (Auto %.1f ms)\n", bestSum, len(w.regret()), autoSum)
	return autoSum / bestSum, picks, attempted, failed, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
