// Command perfbench is the repository's served-path benchmark. It
// generates the RFIDGen database, starts rfidserve on a snapshot of it,
// drives one workload over HTTP with a request stream made from -seed,
// checks every answer, and prints each metric by name and unit, then one
// JSON result line:
//
//	perfbench -server rfidserve -workload paper-grid -seed 1 -seconds 30 -trace 0
//
// With -trace 1 it instead reports per-layer metrics: the same served
// workload with client spans and server metric deltas, followed by an
// in-process phase that times each layer's public entry points. README.md
// describes the workloads and metrics; run.sh builds and runs it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro"
)

// defaultDataSeed is the RFIDGen seed of the benchmark database, the one
// the figure harness (internal/bench) uses. The database is fixed so that
// runs with different -seed values differ only in their request streams:
// across RFIDGen seeds the reads table varies by about ±8% in size and
// Auto's picks change, which spread paper-grid's p50 by 30% of its median
// over five seeds, wider than any bound the benchmark could keep.
const defaultDataSeed = 20060912

// scale is the RFIDGen scale factor of the benchmark database: about
// 66,000 caser reads and 2,049 case EPCs.
const scale = 40

// setupRuns is how many times an untraced run starts the server to
// measure setup_s; it reports the median.
const setupRuns = 5

// lagLimit is the generator lag (p99) above which a run is invalid: the
// load generator itself fell behind its schedule. On a 2-vCPU VM the p99
// is a few milliseconds.
const lagLimit = 25 * time.Millisecond

type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	server   string
	work     string
	scale    int
	// dataSeed seeds RFIDGen; seed drives only the request stream.
	dataSeed int64
}

// metric is one reported number.
type metric struct {
	name, unit string
	value      float64
	note       string
}

type result struct {
	correct           bool
	attempted, failed int
	metrics           []metric
}

// endToEnd are the metrics an untraced run reports in its result line,
// and perLayer those of a traced run, in report order; BENCHMARK.json
// lists the same names.
var (
	endToEnd = []string{"setup_s", "rss_peak_mb", "query_qps", "query_p50_ms", "query_tail_ms"}
	perLayer = append([]string{
		"core.compile_ms", "core.parse_ms", "core.rewrite_ms", "plan.plan_ms",
		"core.auto_regret", "core.auto_best_picks",
		"plan.qerror_p50", "plan.qerror_max",
		"exec.run_ms", "exec.drain_ms", "exec.rows_in_per_row_out",
		"storage.pruned_frac",
		"repro.query_overhead_ms", "repro.stream_overhead_ms", "repro.prepared_overhead_ms", "repro.plan_cache_hit_ratio",
		"govern.admit_wait_ms",
		"serve.overhead_ms", "serve.bytes_per_row",
		"persist.ingest_ms", "persist.fsync_ms", "persist.fsyncs_per_batch", "persist.wal_bytes_per_row",
		"runtime.gc_pause_ms", "loadgen.lag_ms", "trace.overhead_frac",
	}, selfMetricNames()...)
)

func selfMetricNames() []string {
	var out []string
	for _, k := range selfKinds {
		out = append(out, "exec.self_ms."+k)
	}
	return out
}

func main() {
	var cfg config
	var seconds, trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: paper-grid, epc-trail or ingest-query")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the request stream: statement order, requested keys and ingested reads")
	flag.IntVar(&seconds, "seconds", 30, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run instead of end-to-end metrics")
	flag.StringVar(&cfg.server, "server", "", "path of the rfidserve binary under test")
	flag.StringVar(&cfg.work, "work", ".bench_build/work", "directory for snapshots, WALs, spill files and spans")
	flag.Int64Var(&cfg.dataSeed, "data-seed", defaultDataSeed, "RFIDGen seed of the database; the held-out check changes it")
	flag.Parse()
	cfg.seconds, cfg.trace, cfg.scale = time.Duration(seconds)*time.Second, trace == 1, scale
	if cfg.server == "" || seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench -server <rfidserve> -workload <name> -seed <n> -seconds <n> -trace <0|1>")
		os.Exit(2)
	}
	res, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, m := range res.metrics {
		fmt.Printf("%-30s %14.4f %-6s %s\n", m.name, m.value, m.unit, m.note)
	}
	line, err := resultJSON(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(line)
	if !res.correct {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed or were wrong\n", res.failed, res.attempted)
		os.Exit(1)
	}
}

// resultJSON renders the result line: correctness, counts, and the
// metrics of this run's kind.
func resultJSON(res result) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct, res.attempted, res.failed, map[string]value{}}
	for _, m := range res.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return "", fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(out)
	return string(b), err
}

func run(ctx context.Context, cfg config) (result, error) {
	if _, err := os.Stat(cfg.server); err != nil {
		return result{}, fmt.Errorf("server binary: %w", err)
	}
	work, err := filepath.Abs(filepath.Join(cfg.work, fmt.Sprintf("%s-%d-%d", cfg.workload, cfg.seed, os.Getpid())))
	if err != nil {
		return result{}, err
	}
	if err := os.MkdirAll(filepath.Join(work, "spill"), 0o755); err != nil {
		return result{}, err
	}
	defer os.RemoveAll(work)

	db, ds, err := generate(cfg.scale, cfg.dataSeed)
	if err != nil {
		return result{}, err
	}
	snap := filepath.Join(work, "snap")
	if err := db.Save(snap); err != nil {
		return result{}, fmt.Errorf("save snapshot: %w", err)
	}
	// A traced run keeps a durable copy of the database in-process for its
	// layer probes, restored from the snapshot as the server restores it;
	// references are computed on it, so the generated database can go.
	if cfg.trace {
		if err := db.Close(); err != nil {
			return result{}, err
		}
		db, err = repro.OpenDir(snap, repro.WithWAL(filepath.Join(work, "probe-wal")), repro.WithFsyncPolicy(repro.FsyncAlways))
		if err != nil {
			return result{}, fmt.Errorf("open probe database: %w", err)
		}
		defer db.Close()
	}
	w, err := newWorkload(cfg.workload, db, ds, snap, cfg.seed, cfg.seconds)
	if err != nil {
		return result{}, err
	}
	if !cfg.trace {
		if err := db.Close(); err != nil {
			return result{}, err
		}
		db = nil
	}
	runtime.GC()

	// Start the server setupRuns times (once when traced) and keep the
	// last one for the workload.
	var setups []float64
	var srv *server
	var args []string
	for k := 0; k < setupRuns && (k == 0 || !cfg.trace); k++ {
		if srv != nil {
			srv.stop()
		}
		wal := ""
		if w.wal() {
			wal = filepath.Join(work, fmt.Sprintf("wal-%d", k))
		}
		args = serverFlags(snap, filepath.Join(work, "spill"), filepath.Join(work, "addr"), wal)
		var d time.Duration
		if srv, d, err = startServer(ctx, cfg.server, args, filepath.Join(work, "addr"), filepath.Join(work, fmt.Sprintf("server-%d.log", k))); err != nil {
			return result{}, err
		}
		setups = append(setups, d.Seconds())
	}
	defer srv.stop()
	fmt.Printf("server flags: %s\n", strings.ReplaceAll(strings.Join(args, " "), work, "<work>"))
	c := newClient(srv.addr)
	defer c.close()

	var tr *tracer
	var before promSample
	if cfg.trace {
		tr = newTracer()
		if before, err = scrape(ctx, c); err != nil {
			return result{}, err
		}
	}
	rec := &recorder{tr: tr}
	window, err := w.serve(ctx, c, cfg.seconds, rec, cfg.trace)
	if err != nil {
		return result{}, err
	}
	rss, err := srv.peakRSSMB()
	if err != nil {
		return result{}, err
	}
	var after promSample
	if cfg.trace {
		if after, err = scrape(ctx, c); err != nil {
			return result{}, err
		}
	}
	srv.stop()

	res := result{}
	res.attempted, res.failed = rec.counts()
	for _, o := range rec.outs {
		if o.err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: failed:", o.err)
			break
		}
	}
	lags := make([]float64, len(rec.lags))
	for i, l := range rec.lags {
		lags[i] = ms(l)
	}
	sort.Float64s(lags)
	lag := quantile(lags, 0.99)
	if len(lags) == 0 {
		lag = 0
	}
	valid := lag <= ms(lagLimit)
	if !valid {
		fmt.Fprintf(os.Stderr, "perfbench: run invalid: generator lag p99 %.1f ms exceeds %v\n", lag, lagLimit)
	}

	if !cfg.trace {
		res.metrics = servedMetrics(w, rec, window, median(setups), rss)
	} else {
		m, attempted, failed, err := probeLayers(ctx, db, ds, w, cfg.seed, tr)
		if err != nil {
			return result{}, err
		}
		res.attempted += attempted
		res.failed += failed
		hits := after["repro_plan_cache_hits_total"] - before["repro_plan_cache_hits_total"]
		misses := after["repro_plan_cache_misses_total"] - before["repro_plan_cache_misses_total"]
		m["repro.plan_cache_hit_ratio"] = hits / math.Max(hits+misses, 1)
		m["govern.admit_wait_ms"] = meanDeltaMS(before, after, "repro_admission_wait_seconds")
		m["runtime.gc_pause_ms"] = (after["repro_runtime_gc_pause_seconds_total"] - before["repro_runtime_gc_pause_seconds_total"]) * 1000
		m["loadgen.lag_ms"] = lag
		traced := rec.latencies(classQuery, func(o outcome) bool { return o.traced })
		untraced := rec.latencies(classQuery, func(o outcome) bool { return !o.traced })
		if len(traced) > 0 && len(untraced) > 0 {
			m["trace.overhead_frac"] = median(traced)/median(untraced) - 1
		}
		for _, name := range perLayer {
			res.metrics = append(res.metrics, metric{name: name, unit: layerUnit(name), value: m[name]})
		}
		if err := tr.write(filepath.Join(filepath.Dir(cfg.work), "spans", fmt.Sprintf("%s-%d.json", cfg.workload, cfg.seed))); err != nil {
			return result{}, err
		}
	}
	res.correct = res.failed == 0 && valid
	return res, nil
}

// servedMetrics computes the end-to-end metrics of an untraced run, in the
// order of endToEnd, and prints the class metrics that only some
// workloads have.
func servedMetrics(w workload, rec *recorder, window time.Duration, setup, rss float64) []metric {
	tails := w.tails()
	queries := rec.latencies(classQuery, nil)
	byName := map[string]metric{}
	for _, m := range append([]metric{
		{name: "setup_s", unit: "s", value: setup, note: fmt.Sprintf("median of %d starts", setupRuns)},
		{name: "rss_peak_mb", unit: "MiB", value: rss},
		{name: "query_qps", unit: "1/s", value: float64(len(queries)) / window.Seconds(), note: fmt.Sprintf("%d correct in %.1fs", len(queries), window.Seconds())},
	}, classMetrics("query", queries, tails[classQuery])...) {
		byName[m.name] = m
	}
	out := make([]metric, len(endToEnd))
	for i, name := range endToEnd {
		out[i] = byName[name]
	}
	attempted, failed := rec.counts()
	extra := []metric{{name: "failed_frac", unit: "frac", value: float64(failed) / float64(attempted), note: fmt.Sprintf("%d of %d", failed, attempted)}}
	if p, ok := tails[classLookup]; ok {
		extra = append(extra, classMetrics("lookup", rec.latencies(classLookup, nil), p)...)
	}
	if p, ok := tails[classIngest]; ok {
		extra = append(extra, classMetrics("ingest", rec.latencies(classIngest, nil), p)...)
	}
	for _, m := range extra {
		fmt.Printf("%-30s %14.4f %-6s %s\n", m.name, m.value, m.unit, m.note)
	}
	return out
}

// classMetrics are the median and tail latency of one class.
func classMetrics(class string, lats []float64, p int) []metric {
	if len(lats) == 0 {
		// A run with no correct answer in the class fails; it reports 0.
		return []metric{{name: class + "_p50_ms", unit: "ms", note: "no correct answers"}, {name: class + "_tail_ms", unit: "ms", note: "no correct answers"}}
	}
	v, beyond := tail(lats, p)
	note := fmt.Sprintf("p%d, n=%d, %.1f beyond", p, len(lats), beyond)
	if beyond < 10 {
		note += " (fewer than 10 samples beyond the percentile)"
	}
	return []metric{
		{name: class + "_p50_ms", unit: "ms", value: quantile(lats, 0.5), note: fmt.Sprintf("n=%d", len(lats))},
		{name: class + "_tail_ms", unit: "ms", value: v, note: note},
	}
}

// layerUnit is the unit of a per-layer metric, read from its name.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms") || strings.HasPrefix(name, "exec.self_ms."):
		return "ms"
	case name == "core.auto_best_picks":
		return "count"
	case name == "serve.bytes_per_row" || name == "persist.wal_bytes_per_row":
		return "B/row"
	case name == "persist.fsyncs_per_batch":
		return "1/batch"
	default:
		return "ratio"
	}
}
