// Package exec implements the physical query operators of the embedded
// engine: scans (sequential and index-range), filters, projections, sorts,
// hash and nested-loop joins, hash aggregation (including COUNT(DISTINCT)),
// set operations, and the SQL/OLAP window operator with ROWS and RANGE
// frames that the paper's cleansing templates compile into.
//
// There is one executor (stream.go). A plan runs as a tree of pipelines:
// each pipeline is one morsel source — a scan, literal rows, or the
// materialized output of a pipeline breaker — plus a chain of per-batch
// stages (filter, project, requalify, hash-join probe) that the morsel
// pump's workers apply to every morsel. Breakers (sort, aggregation,
// window, distinct, set operations, the nested-loop join) read their
// inputs whole through Run and materialize their output. Open streams a
// plan's rows batch by batch; Run collects the same stream into a Result.
//
// Within a query, work is morsel-parallel (see parallel.go): pipelines
// and breaker hot loops fan out over a worker pool sized by the
// Parallelism knob while preserving the exact serial output, and
// independent plan children (the two inputs of a set operation or
// nested-loop join) execute concurrently.
package exec

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/eval"
	"repro/internal/govern"
	"repro/internal/schema"
	"repro/internal/storage"
)

// Result is a materialized relation.
type Result struct {
	Schema *schema.Schema
	Rows   []schema.Row
}

// Ctx carries per-execution state: the governing context.Context (for
// cancellation and deadlines), the per-query parallelism cap, the result
// cache that lets shared subtrees (CTE bodies referenced from more than
// one parent edge) run once per statement, and optional per-operator
// runtime statistics. The cache and stats maps are mutex-guarded because
// independent plan children execute concurrently (see runPair).
type Ctx struct {
	ctx context.Context
	// par caps intra-query parallelism (worker-pool width per operator
	// and concurrent children); defaults to the Parallelism package knob.
	par int
	// vec enables batch (vectorized) expression evaluation; defaults to
	// the Vectorize package knob.
	vec bool
	// res governs this execution's memory budget, spill files, and fault
	// injection; never nil (defaults to an unbounded handle).
	res *govern.Resources
	// buildReuse allows CacheBuild hash joins to reuse build tables
	// cached under epoch buildEpoch; see Ctx.EnableBuildReuse.
	buildReuse bool
	buildEpoch uint64

	mu sync.Mutex
	// edges counts each node's parent edges over every plan passed to
	// Run or Open under this context, counted once per plan; roots are
	// the nodes callers passed to Run. Only those two kinds of node are
	// cached: a node with more than one parent edge, so a shared subtree
	// executes once even when it sits under two different breakers, and
	// a Run root, so a repeated Run of it is a cache hit. Every other
	// intermediate result is dropped as soon as its consumer is done.
	edges map[Node]int
	roots map[Node]bool
	cache map[Node]*inflight
	// stats, when non-nil, collects per-operator runtime statistics —
	// rows, elapsed time, worker fan-out, eval mode, spill activity — in
	// one map. This is the engine's single stats path: EXPLAIN ANALYZE,
	// query traces, the metrics registry, and the slow-query log all read
	// the NodeStats recorded here; nothing else counts operator work.
	stats map[Node]*NodeStats
}

// inflight is one node's execution slot: the sync.Once makes a subtree
// shared between concurrently-executing plan children run exactly once,
// with late arrivals blocking until the first execution completes.
type inflight struct {
	once sync.Once
	res  *Result
	err  error
}

// NodeStats is the measured behaviour of one operator in one execution.
type NodeStats struct {
	// Rows is the actual output cardinality.
	Rows int
	// Start is when the operator (or the pipeline it is a stage of)
	// started executing.
	Start time.Time
	// Elapsed is cumulative time, inputs included. For a breaker it is
	// the wall time of its materialization. For a pipeline stage or scan
	// it is the operator's own summed batch time (summed over workers
	// when the pipeline ran in parallel) plus its input's Elapsed.
	Elapsed time.Duration
	// Hits counts cache hits beyond the first execution (shared CTEs).
	Hits int
	// Workers is the operator's parallel fan-out; 0 or 1 means it ran
	// serially (small input, or Parallelism=1).
	Workers int
	// EvalMode is "vector" when the operator evaluated its expressions
	// through the batch kernels, "row" for the row-at-a-time path, and
	// empty for operators that evaluate no expressions.
	EvalMode string
	// Batches counts vector-kernel chunks the operator processed
	// (vector mode only).
	Batches int
	// SpillRuns counts external runs / grace partitions this operator
	// wrote to temp files (0 = stayed in memory); SpillBytes is the data
	// volume that went through disk.
	SpillRuns  int
	SpillBytes int64
	// Segments is the number of storage segments a scan considered;
	// Pruned is how many of those its zone maps eliminated without
	// reading. Both zero for non-scan operators and unfused scans.
	Segments int
	Pruned   int
}

// NewCtx returns a fresh execution context that is never canceled.
func NewCtx() *Ctx { return NewCtxWith(context.Background()) }

// NewCtxWith returns a fresh execution context governed by ctx: operators
// poll it cooperatively (every cancelCheckInterval rows in their hot
// loops) and abort with ctx.Err() once it is done.
func NewCtxWith(ctx context.Context) *Ctx {
	return &Ctx{ctx: ctx, par: defaultParallelism(), vec: Vectorize, res: govern.Unbounded(),
		edges: map[Node]int{}, roots: map[Node]bool{}, cache: map[Node]*inflight{}}
}

// NewAnalyzeCtx returns a context that records per-operator statistics.
func NewAnalyzeCtx() *Ctx { return NewCtx().EnableStats() }

// EnableStats switches on per-operator statistics collection for this
// execution. The serving layer enables it for every telemetry-observed
// query (not just EXPLAIN ANALYZE): the same NodeStats feed the analyze
// printout, the trace span tree, and the per-operator metric counters.
// It returns c for chaining and must be called before Run.
func (c *Ctx) EnableStats() *Ctx {
	if c.stats == nil {
		c.stats = map[Node]*NodeStats{}
	}
	return c
}

// StatsSnapshot returns the per-operator statistics recorded so far, one
// entry per distinct plan node (shared subtrees appear once, however
// many tree positions reference them — iterating this map never double
// counts an operator's rows). The returned map is a copy; the NodeStats
// values are shared and must not be mutated.
func (c *Ctx) StatsSnapshot() map[Node]*NodeStats {
	if c.stats == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[Node]*NodeStats, len(c.stats))
	for n, st := range c.stats {
		out[n] = st
	}
	return out
}

// SetParallelism caps intra-query parallelism for executions under this
// context; n < 1 resets to the package-level Parallelism default. It
// returns c for chaining and must be called before Run.
func (c *Ctx) SetParallelism(n int) *Ctx {
	if n < 1 {
		n = defaultParallelism()
	}
	c.par = n
	return c
}

// SetVectorize switches batch expression evaluation on or off for
// executions under this context. Results are bit-identical either way.
// It returns c for chaining and must be called before Run.
func (c *Ctx) SetVectorize(on bool) *Ctx {
	c.vec = on
	return c
}

// SetResources attaches the query's governance handle — memory budget,
// spill management, fault injection. nil keeps the default unbounded
// handle. It returns c for chaining and must be called before Run.
func (c *Ctx) SetResources(r *govern.Resources) *Ctx {
	if r != nil {
		c.res = r
	}
	return c
}

// EnableBuildReuse lets hash joins the planner marked CacheBuild reuse
// their build-side table across executions of the same plan node, as
// long as the catalog epoch still matches the one the table was built
// under — prepared statements pass the current epoch per run, so any
// catalog mutation (data load, index build, ANALYZE) invalidates cached
// builds exactly like it invalidates plan-cache entries. One-shot
// queries leave it off. It returns c for chaining and must be called
// before Run.
func (c *Ctx) EnableBuildReuse(epoch uint64) *Ctx {
	c.buildReuse = true
	c.buildEpoch = epoch
	return c
}

func defaultParallelism() int {
	if Parallelism < 1 {
		return 1
	}
	return Parallelism
}

// Stats returns the recorded statistics for a node, or nil.
func (c *Ctx) Stats(n Node) *NodeStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats[n]
}

// note applies f to n's stats entry (creating it if needed) under the
// lock, when statistics are collected. Notes recorded mid-execution land
// in the same entry that is finalized with rows and timing, so each
// operator's numbers exist exactly once.
func (c *Ctx) note(n Node, f func(st *NodeStats)) {
	if c.stats == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats[n]
	if st == nil {
		st = &NodeStats{}
		c.stats[n] = st
	}
	f(st)
}

// noteDone records an operator's final rows and timing.
func (c *Ctx) noteDone(n Node, rows int, start time.Time, elapsed time.Duration) {
	c.note(n, func(st *NodeStats) { st.Rows, st.Start, st.Elapsed = rows, start, elapsed })
}

// noteWorkers records an operator's actual fan-out; serial execution is
// not recorded.
func (c *Ctx) noteWorkers(n Node, workers int) {
	if workers > 1 {
		c.note(n, func(st *NodeStats) { st.Workers = max(st.Workers, workers) })
	}
}

// noteSpill records an operator's spill activity: always on the query's
// cumulative counters, and per-operator when stats are being collected.
func (c *Ctx) noteSpill(n Node, runs int, bytes int64) {
	c.res.NoteSpill(runs, bytes)
	c.note(n, func(st *NodeStats) {
		st.SpillRuns += runs
		st.SpillBytes += bytes
	})
}

// noteEval records whether an operator evaluated its expressions through
// the vector kernels and over how many chunks. The recorded mode
// replaces any earlier one.
func (c *Ctx) noteEval(n Node, vectorized bool, rows int) {
	mode, batches := "row", 0
	if vectorized {
		mode, batches = "vector", batchCount(rows)
	}
	c.note(n, func(st *NodeStats) { st.EvalMode, st.Batches = mode, batches })
}

// noteSegments records a fused scan's zone-map outcome: how many storage
// segments it considered and how many the zone maps skipped outright.
func (c *Ctx) noteSegments(n Node, segments, pruned int) {
	c.note(n, func(st *NodeStats) { st.Segments, st.Pruned = segments, pruned })
}

// cancelCheckInterval is how many rows an operator hot loop processes
// between context polls. A power of two so the tick test compiles to a
// mask; small enough that a canceled query stops within microseconds of
// work, large enough that the poll never shows up in profiles.
const cancelCheckInterval = 4096

// Canceled returns the governing context's error, if it is done.
func (c *Ctx) Canceled() error { return c.ctx.Err() }

// Tick is the cooperative cancellation check for operator hot loops: it
// polls the governing context every cancelCheckInterval iterations (i is
// the loop counter) and reports its error once done.
func (c *Ctx) Tick(i int) error {
	if i&(cancelCheckInterval-1) != 0 {
		return nil
	}
	return c.ctx.Err()
}

// OrderCol describes one key of a physical ordering property: the ordinal
// of a column in the node's output schema plus direction.
type OrderCol struct {
	Col  int
	Desc bool
}

// Node is a physical operator. How a node executes is the executor's
// business (stream.go): pipelined operators become stages of a morsel
// pipeline, breakers materialize.
type Node interface {
	// Schema is the output shape.
	Schema() *schema.Schema
	// Children returns input operators, for EXPLAIN.
	Children() []Node
	// Label names the operator for EXPLAIN output.
	Label() string

	// EstRows and EstCost are the planner's estimates (cumulative cost).
	EstRows() float64
	EstCost() float64
	// Ordering is the output ordering the operator guarantees, outermost
	// key first; nil means unordered.
	Ordering() []OrderCol
}

// base carries the estimate/ordering fields every operator shares. The
// planner fills these in when it builds the tree.
type base struct {
	schema   *schema.Schema
	estRows  float64
	estCost  float64
	estMem   float64
	ordering []OrderCol
}

func (b *base) Schema() *schema.Schema { return b.schema }
func (b *base) EstRows() float64       { return b.estRows }
func (b *base) EstCost() float64       { return b.estCost }
func (b *base) Ordering() []OrderCol   { return b.ordering }

// SetEstimates records planner estimates on any operator embedding base.
type estimateSetter interface {
	setEstimates(rows, cost float64)
	setOrdering(o []OrderCol)
	setMemEstimate(bytes float64)
	memEstimate() float64
}

func (b *base) setEstimates(rows, cost float64) { b.estRows, b.estCost = rows, cost }
func (b *base) setOrdering(o []OrderCol)        { b.ordering = o }
func (b *base) setMemEstimate(bytes float64)    { b.estMem = bytes }
func (b *base) memEstimate() float64            { return b.estMem }

// SetEstimates assigns cardinality and cost estimates to a node built by
// the planner.
func SetEstimates(n Node, rows, cost float64) {
	if s, ok := n.(estimateSetter); ok {
		s.setEstimates(rows, cost)
	}
}

// SetOrdering assigns the guaranteed output ordering of a node.
func SetOrdering(n Node, o []OrderCol) {
	if s, ok := n.(estimateSetter); ok {
		s.setOrdering(o)
	}
}

// SetMemEstimate records the planner's estimate of an operator's peak
// materialized state in bytes (hash tables, sort keys, output buffers).
// Zero means "not a materializing operator" and is not printed by EXPLAIN.
func SetMemEstimate(n Node, bytes float64) {
	if s, ok := n.(estimateSetter); ok {
		s.setMemEstimate(bytes)
	}
}

// EstMem returns the planner's memory estimate for a node (0 if none).
func EstMem(n Node) float64 {
	if s, ok := n.(estimateSetter); ok {
		return s.memEstimate()
	}
	return 0
}

// ---- Scan ----

// ScanNode reads a base table, optionally through a sorted index range,
// and optionally with a filter predicate fused into the scan. A fused
// predicate evaluates directly over the columnar segment vectors in
// vectorized mode — no row materialization for non-matching rows — with
// per-segment zone maps (Zone) skipping segments that cannot contain a
// match.
type ScanNode struct {
	base
	Table *storage.Table
	// IndexOrd selects an index scan on that column ordinal when >= 0.
	IndexOrd int
	Bounds   storage.Bounds
	// Pred, when non-nil, is a filter fused into a sequential scan: only
	// rows satisfying it are emitted. PredDesc labels it in EXPLAIN.
	Pred     *eval.Compiled
	PredDesc string
	// Zone holds range summaries implied by Pred's conjuncts. Segments
	// whose zone maps cannot satisfy all of them are skipped — in
	// vectorized mode only; the row path (WithRowEval) reads every
	// segment and is the pruning correctness baseline.
	Zone []storage.ZonePred
}

// NewScanNode builds a scan. alias qualifies the output schema.
func NewScanNode(t *storage.Table, alias string) *ScanNode {
	s := &ScanNode{Table: t, IndexOrd: -1}
	s.schema = t.Schema.WithQualifier(alias)
	return s
}

// Label implements Node.
func (s *ScanNode) Label() string {
	if s.IndexOrd >= 0 {
		return fmt.Sprintf("IndexScan(%s.%s)", s.Table.Name, s.Table.Schema.Columns[s.IndexOrd].Name)
	}
	if s.Pred != nil {
		return fmt.Sprintf("Scan(%s | %s)", s.Table.Name, s.PredDesc)
	}
	return fmt.Sprintf("Scan(%s)", s.Table.Name)
}

// Children implements Node.
func (s *ScanNode) Children() []Node { return nil }

// scanMorsel is one segment-local unit of fused-scan work; it never
// straddles a segment boundary, so in vectorized mode each morsel
// evaluates the predicate over one window of its segment's column
// vectors.
type scanMorsel struct {
	seg    *storage.Segment
	lo, hi int
}

// planFilteredMorsels applies zone-map pruning (vectorized mode only;
// the row path reads every segment and is the pruning correctness
// baseline) and splits the surviving segments into segment-local
// morsels, recording the pruning outcome. It returns the morsels and
// their total row count.
func (s *ScanNode) planFilteredMorsels(ctx *Ctx, vec bool) ([]scanMorsel, int) {
	segs := s.Table.Segments()
	considered := len(segs)
	pruned := 0
	if vec && len(s.Zone) > 0 {
		kept := make([]*storage.Segment, 0, len(segs))
		for _, seg := range segs {
			if seg.CanMatchAll(s.Zone) {
				kept = append(kept, seg)
			} else {
				pruned++
			}
		}
		segs = kept
	}
	ctx.noteSegments(s, considered, pruned)
	total := 0
	for _, seg := range segs {
		total += seg.Len()
	}
	morsels := make([]scanMorsel, 0, total/MorselSize+len(segs))
	for _, seg := range segs {
		for lo := 0; lo < seg.Len(); lo += MorselSize {
			hi := min(lo+MorselSize, seg.Len())
			morsels = append(morsels, scanMorsel{seg: seg, lo: lo, hi: hi})
		}
	}
	return morsels, total
}

// filterMorsel evaluates the fused predicate over one morsel, returning
// the matching rows (references into the segment's shared row cache) in
// position order. Any kernel failure, and the entire row-eval mode,
// fall back to materialized rows with the same batch/row machinery
// FilterNode uses, so results and errors are byte-identical across
// modes and parallelism levels.
func (s *ScanNode) filterMorsel(ctx *Ctx, mo scanMorsel, vec bool) ([]schema.Row, error) {
	var out []schema.Row
	var sel []int
	if vec && mo.seg.Sealed() {
		var ok bool
		sel, ok = eval.TryPredicateCols(s.Pred, mo.seg.Cols(), mo.lo, mo.hi-mo.lo, sel[:0])
		if ok {
			if len(sel) > 0 {
				rows := mo.seg.Rows()
				out = make([]schema.Row, 0, len(sel))
				for _, i := range sel {
					out = append(out, rows[mo.lo+i])
				}
			}
			return out, nil
		}
	}
	rows := mo.seg.Rows()
	if vec {
		// Row-form tail, or a kernel error: EvalPredicateBatch's own
		// row-path fallback restores exact serial error semantics.
		sel, err := eval.EvalPredicateBatch(s.Pred, rows[mo.lo:mo.hi], nil, sel[:0])
		if err != nil {
			return nil, err
		}
		for _, i := range sel {
			out = append(out, rows[mo.lo+i])
		}
		return out, nil
	}
	for i := mo.lo; i < mo.hi; i++ {
		if err := ctx.Tick(i - mo.lo); err != nil {
			return nil, err
		}
		keep, err := eval.EvalPredicate(s.Pred, rows[i])
		if err != nil {
			return nil, err
		}
		if keep {
			out = append(out, rows[i])
		}
	}
	return out, nil
}

// scanMorsels returns the pipeline source of a scan.
func scanMorsels(s *ScanNode) source {
	switch {
	case s.IndexOrd >= 0:
		return &indexSource{scan: s}
	case s.Pred != nil:
		return &fusedSource{scan: s}
	}
	// A sequential scan shares the table's (memoized) row
	// materialization; downstream operators never mutate input rows.
	return &sliceSource{n: s, get: func() (*Result, error) { return &Result{Rows: s.Table.AllRows()}, nil }}
}

// fusedSource is a sequential scan with its predicate fused in: zone
// maps prune segments at open, then each segment-local morsel evaluates
// the predicate (see ScanNode.filterMorsel).
type fusedSource struct {
	scan    *ScanNode
	morsels []scanMorsel
	vec     bool
}

func (s *fusedSource) node() Node { return s.scan }

func (s *fusedSource) open(p *pipe) (int, int, error) {
	c := p.ctx
	s.vec = c.useVector(s.scan.Pred)
	morsels, total := s.scan.planFilteredMorsels(c, s.vec)
	// Worst case every row matches; the output holds row references.
	if err := p.reserveOrCharge(int64(total) * rowHdrBytes); err != nil {
		return 0, 0, err
	}
	c.noteEval(s.scan, s.vec, total)
	s.morsels = morsels
	return len(morsels), total, nil
}

func (s *fusedSource) morsel(p *pipe, m int) ([]schema.Row, error) {
	return s.scan.filterMorsel(p.ctx, s.morsels[m], s.vec)
}

// indexSource gathers the rows of an index range scan, morsel by morsel
// over the matched row ids.
type indexSource struct {
	scan *ScanNode
	ids  []int32
}

func (s *indexSource) node() Node { return s.scan }

func (s *indexSource) open(p *pipe) (int, int, error) {
	ix := s.scan.Table.IndexByOrdinal(s.scan.IndexOrd)
	if ix == nil {
		return 0, 0, fmt.Errorf("exec: plan expects index on %s column %d but none exists", s.scan.Table.Name, s.scan.IndexOrd)
	}
	s.ids = ix.Scan(s.scan.Bounds)
	if err := p.reserveOrCharge(int64(len(s.ids)) * rowHdrBytes); err != nil {
		return 0, 0, err
	}
	return batchCount(len(s.ids)), len(s.ids), nil
}

func (s *indexSource) morsel(p *pipe, m int) ([]schema.Row, error) {
	lo := m * MorselSize
	hi := min(lo+MorselSize, len(s.ids))
	rows := make([]schema.Row, hi-lo)
	for i := range rows {
		if err := p.ctx.Tick(i); err != nil {
			return nil, err
		}
		rows[i] = s.scan.Table.RowAt(int(s.ids[lo+i]))
	}
	return rows, nil
}

// ValuesNode serves literal rows; used for planned constants and tests.
type ValuesNode struct {
	base
	RowsData []schema.Row
}

// NewValuesNode wraps literal rows in a node.
func NewValuesNode(s *schema.Schema, rows []schema.Row) *ValuesNode {
	n := &ValuesNode{RowsData: rows}
	n.schema = s
	return n
}

// Label implements Node.
func (n *ValuesNode) Label() string { return fmt.Sprintf("Values(%d)", len(n.RowsData)) }

// Children implements Node.
func (n *ValuesNode) Children() []Node { return nil }

// RequalifyNode renames the qualifier of its child's schema without
// touching rows; it gives a shared CTE body a per-reference alias.
type RequalifyNode struct {
	base
	Input Node
}

// NewRequalifyNode wraps child with a new schema qualifier.
func NewRequalifyNode(child Node, alias string) *RequalifyNode {
	n := &RequalifyNode{Input: child}
	n.schema = child.Schema().WithQualifier(alias)
	n.estRows = child.EstRows()
	n.estCost = child.EstCost()
	n.ordering = child.Ordering()
	return n
}

// Label implements Node.
func (n *RequalifyNode) Label() string { return "Requalify" }

// Children implements Node.
func (n *RequalifyNode) Children() []Node { return []Node{n.Input} }
