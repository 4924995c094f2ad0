// The executor. Open compiles a plan into pipelines and streams its rows;
// Run collects the same stream. A pipeline is one morsel source — a
// fused, plain or index scan, literal Values, or morsel-sized slices of a
// materialized result — plus a chain of per-batch stages: filter,
// project, requalify and hash-join probe. The morsel pump's workers carry
// each morsel through the whole chain, each with its own stage scratch,
// and deliver the outputs in morsel order (morsel-driven pipelining,
// Leis et al., SIGMOD 2014). A LIMIT on top truncates on the consumer
// side. Breakers (sort, aggregation, window, distinct, set operations,
// the nested-loop join) read their inputs whole through Run and
// materialize; a hash join builds its table through Run when its
// pipeline opens.
//
// The contract holds at any parallelism: bit-identical rows in the same
// order; the same error sentinels (cancellation polled on every pull,
// before every morsel and inside row loops; budget reservations; panic
// containment; the SlowOp/WorkerPanic injections); and a shared subtree
// executes once per statement. Closing a stream early joins its workers
// and releases its memory reservations; spill files stay owned by
// govern.Resources until its Close.
package exec

import (
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/govern"
	"repro/internal/schema"
)

// Stream is a pull-based batch iterator over an executing plan. Next
// returns the next non-empty batch of rows, or (nil, nil) once the
// stream is exhausted; after an error every subsequent Next returns the
// same error. Batches may alias engine-internal buffers — they are valid
// until the next Next or Close (adopt them only when OwnsRows allows).
// Close is idempotent, stops in-flight work, and releases the stream's
// memory reservations; it must be called even after EOS or an error
// (both also release eagerly, so a late Close is a no-op).
//
// A Stream is not safe for concurrent use.
type Stream interface {
	// Schema is the output shape of the stream's batches.
	Schema() *schema.Schema
	// Next returns the next batch; (nil, nil) means end of stream.
	Next() ([]schema.Row, error)
	// Close terminates the stream and releases its resources.
	Close() error
}

// breaker is a pipeline breaker: it reads its inputs whole through
// Ctx.run and materializes its output.
type breaker interface {
	Node
	materialize(ctx *Ctx) (*Result, error)
}

// Run executes the plan rooted at n and returns its whole result: the
// collected stream of Open. When the stream is one already-materialized
// result — a plain scan's rows, literal rows, or a breaker's output — Run
// returns it without copying. The root's result is cached in ctx, so a
// second Run of the same root is a cache hit (NodeStats.Hits).
func Run(ctx *Ctx, n Node) (*Result, error) {
	ctx.addPlan(n, true)
	return ctx.run(n)
}

// Open compiles the plan rooted at n into a pull-based Stream executing
// under ctx. Execution is lazy: no work happens (and no goroutines
// start) until the first Next. SetParallelism / SetResources /
// EnableStats must be called before Open.
func Open(ctx *Ctx, n Node) Stream {
	ctx.addPlan(n, false)
	return ctx.pipeline(n, true)
}

// OwnsRows reports whether the rows a plan produces are freshly
// allocated by its own operators — exclusively owned by the execution —
// rather than aliases of shared storage (table row caches, literal
// Values data). Owned rows may be adopted by the caller without copying.
func OwnsRows(n Node) bool {
	switch t := n.(type) {
	case *ProjectNode, *HashJoinNode, *NestedLoopJoinNode, *GroupNode, *WindowNode:
		return true
	case *FilterNode, *SortNode, *LimitNode, *DistinctNode, *RequalifyNode, *SetOpNode:
		// These pass input rows through (set-op rows come from the left).
		return OwnsRows(n.Children()[0])
	case *UnionNode:
		return OwnsRows(t.Left) && OwnsRows(t.Right)
	default:
		// Scans and Values alias shared buffers.
		return false
	}
}

// addPlan counts the parent edges of the plan rooted at root, once per
// plan, and marks Run roots for caching.
func (c *Ctx) addPlan(root Node, isRun bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if isRun {
		c.roots[root] = true
	}
	if _, seen := c.edges[root]; seen {
		return
	}
	c.edges[root] = 0
	var walk func(Node)
	walk = func(n Node) {
		for _, ch := range n.Children() {
			_, seen := c.edges[ch]
			c.edges[ch]++
			if !seen {
				walk(ch)
			}
		}
	}
	walk(root)
}

// cached reports whether n's result goes through the result cache.
func (c *Ctx) cached(n Node) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.edges[n] > 1 || c.roots[n]
}

// run executes n to a materialized result. A cached node executes once
// per statement, even when plan children racing through runPair reach it
// at the same time — the second caller blocks on the first execution and
// reuses its result.
func (c *Ctx) run(n Node) (*Result, error) {
	if !c.cached(n) {
		return c.pipeline(n, false).collect()
	}
	c.mu.Lock()
	f, hit := c.cache[n]
	if !hit {
		f = &inflight{}
		c.cache[n] = f
	}
	c.mu.Unlock()
	f.once.Do(func() { f.res, f.err = c.pipeline(n, false).collect() })
	if f.err != nil {
		return nil, f.err
	}
	if hit {
		c.note(n, func(st *NodeStats) { st.Hits++ })
	}
	return f.res, nil
}

// pipeline compiles top into one pipeline, walking down through a LIMIT
// and the pipelined operators to the morsel source. A breaker at the top
// is the source, materialized; any other breaker, LIMIT or cached node
// below is a source served through run. With fromCache, top itself is
// served from the cache when it is cached.
func (c *Ctx) pipeline(top Node, fromCache bool) *pipe {
	p := &pipe{ctx: c, sch: top.Schema()}
	n := top
	if l, ok := n.(*LimitNode); ok && !(fromCache && c.cached(n)) {
		p.limit, p.skip = l, l.Offset
		n = l.Input
	}
	for p.src == nil {
		if (n != top || fromCache) && c.cached(n) {
			p.src = c.runSource(n)
			break
		}
		switch t := n.(type) {
		case *FilterNode:
			p.stages = append(p.stages, &filterStage{n: t})
			n = t.Input
		case *ProjectNode:
			p.stages = append(p.stages, &projectStage{n: t})
			n = t.Input
		case *RequalifyNode:
			p.stages = append(p.stages, requalifyStage{n: t})
			n = t.Input
		case *HashJoinNode:
			p.stages = append(p.stages, &joinStage{n: t})
			n = t.Left
		case *ScanNode:
			p.src = scanMorsels(t)
		case *ValuesNode:
			p.src = &sliceSource{n: t, get: func() (*Result, error) { return &Result{Rows: t.RowsData}, nil }}
		default:
			b, ok := n.(breaker)
			switch {
			case n != top: // a breaker or LIMIT feeding a stage
				p.src = c.runSource(n)
			case ok:
				p.src = &sliceSource{get: func() (*Result, error) { return c.materialize(b) }}
			default:
				err := fmt.Errorf("exec: no executor for operator %T", n)
				p.src = &sliceSource{get: func() (*Result, error) { return nil, err }}
			}
		}
	}
	slices.Reverse(p.stages)
	return p
}

// runSource serves n's result, through run, in morsels; n records its
// own stats.
func (c *Ctx) runSource(n Node) *sliceSource {
	return &sliceSource{get: func() (*Result, error) { return c.run(n) }}
}

// materialize runs a breaker under the per-operator contract: the
// cancellation check, the SlowOp injection, panic containment, and its
// NodeStats.
func (c *Ctx) materialize(b breaker) (res *Result, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			res, err = nil, govern.Internalize(rec)
		}
	}()
	if err := c.Canceled(); err != nil {
		return nil, err
	}
	if err := c.slowOp(); err != nil {
		return nil, err
	}
	start := time.Now()
	if res, err = b.materialize(c); err == nil {
		c.noteDone(b, len(res.Rows), start, time.Since(start))
	}
	return res, err
}

// slowOp applies the SlowOp fault injection, honoring cancellation.
func (c *Ctx) slowOp() error {
	d := c.res.SlowOp()
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-c.ctx.Done():
		return c.ctx.Err()
	}
}

// source produces a pipeline's input morsels. open runs once on the
// consumer goroutine; morsel may then be called concurrently for
// distinct m.
type source interface {
	// node is the operator whose stats the pipeline records for the
	// source; nil when the result comes through run or materialize,
	// which record them.
	node() Node
	open(p *pipe) (morsels, rows int, err error)
	morsel(p *pipe, m int) ([]schema.Row, error)
}

// batchFn applies one stage to one batch. A batchFn belongs to a single
// worker; it never reuses its output slices.
type batchFn func(in []schema.Row) ([]schema.Row, error)

// stage is one pipelined operator.
type stage interface {
	node() Node
	// open prepares shared state on the consumer goroutine before any
	// batch runs. A non-nil Result is the stage's whole output, already
	// materialized (the hash join's grace-hash fallback): it replaces the
	// stage and everything below it as the pipeline's source.
	open(p *pipe) (*Result, error)
	// worker returns the stage's batch function for one pump worker.
	worker(p *pipe) batchFn
	// close releases what open reserved and records the stage's eval
	// mode over the rowsIn rows it consumed.
	close(p *pipe, rowsIn int)
}

// pipe is a pipeline's Stream: the per-pull contract (sticky errors,
// panic containment, a cancellation poll on every pull, lazy open with
// the SlowOp injection), the memory charged for its output, and the
// stats of every operator in it.
type pipe struct {
	ctx    *Ctx
	sch    *schema.Schema
	src    source
	stages []stage // bottom-up: stages[0] consumes the source's morsels
	pump   *morselPump
	// limit, when set, truncates the delivered batches.
	limit         *LimitNode
	skip, emitted int64
	// nodes[i] is pipeline position i's stats node: the source, the
	// stages, then the limit.
	nodes []Node

	opened, done, closed bool
	// keep leaves the output charges in place at close: Run collected
	// the rows, and they stay alive for the rest of the statement.
	keep    bool
	err     error
	charged atomic.Int64
	start   time.Time
	// acc sums the rows and time of every delivered morsel per position;
	// nil unless statistics are collected.
	acc []posStat
}

// Schema implements Stream.
func (p *pipe) Schema() *schema.Schema { return p.sch }

// Next implements Stream.
func (p *pipe) Next() (batch []schema.Row, err error) {
	if err := p.begin(); err != nil || p.done {
		return nil, err
	}
	defer func() {
		if rec := recover(); rec != nil {
			batch, err = nil, p.fail(govern.Internalize(rec))
		}
	}()
	for {
		if p.limit != nil && p.limit.N >= 0 && p.emitted >= p.limit.N {
			return nil, p.Close()
		}
		out, ok, err := p.pump.next()
		if err != nil {
			return nil, p.fail(err)
		}
		if !ok {
			return nil, p.Close()
		}
		if p.limit != nil {
			out.rows = p.truncate(out.rows)
		}
		if p.acc != nil {
			p.account(out)
		}
		if len(out.rows) > 0 {
			return out.rows, nil
		}
	}
}

// begin applies the per-pull checks and opens the pipeline on the first
// pull.
func (p *pipe) begin() (err error) {
	if p.err != nil || p.done {
		return p.err
	}
	defer func() {
		if rec := recover(); rec != nil {
			err = p.fail(govern.Internalize(rec))
		}
	}()
	// Poll on every pull, so a canceled consumer (a client that hung up)
	// stops the stream even when upstream work already finished.
	if err := p.ctx.Canceled(); err != nil {
		return p.fail(err)
	}
	if !p.opened {
		p.opened = true
		if err := p.open(); err != nil {
			return p.fail(err)
		}
	}
	return nil
}

// open opens the stages top-down, then the source, and sizes the pump.
func (p *pipe) open() error {
	c := p.ctx
	p.start = time.Now()
	// A bare materialized result went through the injection already.
	if len(p.stages) > 0 || p.src.node() != nil {
		if err := c.slowOp(); err != nil {
			return err
		}
	}
	var srcDur time.Duration
	stageDur := make([]time.Duration, len(p.stages))
	for i := len(p.stages) - 1; i >= 0; i-- {
		t := time.Now()
		res, err := p.stages[i].open(p)
		stageDur[i] = time.Since(t)
		if err != nil {
			// Only the stages above were opened; cleanup closes those.
			p.stages = p.stages[i+1:]
			return err
		}
		if res != nil {
			p.src = &sliceSource{n: p.stages[i].node(), get: func() (*Result, error) { return res, nil }}
			srcDur = stageDur[i]
			p.stages, stageDur = p.stages[i+1:], stageDur[i+1:]
			break
		}
	}
	t := time.Now()
	nm, total, err := p.src.open(p)
	srcDur += time.Since(t)
	if err != nil {
		return err
	}
	p.nodes = append(p.nodes, p.src.node())
	for _, st := range p.stages {
		p.nodes = append(p.nodes, st.node())
	}
	if p.limit != nil {
		p.nodes = append(p.nodes, p.limit)
	}
	if c.stats != nil {
		p.acc = make([]posStat, len(p.nodes))
		p.acc[0].dur = srcDur
		for i, d := range stageDur {
			p.acc[i+1].dur = d
		}
	}
	workers := min(c.workersFor(total), nm)
	_, sliced := p.src.(*sliceSource)
	if sliced && len(p.stages) == 0 {
		// Slicing a finished result is no work to fan out.
		workers = 1
	}
	if !sliced {
		c.noteWorkers(p.src.node(), workers)
	}
	for _, st := range p.stages {
		c.noteWorkers(st.node(), workers)
	}
	p.pump = newMorselPump(c, nm, workers, p.worker)
	return nil
}

// worker returns one pump worker's morsel function: the source and every
// stage, with that worker's own stage scratch.
func (p *pipe) worker() morselFn {
	fns := make([]batchFn, len(p.stages))
	for i, st := range p.stages {
		fns[i] = st.worker(p)
	}
	stats := p.acc != nil
	return func(m int) (morselOut, error) {
		var out morselOut
		var t time.Time
		if stats {
			out.pos = make([]posStat, len(fns)+1)
			t = time.Now()
		}
		rows, err := p.src.morsel(p, m)
		if err != nil {
			return out, err
		}
		if stats {
			t = out.pos[0].note(rows, t)
		}
		for i, fn := range fns {
			if len(rows) == 0 {
				break
			}
			if rows, err = fn(rows); err != nil {
				return out, err
			}
			if stats {
				t = out.pos[i+1].note(rows, t)
			}
		}
		out.rows = rows
		return out, nil
	}
}

// note records one position's output and the time since `since`, and
// returns the current time.
func (s *posStat) note(rows []schema.Row, since time.Time) time.Time {
	now := time.Now()
	s.rows, s.dur = len(rows), now.Sub(since)
	return now
}

// truncate applies OFFSET and LIMIT to a delivered batch. Reaching the
// limit stops the pump's workers at once; the batch stays valid, since
// pipelines never reuse their output slices.
func (p *pipe) truncate(b []schema.Row) []schema.Row {
	k := min(p.skip, int64(len(b)))
	b, p.skip = b[k:], p.skip-k
	if n := p.limit.N; n >= 0 {
		b = b[:min(int64(len(b)), n-p.emitted)]
		if p.emitted+int64(len(b)) >= n {
			p.pump.close()
		}
	}
	p.emitted += int64(len(b))
	return b
}

// account adds a delivered morsel's stats and publishes the running row
// counts, so an active-query snapshot shows live progress; cleanup
// writes the final numbers. One pass per batch, never per row.
func (p *pipe) account(out morselOut) {
	for i, ps := range out.pos {
		p.acc[i].rows += ps.rows
		p.acc[i].dur += ps.dur
	}
	if p.limit != nil {
		p.acc[len(p.acc)-1].rows = int(p.emitted)
	}
	for i, n := range p.nodes {
		if n != nil {
			rows := p.acc[i].rows
			p.ctx.note(n, func(st *NodeStats) { st.Rows, st.Start = rows, p.start })
		}
	}
}

// collect drains the pipeline into a Result. The output charges stay in
// place: the caller holds the rows.
func (p *pipe) collect() (*Result, error) {
	p.keep = true
	defer p.Close()
	if err := p.begin(); err != nil {
		return nil, err
	}
	if s, ok := p.src.(*sliceSource); ok && len(p.stages) == 0 && p.limit == nil {
		// One already-materialized result: hand it over without copying.
		if p.acc != nil {
			p.acc[0].rows = len(s.rows)
		}
		return &Result{Schema: p.sch, Rows: s.rows}, nil
	}
	p.pump.start(p.pump.workers)
	var batches [][]schema.Row
	for {
		b, err := p.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return &Result{Schema: p.sch, Rows: concatMorsels(batches)}, nil
		}
		batches = append(batches, b)
	}
}

// Close implements Stream.
func (p *pipe) Close() error {
	p.done = true
	p.cleanup()
	return nil
}

func (p *pipe) fail(err error) error {
	if p.err == nil {
		p.err = err
	}
	p.cleanup()
	return p.err
}

// cleanup runs exactly once per stream: it joins the pump's workers,
// closes the stages, releases the output charges (unless collected), and
// finalizes every operator's NodeStats with the rows actually delivered.
func (p *pipe) cleanup() {
	if p.closed {
		return
	}
	p.closed = true
	if p.pump != nil {
		p.pump.close()
	}
	for i, st := range p.stages {
		rowsIn := 0
		if p.acc != nil {
			rowsIn = p.acc[i].rows
		}
		st.close(p, rowsIn)
	}
	if !p.keep {
		p.ctx.res.Release(p.charged.Swap(0))
	}
	if p.acc == nil {
		return
	}
	var cum time.Duration
	for i, n := range p.nodes {
		cum += p.acc[i].dur
		if n != nil {
			p.ctx.noteDone(n, p.acc[i].rows, p.start, cum)
		}
	}
}

func (p *pipe) reserveOrCharge(n int64) error {
	if err := p.ctx.reserveOrCharge(n); err != nil {
		return err
	}
	p.charged.Add(n)
	return nil
}

func (p *pipe) charge(n int64) {
	p.ctx.res.Charge(n)
	p.charged.Add(n)
}

// sliceSource serves a finished row slice — a plain scan's shared row
// cache, literal Values rows, or a materialized result — in morsels.
type sliceSource struct {
	n    Node
	get  func() (*Result, error)
	rows []schema.Row
}

func (s *sliceSource) node() Node { return s.n }

func (s *sliceSource) open(*pipe) (int, int, error) {
	r, err := s.get()
	if err != nil {
		return 0, 0, err
	}
	s.rows = r.Rows
	return batchCount(len(s.rows)), len(s.rows), nil
}

func (s *sliceSource) morsel(_ *pipe, m int) ([]schema.Row, error) {
	lo := m * MorselSize
	hi := min(lo+MorselSize, len(s.rows))
	return s.rows[lo:hi:hi], nil
}
