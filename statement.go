package repro

import (
	"context"
	"time"

	"repro/internal/exec"
	"repro/internal/govern"
	"repro/internal/obs"
	"repro/internal/schema"
)

// This file is the statement lifecycle every query entry point shares.
// QueryContext, Prepared.RunContext, ExplainAnalyzeContext,
// QueryStreamContext and Prepared.StreamContext each open one statement
// with openStatement and settle it with finish: the deadline, the kill
// switch, admission, the catalog read lock, resources, stats, telemetry,
// totals and evict-on-exhausted live here once. Every statement executes
// as an exec.Open stream — an eager result is that stream collected into
// Rows.Data, EXPLAIN ANALYZE collects it and renders the recorded stats,
// and a streaming Rows keeps the statement as its live cursor.

// stmtMode says how an entry point consumes its statement.
type stmtMode int

const (
	// modeEager collects the stream into Rows.Data.
	modeEager stmtMode = iota
	// modeStream hands the stream to Rows.Next as a live cursor.
	modeStream
	// modeAnalyze collects with per-operator stats on, for EXPLAIN ANALYZE.
	modeAnalyze
)

// statement is one query execution from admission to release.
type statement struct {
	db   *DB
	mode stmtMode
	tel  *qtel
	// ctx carries the WithTimeout deadline and the statement's private
	// cancel, which Kill fires and finish always fires.
	ctx    context.Context
	cancel func()
	// release and locked are the admission slot and the catalog read
	// lock; DryRunRule's sub-queries run under their caller's lock and
	// hold neither.
	release func()
	locked  bool

	key       cacheKey
	plan      exec.Node
	info      RewriteInfo
	grs       *govern.Resources
	ectx      *exec.Ctx
	stream    exec.Stream
	owned     bool
	start     time.Time
	execStart time.Time

	// batch/bi are a streaming Rows' cursor into the current batch.
	batch    []schema.Row
	bi       int
	gotFirst bool

	finished bool
	err      error
}

// openStatement starts one statement: it applies the WithTimeout
// deadline, installs the private cancel Kill uses, registers the
// statement under a fresh query ID (published to the caller's context,
// see obs.WithQueryIDSink), admits it, takes the catalog read lock, and
// opens its executor stream. p, when non-nil, is the prepared statement
// being run: its plan is reused instead of compiled. On error the
// statement has already been finished.
func (db *DB) openStatement(ctx context.Context, sql string, o *queryOpts, p *Prepared, mode stmtMode) (*statement, error) {
	id := obs.NextQueryID()
	obs.PublishQueryID(ctx, id)
	s := &statement{db: db, mode: mode, start: time.Now()}
	dctx, stop := o.deadline(ctx)
	ctx, kill := context.WithCancel(dctx)
	s.ctx, s.cancel = ctx, func() { kill(); stop() }
	s.tel = db.startStatement("query", id, sql, o.traceSet, o.traceHook, kill)
	s.tel.setPhase("queued")
	admitStart := time.Now()
	release, err := db.admit.Acquire(ctx)
	if err != nil {
		return nil, s.finish(nil, err)
	}
	s.release = release
	s.tel.noteAdmit(admitStart, time.Since(admitStart))
	db.mu.RLock()
	s.locked = true
	if err := s.open(sql, o, p); err != nil {
		return nil, s.finish(nil, err)
	}
	return s, nil
}

// open resolves the plan — the prepared one, or through the plan cache —
// and builds the execution's resources, exec context and stream. The
// caller holds db.mu. Build-side reuse across runs is for prepared
// statements only.
func (s *statement) open(sql string, o *queryOpts, p *Prepared) error {
	db := s.db
	if p != nil {
		s.key, s.plan, s.info = p.key, p.plan, p.info
		s.tel.notePrepared(p.info.CacheHit)
	} else {
		s.tel.setPhase("compile")
		compileStart := time.Now()
		res, inf, err := db.rewriteCached(sql, o)
		if err != nil {
			return err
		}
		s.tel.notePhases(res.Phases, inf.CacheHit, compileStart)
		s.key, s.plan, s.info = newCacheKey(sql, o, db.Catalog.Epoch()), res.Plan, inf
	}
	s.grs = db.resources(o)
	s.ectx = exec.NewCtxWith(s.ctx).SetParallelism(o.parallelism).SetVectorize(!o.rowEval).SetResources(s.grs)
	if p != nil {
		s.ectx.EnableBuildReuse(db.Catalog.Epoch())
	}
	if s.tel != nil || s.mode == modeAnalyze {
		s.ectx.EnableStats()
	}
	s.tel.attachExec(s.ectx, s.grs)
	if s.mode == modeStream {
		s.tel.setPhase("stream")
	} else {
		s.tel.setPhase("execute")
	}
	s.execStart = time.Now()
	s.stream = exec.Open(s.ectx, s.plan)
	s.owned = exec.OwnsRows(s.plan)
	return nil
}

// result builds the statement's Rows: a live cursor in modeStream,
// otherwise the stream collected and the statement finished.
func (s *statement) result() (*Rows, error) {
	sch := s.stream.Schema()
	r := &Rows{Rewrite: s.info, Columns: make([]string, len(sch.Columns))}
	for i, c := range sch.Columns {
		r.Columns[i] = c.Name
	}
	if s.mode == modeStream {
		r.src = s
		return r, nil
	}
	if err := s.finish(r, s.collect(r)); err != nil {
		return nil, err
	}
	return r, nil
}

// collect drains the stream into r.Data.
func (s *statement) collect(r *Rows) error {
	r.Data = [][]Value{}
	for {
		b, err := s.stream.Next()
		if err != nil || b == nil {
			return err
		}
		for _, row := range b {
			r.Data = append(r.Data, s.adopt(row))
		}
	}
}

// adopt hands one executor row to the caller: rows the plan's root
// exclusively owns (projections, joins, aggregates — anything that built
// fresh rows) are adopted as-is; rows aliasing engine-owned storage are
// copied.
func (s *statement) adopt(row schema.Row) []Value {
	if s.owned {
		return row
	}
	return append(make([]Value, 0, len(row)), row...)
}

// next advances a streaming Rows by one row, pulling the next executor
// batch when the current one is drained.
func (s *statement) next(r *Rows) bool {
	if s.finished {
		return false
	}
	for s.bi >= len(s.batch) {
		b, err := s.stream.Next()
		if err != nil || b == nil {
			s.finish(r, err)
			return false
		}
		if !s.gotFirst {
			s.gotFirst = true
			s.tel.noteFirstRow(time.Since(s.start))
		}
		s.batch, s.bi = b, 0
	}
	r.cur = s.adopt(s.batch[s.bi])
	s.bi++
	return true
}

// finish settles the statement exactly once and returns its final error,
// tagged with ErrCanceled when a context aborted it. It stops engine
// work and joins worker goroutines, records memory, resource totals and
// exec telemetry, evicts the plan-cache entry of a run that exhausted
// its budget, removes spill files, closes the telemetry, and gives back
// the catalog lock and admission slot. r, when non-nil, receives the
// memory accounting and, on success, the trace.
func (s *statement) finish(r *Rows, err error) error {
	if s.finished {
		return s.err
	}
	s.finished = true
	s.cancel()
	if s.stream != nil {
		_ = s.stream.Close()
		mem := s.grs.Stats()
		s.db.totals.note(mem, err != nil && s.grs.Exhausted())
		s.tel.noteMem(mem)
		s.tel.noteExec(s.plan, s.ectx, s.execStart, time.Since(s.execStart))
		if err != nil && s.grs.Exhausted() {
			// Drop the cached plan so a retry under a raised limit (or with
			// spilling re-enabled) replans instead of being pinned to the
			// entry that just failed.
			s.db.cache.evict(s.key)
		}
		s.grs.Close()
		if r != nil {
			r.Mem = mem
		}
	}
	s.err = wrapCanceled(err)
	if s.err != nil {
		r = nil
	}
	s.tel.finish(r, s.err)
	if s.locked {
		s.db.mu.RUnlock()
	}
	if s.release != nil {
		s.release()
	}
	return s.err
}
