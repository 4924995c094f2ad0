package exec

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/eval"
	"repro/internal/govern"
	"repro/internal/schema"
	"repro/internal/types"
)

// FilterNode keeps rows whose predicate evaluates to TRUE.
type FilterNode struct {
	base
	Input Node
	Pred  *eval.Compiled
	// Desc describes the predicate for EXPLAIN.
	Desc string
	// Subqueries are the plans of the uncorrelated IN/EXISTS subqueries
	// the predicate reads. When present, Pred is nil: the subqueries run
	// through Run when the filter's pipeline opens, and Compile builds
	// the predicate from their first-column values, in Subqueries order.
	// Planning never executes anything, so costing candidate rewrites
	// never pays for running them.
	Subqueries []Node
	Compile    func(subVals [][]types.Value) (*eval.Compiled, error)
}

// NewFilterNode wraps child with a compiled predicate.
func NewFilterNode(child Node, pred *eval.Compiled, desc string) *FilterNode {
	n := &FilterNode{Input: child, Pred: pred, Desc: desc}
	n.schema = child.Schema()
	n.ordering = child.Ordering()
	return n
}

// Label implements Node.
func (n *FilterNode) Label() string { return "Filter(" + n.Desc + ")" }

// NewSubqueryFilterNode wraps child with a predicate that reads the
// results of uncorrelated subqueries; see FilterNode.Subqueries.
func NewSubqueryFilterNode(child Node, subs []Node, compile func([][]types.Value) (*eval.Compiled, error), desc string) *FilterNode {
	n := NewFilterNode(child, nil, desc)
	n.Subqueries, n.Compile = subs, compile
	return n
}

// Children implements Node: the input, then the subquery plans, so
// EXPLAIN (and plan-shape assertions) see every table access the filter
// performs.
func (n *FilterNode) Children() []Node {
	if len(n.Subqueries) == 0 {
		return []Node{n.Input}
	}
	return append([]Node{n.Input}, n.Subqueries...)
}

// ProjectNode computes output columns from input rows.
type ProjectNode struct {
	base
	Input Node
	Exprs []*eval.Compiled
}

// NewProjectNode builds a projection with a prepared output schema.
func NewProjectNode(child Node, out *schema.Schema, exprs []*eval.Compiled) *ProjectNode {
	n := &ProjectNode{Input: child, Exprs: exprs}
	n.schema = out
	n.estRows = child.EstRows()
	return n
}

// Label implements Node.
func (n *ProjectNode) Label() string { return fmt.Sprintf("Project(%d cols)", n.schema.Len()) }

// Children implements Node.
func (n *ProjectNode) Children() []Node { return []Node{n.Input} }

// Requalified returns a copy of the projection whose output columns
// carry the qualifier alias. The planner uses it to give a view or
// derived-table body its reference alias without a Requalify node.
func (n *ProjectNode) Requalified(alias string) *ProjectNode {
	c := &ProjectNode{Input: n.Input, Exprs: n.Exprs}
	c.base = n.base
	c.schema = n.schema.WithQualifier(alias)
	return c
}

// filterStage keeps the rows whose predicate is TRUE. On the vector path
// the predicate evaluates per chunk into a selection vector and only the
// selected row references are gathered; kernel errors fall back to the
// row path inside EvalPredicateBatch, so errors match the row loop.
type filterStage struct {
	n    *FilterNode
	pred *eval.Compiled
	vec  bool
}

func (f *filterStage) node() Node { return f.n }

// open compiles a subquery predicate: each subquery runs through Run
// (once per execution, however often the compiler asks for it).
func (f *filterStage) open(p *pipe) (*Result, error) {
	f.pred = f.n.Pred
	if len(f.n.Subqueries) > 0 {
		vals := make([][]types.Value, len(f.n.Subqueries))
		for i, sub := range f.n.Subqueries {
			r, err := p.ctx.run(sub)
			if err != nil {
				return nil, err
			}
			col := make([]types.Value, len(r.Rows))
			for j, row := range r.Rows {
				col[j] = row[0]
			}
			vals[i] = col
		}
		pred, err := f.n.Compile(vals)
		if err != nil {
			return nil, err
		}
		f.pred = pred
	}
	f.vec = p.ctx.useVector(f.pred)
	return nil, nil
}

func (f *filterStage) worker(p *pipe) batchFn {
	c := p.ctx
	var sel []int
	if f.vec {
		sel = make([]int, 0, MorselSize)
	}
	return func(in []schema.Row) ([]schema.Row, error) {
		// Worst case every row passes; the output holds row references.
		if err := p.reserveOrCharge(int64(len(in)) * rowHdrBytes); err != nil {
			return nil, err
		}
		out := make([]schema.Row, 0, len(in)/4+1)
		if f.vec {
			// Batches can exceed MorselSize (a join probe multiplies rows);
			// keep kernel chunks at the scratch width.
			err := c.forBatches(0, len(in), func(b, e int) error {
				var perr error
				if sel, perr = eval.EvalPredicateBatch(f.pred, in[b:e], nil, sel[:0]); perr != nil {
					return perr
				}
				for _, i := range sel {
					out = append(out, in[b+i])
				}
				return nil
			})
			return out, err
		}
		for i, r := range in {
			if err := c.Tick(i); err != nil {
				return nil, err
			}
			ok, err := eval.EvalPredicate(f.pred, r)
			if err != nil {
				return nil, err
			}
			if ok {
				out = append(out, r)
			}
		}
		return out, nil
	}
}

func (f *filterStage) close(p *pipe, rowsIn int) { p.ctx.noteEval(f.n, f.vec, rowsIn) }

// projectStage computes output columns (see Ctx.evalRows).
type projectStage struct {
	n   *ProjectNode
	vec bool
}

func (s *projectStage) node() Node { return s.n }

func (s *projectStage) open(p *pipe) (*Result, error) {
	s.vec = p.ctx.useVector(s.n.Exprs...)
	return nil, nil
}

func (s *projectStage) worker(p *pipe) batchFn {
	ne := len(s.n.Exprs)
	var cols [][]types.Value
	if s.vec {
		cols = evalScratch(ne, MorselSize)
	}
	return func(in []schema.Row) ([]schema.Row, error) {
		if err := p.reserveOrCharge(int64(len(in)) * (rowHdrBytes + int64(ne)*valueBytes)); err != nil {
			return nil, err
		}
		out := make([]schema.Row, len(in))
		return out, p.ctx.evalRows(s.n.Exprs, in, 0, len(in), cols, out)
	}
}

func (s *projectStage) close(p *pipe, rowsIn int) { p.ctx.noteEval(s.n, s.vec, rowsIn) }

// requalifyStage passes batches through; the node carries the renamed
// schema.
type requalifyStage struct{ n *RequalifyNode }

func (s requalifyStage) node() Node                  { return s.n }
func (s requalifyStage) open(*pipe) (*Result, error) { return nil, nil }
func (s requalifyStage) close(*pipe, int)            {}
func (s requalifyStage) worker(*pipe) batchFn {
	return func(in []schema.Row) ([]schema.Row, error) { return in, nil }
}

// SortNode orders rows by compiled key expressions.
type SortNode struct {
	base
	Input Node
	Keys  []*eval.Compiled
	Desc  []bool
}

// NewSortNode builds a sort over child.
func NewSortNode(child Node, keys []*eval.Compiled, desc []bool) *SortNode {
	n := &SortNode{Input: child, Keys: keys, Desc: desc}
	n.schema = child.Schema()
	n.estRows = child.EstRows()
	return n
}

// Label implements Node.
func (n *SortNode) Label() string { return fmt.Sprintf("Sort(%d keys)", len(n.Keys)) }

// Children implements Node.
func (n *SortNode) Children() []Node { return []Node{n.Input} }

// materialize implements breaker. Sort keys are evaluated exactly once per row
// (never per comparison), morsel-parallel; the sort itself runs as
// stable per-chunk sorts over contiguous input ranges followed by a
// stable k-way merge (ties go to the earlier chunk), which yields the
// same permutation as a serial stable sort.
func (n *SortNode) materialize(ctx *Ctx) (*Result, error) {
	in, err := ctx.run(n.Input)
	if err != nil {
		return nil, err
	}
	nrows := len(in.Rows)
	nk := len(n.Keys)
	// Reserve the full working set (key tuples, permutation, output row
	// references). If the budget refuses it and the query may spill, fall
	// back to the external merge sort; otherwise the reservation error is
	// the query's clean failure.
	work := sortWorkBytes(nrows, nk)
	if err := ctx.res.Reserve(work + int64(nrows)*rowHdrBytes); err != nil {
		if !ctx.res.CanSpill() {
			return nil, err
		}
		return n.externalSort(ctx, in)
	}
	// The output row references stay charged; the key tuples are scratch.
	defer ctx.res.Release(work)
	workers := ctx.workersFor(nrows)
	ctx.noteWorkers(n, workers)
	vec := ctx.useVector(n.Keys...)
	ctx.noteEval(n, vec, nrows)

	keys := make([]schema.Row, nrows)
	err = ctx.parallelFor(nrows, workers, func(_, _, lo, hi int) error {
		var cols [][]types.Value
		if vec {
			cols = evalScratch(nk, MorselSize)
		}
		return ctx.evalRows(n.Keys, in.Rows, lo, hi, cols, keys)
	})
	if err != nil {
		return nil, err
	}

	idx := make([]int, nrows)
	for i := range idx {
		idx[i] = i
	}
	if workers <= 1 {
		sort.SliceStable(idx, func(a, b int) bool {
			return n.cmpKeys(keys[idx[a]], keys[idx[b]]) < 0
		})
	} else {
		if err := n.parallelSort(ctx, idx, keys, workers); err != nil {
			return nil, err
		}
	}

	out := make([]schema.Row, nrows)
	for i, id := range idx {
		out[i] = in.Rows[id]
	}
	return &Result{Schema: n.schema, Rows: out}, nil
}

// cmpKeys orders two evaluated key tuples under the node's directions.
func (n *SortNode) cmpKeys(ka, kb []types.Value) int {
	for j := range n.Keys {
		c := compareForSort(ka[j], kb[j])
		if c == 0 {
			continue
		}
		if n.Desc[j] {
			return -c
		}
		return c
	}
	return 0
}

// parallelSort stable-sorts idx in place: contiguous chunks sort on
// separate goroutines, then a k-way merge picks the smallest head each
// step, breaking ties toward the earliest chunk. Chunks are contiguous
// input ranges, so earliest-chunk tie-breaking is exactly the stability
// rule, and the merged permutation equals the serial stable sort's.
func (n *SortNode) parallelSort(ctx *Ctx, idx []int, keys []schema.Row, workers int) error {
	nrows := len(idx)
	chunk := (nrows + workers - 1) / workers
	type span struct{ lo, hi int }
	var spans []span
	for lo := 0; lo < nrows; lo += chunk {
		hi := lo + chunk
		if hi > nrows {
			hi = nrows
		}
		spans = append(spans, span{lo, hi})
	}
	var wg sync.WaitGroup
	errs := make([]error, len(spans))
	for si, sp := range spans {
		wg.Add(1)
		go func(si int, sub []int) {
			defer wg.Done()
			defer func() {
				if rec := recover(); rec != nil {
					errs[si] = govern.Internalize(rec)
				}
			}()
			ctx.res.MaybePanic()
			sort.SliceStable(sub, func(a, b int) bool {
				return n.cmpKeys(keys[sub[a]], keys[sub[b]]) < 0
			})
		}(si, idx[sp.lo:sp.hi])
	}
	wg.Wait()
	if err := firstError(errs); err != nil {
		return err
	}
	if err := ctx.Canceled(); err != nil {
		return err
	}

	heads := make([]int, len(spans))
	for i, sp := range spans {
		heads[i] = sp.lo
	}
	merged := make([]int, 0, nrows)
	for len(merged) < nrows {
		if err := ctx.Tick(len(merged)); err != nil {
			return err
		}
		best := -1
		for c, sp := range spans {
			if heads[c] >= sp.hi {
				continue
			}
			if best < 0 || n.cmpKeys(keys[idx[heads[c]]], keys[idx[heads[best]]]) < 0 {
				best = c
			}
		}
		merged = append(merged, idx[heads[best]])
		heads[best]++
	}
	copy(idx, merged)
	return nil
}

// compareForSort orders values with NULLS FIRST and falls back to kind
// order for incomparable kinds so the sort stays total.
func compareForSort(a, b types.Value) int {
	an, bn := a.IsNull(), b.IsNull()
	switch {
	case an && bn:
		return 0
	case an:
		return -1
	case bn:
		return 1
	}
	if c, err := types.Compare(a, b); err == nil {
		return c
	}
	switch {
	case a.Kind() < b.Kind():
		return -1
	case a.Kind() > b.Kind():
		return 1
	}
	return 0
}

// LimitNode skips Offset rows then truncates to N (N < 0 means no limit,
// offset only).
type LimitNode struct {
	base
	Input  Node
	N      int64
	Offset int64
}

// NewLimitNode wraps child with LIMIT n (pass n < 0 for OFFSET-only).
func NewLimitNode(child Node, limit int64) *LimitNode {
	n := &LimitNode{Input: child, N: limit}
	n.schema = child.Schema()
	n.ordering = child.Ordering()
	return n
}

// Label implements Node.
func (n *LimitNode) Label() string {
	if n.Offset > 0 {
		return fmt.Sprintf("Limit(%d offset %d)", n.N, n.Offset)
	}
	return fmt.Sprintf("Limit(%d)", n.N)
}

// Children implements Node.
func (n *LimitNode) Children() []Node { return []Node{n.Input} }

// DistinctNode removes duplicate rows (all columns), keeping first
// occurrences in input order.
type DistinctNode struct {
	base
	Input Node
}

// NewDistinctNode wraps child with duplicate elimination.
func NewDistinctNode(child Node) *DistinctNode {
	n := &DistinctNode{Input: child}
	n.schema = child.Schema()
	n.ordering = child.Ordering()
	return n
}

// Label implements Node.
func (n *DistinctNode) Label() string { return "Distinct" }

// Children implements Node.
func (n *DistinctNode) Children() []Node { return []Node{n.Input} }

// materialize implements breaker.
func (n *DistinctNode) materialize(ctx *Ctx) (*Result, error) {
	in, err := ctx.run(n.Input)
	if err != nil {
		return nil, err
	}
	if err := ctx.reserveOrCharge(int64(len(in.Rows)) * (rowHdrBytes + keyRefBytes)); err != nil {
		return nil, err
	}
	seen := newRowSet(len(in.Rows))
	var enc keyEnc
	out := make([]schema.Row, 0, len(in.Rows))
	for i, r := range in.Rows {
		if err := ctx.Tick(i); err != nil {
			return nil, err
		}
		if seen.add(enc.row(r)) {
			out = append(out, r)
		}
	}
	return &Result{Schema: n.schema, Rows: out}, nil
}

// SetOpKind distinguishes EXCEPT from INTERSECT in SetOpNode.
type SetOpKind uint8

// Set-operation kinds.
const (
	SetOpExcept SetOpKind = iota
	SetOpIntersect
)

// SetOpNode implements EXCEPT and INTERSECT with SQL set semantics
// (duplicates eliminated, left input order preserved).
type SetOpNode struct {
	base
	Left, Right Node
	Kind        SetOpKind
}

// NewSetOpNode builds EXCEPT/INTERSECT over two inputs of equal arity.
func NewSetOpNode(l, r Node, kind SetOpKind) (*SetOpNode, error) {
	if l.Schema().Len() != r.Schema().Len() {
		return nil, fmt.Errorf("exec: set operation arity mismatch: %d vs %d", l.Schema().Len(), r.Schema().Len())
	}
	n := &SetOpNode{Left: l, Right: r, Kind: kind}
	n.schema = l.Schema()
	return n, nil
}

// Label implements Node.
func (n *SetOpNode) Label() string {
	if n.Kind == SetOpIntersect {
		return "Intersect"
	}
	return "Except"
}

// Children implements Node.
func (n *SetOpNode) Children() []Node { return []Node{n.Left, n.Right} }

// materialize implements breaker. The two inputs execute concurrently.
func (n *SetOpNode) materialize(ctx *Ctx) (*Result, error) {
	l, r, err := runPair(ctx, n.Left, n.Right)
	if err != nil {
		return nil, err
	}
	if err := ctx.reserveOrCharge(int64(len(l.Rows)+len(r.Rows)) * (rowHdrBytes + keyRefBytes)); err != nil {
		return nil, err
	}
	var enc keyEnc
	right := newRowSet(len(r.Rows))
	for i, row := range r.Rows {
		if err := ctx.Tick(i); err != nil {
			return nil, err
		}
		right.add(enc.row(row))
	}
	seen := newRowSet(len(l.Rows))
	var out []schema.Row
	for i, row := range l.Rows {
		if err := ctx.Tick(i); err != nil {
			return nil, err
		}
		k := enc.row(row)
		if !seen.add(k) {
			continue
		}
		if (n.Kind == SetOpExcept) != right.contains(k) {
			out = append(out, row)
		}
	}
	return &Result{Schema: n.schema, Rows: out}, nil
}

// UnionNode concatenates two inputs; Distinct applies set semantics.
type UnionNode struct {
	base
	Left, Right Node
	Distinct    bool
}

// NewUnionNode combines two inputs with UNION [ALL] semantics.
func NewUnionNode(l, r Node, distinct bool) (*UnionNode, error) {
	if l.Schema().Len() != r.Schema().Len() {
		return nil, fmt.Errorf("exec: UNION arity mismatch: %d vs %d", l.Schema().Len(), r.Schema().Len())
	}
	n := &UnionNode{Left: l, Right: r, Distinct: distinct}
	n.schema = l.Schema()
	return n, nil
}

// Label implements Node.
func (n *UnionNode) Label() string {
	if n.Distinct {
		return "Union"
	}
	return "UnionAll"
}

// Children implements Node.
func (n *UnionNode) Children() []Node { return []Node{n.Left, n.Right} }

// materialize implements breaker. The two inputs execute concurrently.
func (n *UnionNode) materialize(ctx *Ctx) (*Result, error) {
	l, r, err := runPair(ctx, n.Left, n.Right)
	if err != nil {
		return nil, err
	}
	perRow := int64(rowHdrBytes)
	if n.Distinct {
		perRow += keyRefBytes
	}
	if err := ctx.reserveOrCharge(int64(len(l.Rows)+len(r.Rows)) * perRow); err != nil {
		return nil, err
	}
	rows := make([]schema.Row, 0, len(l.Rows)+len(r.Rows))
	rows = append(rows, l.Rows...)
	rows = append(rows, r.Rows...)
	if !n.Distinct {
		return &Result{Schema: n.schema, Rows: rows}, nil
	}
	var enc keyEnc
	seen := newRowSet(len(rows))
	out := rows[:0:0]
	for i, row := range rows {
		if err := ctx.Tick(i); err != nil {
			return nil, err
		}
		if seen.add(enc.row(row)) {
			out = append(out, row)
		}
	}
	return &Result{Schema: n.schema, Rows: out}, nil
}
