package exec

import (
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/eval"
	"repro/internal/schema"
	"repro/internal/types"
)

// A subtree shared by two different breakers has two parent edges, so it
// goes through the result cache and executes exactly once — the edges
// are counted over the whole plan, not per breaker subtree.
func TestSharedSubtreeUnderTwoBreakersRunsOnce(t *testing.T) {
	const n = 20000
	for _, par := range []int{1, 4} {
		var calls atomic.Int64
		pred := eval.FromFunc(func(r schema.Row) (types.Value, error) {
			calls.Add(1)
			return types.NewBool(r[0].Int()%3 != 0), nil
		})
		shared := NewFilterNode(NewValuesNode(bigSchema(), bigRows(n)), pred, "id%3<>0")
		sorted := NewSortNode(shared, []*eval.Compiled{colFn(1)}, []bool{false})
		distinct := NewDistinctNode(shared)
		u, err := NewUnionNode(sorted, distinct, false)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(NewCtx().SetParallelism(par), u)
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		if want := 2 * (n - (n+2)/3); len(got.Rows) != want {
			t.Fatalf("par=%d: rows = %d, want %d", par, len(got.Rows), want)
		}
		if c := calls.Load(); c != n {
			t.Fatalf("par=%d: shared filter evaluated %d rows, want %d (executed more than once)", par, c, n)
		}
	}
}

// Pipelined stages run inside the morsel pump's workers: a Filter →
// Project → HashJoin-probe chain fans out on every stage, and its output
// is bit-identical to the serial run.
func TestPipelineStagesFanOut(t *testing.T) {
	mk := func() (Node, []Node) {
		in := NewValuesNode(bigSchema(), bigRows(20000))
		f := NewFilterNode(in, eval.FromFunc(func(r schema.Row) (types.Value, error) {
			return types.NewBool(r[0].Int()%5 != 0), nil
		}), "id%5<>0")
		p := NewProjectNode(f, intSchema("m", "id"), []*eval.Compiled{
			eval.FromFunc(func(r schema.Row) (types.Value, error) { return types.NewInt(r[0].Int() % 7), nil }),
			colFn(0),
		})
		dim := NewValuesNode(intSchema("k", "v"), intRows([]int64{1, 10}, []int64{3, 30}, []int64{3, 31}, []int64{6, 60}))
		j := NewHashJoinNode(p, dim, []*eval.Compiled{colFn(0)}, []*eval.Compiled{colFn(0)}, JoinKindInner, nil, "m=k")
		return j, []Node{f, p, j}
	}
	root, _ := mk()
	want, err := collectStream(Open(NewCtx().SetParallelism(1), root))
	if err != nil {
		t.Fatal(err)
	}
	root, stages := mk()
	ctx := NewCtx().SetParallelism(4).EnableStats()
	got, err := collectStream(Open(ctx, root))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range stages {
		if st := ctx.Stats(n); st == nil || st.Workers != 4 {
			t.Errorf("%s: stats = %+v, want Workers=4", n.Label(), st)
		}
	}
	if len(got) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("parallel stream differs from serial: %d vs %d rows", len(got), len(want))
	}
}

// At parallelism 1 a stage's Elapsed is its own batch time plus its
// input's, so every operator's self time (Elapsed minus its inputs')
// is non-negative and the root's Elapsed covers the whole chain.
func TestPipelineStageElapsedIsCumulative(t *testing.T) {
	in := NewValuesNode(bigSchema(), bigRows(20000))
	f := NewFilterNode(in, eval.FromFunc(func(r schema.Row) (types.Value, error) {
		return types.NewBool(r[0].Int()%2 == 0), nil
	}), "even")
	p := NewProjectNode(f, intSchema("id"), []*eval.Compiled{colFn(0)})
	ctx := NewAnalyzeCtx().SetParallelism(1)
	if _, err := Run(ctx, p); err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]Node{{p, f}, {f, in}} {
		outer, inner := ctx.Stats(pair[0]), ctx.Stats(pair[1])
		if outer == nil || inner == nil || outer.Elapsed < inner.Elapsed {
			t.Fatalf("%s Elapsed %v < input %s Elapsed %v", pair[0].Label(), outer, pair[1].Label(), inner)
		}
	}
	if st := ctx.Stats(f); st.Rows != 10000 || st.EvalMode != "row" {
		t.Fatalf("filter stats = %+v", st)
	}
}

// LIMIT truncates on the consumer side: its stats count the rows it let
// through, and the stream ends without draining the input.
func TestLimitTruncatesPipeline(t *testing.T) {
	in := NewValuesNode(bigSchema(), bigRows(50000))
	var calls atomic.Int64
	f := NewFilterNode(in, eval.FromFunc(func(schema.Row) (types.Value, error) {
		calls.Add(1)
		return types.NewBool(true), nil
	}), "true")
	l := NewLimitNode(f, 10)
	l.Offset = 5000
	ctx := NewAnalyzeCtx().SetParallelism(4)
	got, err := Run(ctx, l)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 10 || got.Rows[0][0].Int() != bigRows(50000)[5000][0].Int() {
		t.Fatalf("limit rows = %d", len(got.Rows))
	}
	if st := ctx.Stats(l); st == nil || st.Rows != 10 {
		t.Fatalf("limit stats = %+v", st)
	}
	if c := calls.Load(); c >= 50000 {
		t.Fatalf("filter evaluated all %d rows; the limit did not stop the pump", c)
	}
}
