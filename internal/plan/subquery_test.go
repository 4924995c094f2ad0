package plan

import (
	"context"
	"errors"
	"testing"

	"repro/internal/catalog"
	"repro/internal/eval"
	"repro/internal/exec"
	"repro/internal/govern"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/types"
)

// semiJoinDB holds big(a) with 20000 rows and small(b) with 100: the
// shape of the join-back semi-join, a large input filtered by a small
// IN-subquery.
func semiJoinDB(t *testing.T) *catalog.Database {
	t.Helper()
	db := catalog.NewDatabase()
	big := storage.NewTable("big", schema.New(schema.Col("big", "a", types.KindInt)))
	for i := 0; i < 20000; i++ {
		big.Append(schema.Row{types.NewInt(int64(i))})
	}
	small := storage.NewTable("small", schema.New(schema.Col("small", "b", types.KindInt)))
	for i := 0; i < 100; i++ {
		small.Append(schema.Row{types.NewInt(int64(i * 7))})
	}
	for _, tab := range []*storage.Table{big, small} {
		tab.Analyze()
		if err := db.AddTable(tab); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

const semiJoinQuery = "select * from big where a in (select b from small where b >= 0)"

// Canceling while a row-eval IN-subquery filter runs stops it with the
// cancellation sentinel instead of finishing the filter loop. The
// subquery's projection cancels as it computes its last row, after the
// subquery's last cancellation poll, so only the filter can notice.
func TestSubqueryFilterRowEvalHonorsCancel(t *testing.T) {
	db := semiJoinDB(t)
	root := planFor(t, db, semiJoinQuery)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hooked := false
	var hook func(n exec.Node)
	hook = func(n exec.Node) {
		if p, ok := n.(*exec.ProjectNode); ok && exec.CountNodes(p, "Scan(small") > 0 {
			col, seen := p.Exprs[0], 0
			p.Exprs[0] = eval.FromFunc(func(r schema.Row) (types.Value, error) {
				if seen++; seen == 100 {
					cancel()
				}
				return col.Eval(r)
			})
			hooked = true
			return
		}
		for _, c := range n.Children() {
			hook(c)
		}
	}
	hook(root)
	if !hooked {
		t.Fatalf("no subquery projection to hook in plan:\n%s", exec.Explain(root))
	}
	_, err := exec.Run(exec.NewCtxWith(ctx).SetParallelism(1).SetVectorize(false), root)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// The semi-join filter's output is charged to the query's memory budget
// like any other filter's: without spilling, a budget far below its
// output fails the query cleanly.
func TestSubqueryFilterChargesBudget(t *testing.T) {
	db := semiJoinDB(t)
	root := planFor(t, db, semiJoinQuery)
	res := govern.NewResources(32<<10, false, "", govern.Inject{})
	defer res.Close()
	_, err := exec.Run(exec.NewCtx().SetResources(res), root)
	if !errors.Is(err, govern.ErrResourceExhausted) {
		t.Fatalf("err = %v, want ErrResourceExhausted", err)
	}
}

// A predicate with two subqueries lists them in predicate order, so
// EXPLAIN (and the trace span tree) is the same for every plan.
func TestSubqueryFilterExplainIsDeterministic(t *testing.T) {
	db := testDB(t)
	q := "select epc from reads where epc in (select epc from reads where v = 3) or loc in (select gln from locs where site = 'dc1')"
	first := exec.Explain(planFor(t, db, q))
	for i := 0; i < 30; i++ {
		if got := exec.Explain(planFor(t, db, q)); got != first {
			t.Fatalf("plan %d differs:\n%s\nfirst:\n%s", i, got, first)
		}
	}
	if rows := run(t, db, q).Rows; len(rows) != 4 {
		t.Fatalf("rows = %v", rows)
	}
}
