// Tests for the statement lifecycle every query entry point shares:
// deadlines (prepared statements included), Kill, budget eviction,
// admission release, registry cleanup and resource totals hold the same
// way on all five entry paths; and Theorem 1 — every strategy returns
// the naive answer — still holds after ingest and after WAL recovery,
// which needs index scans to see ingested rows.
package repro_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro"
)

// entryPaths are the facade's five query entry points, each run to
// completion: a streamed result is drained and closed, and a prepared
// statement is prepared with the options and then run once.
var entryPaths = []struct {
	name string
	run  func(ctx context.Context, db *repro.DB, sql string, opts ...repro.QueryOption) error
}{
	{"Query", func(ctx context.Context, db *repro.DB, sql string, opts ...repro.QueryOption) error {
		_, err := db.QueryContext(ctx, sql, opts...)
		return err
	}},
	{"Prepared.Run", func(ctx context.Context, db *repro.DB, sql string, opts ...repro.QueryOption) error {
		p, err := db.PrepareContext(ctx, sql, opts...)
		if err != nil {
			return err
		}
		_, err = p.RunContext(ctx)
		return err
	}},
	{"ExplainAnalyze", func(ctx context.Context, db *repro.DB, sql string, opts ...repro.QueryOption) error {
		_, err := db.ExplainAnalyzeContext(ctx, sql, opts...)
		return err
	}},
	{"QueryStream", func(ctx context.Context, db *repro.DB, sql string, opts ...repro.QueryOption) error {
		rows, err := db.QueryStreamContext(ctx, sql, opts...)
		if err != nil {
			return err
		}
		_, err = drainStream(rows)
		return err
	}},
	{"Prepared.Stream", func(ctx context.Context, db *repro.DB, sql string, opts ...repro.QueryOption) error {
		p, err := db.PrepareContext(ctx, sql, opts...)
		if err != nil {
			return err
		}
		rows, err := p.StreamContext(ctx)
		if err != nil {
			return err
		}
		_, err = drainStream(rows)
		return err
	}},
}

// TestPreparedRunHonorsTimeout: a Prepare-time WithTimeout bounds every
// run of the statement, eager and streamed.
func TestPreparedRunHonorsTimeout(t *testing.T) {
	db := newServingDB(t, 30000)
	p, err := db.Prepare(longWindowQuery, repro.WithTimeout(20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	for name, run := range map[string]func() error{
		"Run": func() error { _, err := p.Run(); return err },
		"Stream": func() error {
			rows, err := p.Stream()
			if err != nil {
				return err
			}
			_, err = drainStream(rows)
			return err
		},
	} {
		start := time.Now()
		err := run()
		if !errors.Is(err, repro.ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s: err = %v after %v, want ErrCanceled and DeadlineExceeded", name, err, time.Since(start))
		}
	}
}

// settled asserts a finished statement left nothing behind: no registry
// entry, no admission slot, and exactly one more governed execution in
// the resource totals than before.
func settled(t *testing.T, db *repro.DB, queriesBefore int64) {
	t.Helper()
	if aq := db.ActiveQueries(); len(aq) != 0 {
		t.Errorf("ActiveQueries not empty: %+v", aq)
	}
	rs := db.ResourceStats()
	if rs.Admission.Running != 0 {
		t.Errorf("admission slot still held: %+v", rs.Admission)
	}
	if got := rs.Queries - queriesBefore; got != 1 {
		t.Errorf("ResourceStats().Queries went up by %d, want 1", got)
	}
}

// TestStatementLifecycleContract holds every entry path to one
// contract: a timeout fails with ErrCanceled, Kill records outcome
// "killed", a budget overrun evicts the plan-cache entry, a success
// releases its admission slot — and in each case the registry is empty
// afterwards and the resource totals count exactly one execution.
func TestStatementLifecycleContract(t *testing.T) {
	for _, ep := range entryPaths {
		t.Run(ep.name, func(t *testing.T) {
			t.Run("timeout", func(t *testing.T) {
				db := newServingDB(t, 30000)
				before := db.ResourceStats().Queries
				err := ep.run(context.Background(), db, longWindowQuery, repro.WithTimeout(20*time.Millisecond))
				if !errors.Is(err, repro.ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("err = %v, want ErrCanceled and DeadlineExceeded", err)
				}
				settled(t, db, before)
			})

			t.Run("kill", func(t *testing.T) {
				db := repro.Open()
				mkIntTable(t, db, 512)
				const sql = "SELECT a FROM t ORDER BY a"
				before := db.ResourceStats().Queries
				killedBefore := metricValue(t, db, "repro_queries_total", "killed")
				errc := make(chan error, 1)
				go func() {
					errc <- ep.run(context.Background(), db, sql,
						repro.WithFaults(repro.FaultInjection{SlowOp: 10 * time.Second}))
				}()
				var id repro.QueryID
				for deadline := time.Now().Add(10 * time.Second); id == 0; time.Sleep(5 * time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatal("query never appeared in ActiveQueries")
					}
					for _, q := range db.ActiveQueries() {
						if q.Kind == "query" && q.SQL == sql {
							id = q.ID
						}
					}
				}
				if err := db.Kill(id); err != nil {
					t.Fatalf("Kill(%s) = %v", id, err)
				}
				select {
				case err := <-errc:
					if !errors.Is(err, repro.ErrCanceled) {
						t.Fatalf("killed statement err = %v, want ErrCanceled", err)
					}
				case <-time.After(10 * time.Second):
					t.Fatal("killed statement did not unwind")
				}
				if got := metricValue(t, db, "repro_queries_total", "killed") - killedBefore; got != 1 {
					t.Errorf(`repro_queries_total{outcome="killed"} went up by %v, want 1`, got)
				}
				settled(t, db, before)
			})

			t.Run("exhausted", func(t *testing.T) {
				db := newGovernDB(t)
				db.ResetPlanCache()
				before := db.ResourceStats().Queries
				err := ep.run(context.Background(), db, spillGroupQuery,
					repro.WithMemoryLimit(16<<10), repro.WithoutSpill())
				if !errors.Is(err, repro.ErrResourceExhausted) {
					t.Fatalf("err = %v, want ErrResourceExhausted", err)
				}
				if st := db.PlanCacheStats(); st.Entries != 0 {
					t.Errorf("exhausted statement left its plan cached (%d entries)", st.Entries)
				}
				settled(t, db, before)
			})

			t.Run("ok", func(t *testing.T) {
				db := repro.Open(repro.WithMaxConcurrent(1), repro.WithAdmissionQueue(0))
				mkIntTable(t, db, 512)
				for i := 0; i < 2; i++ {
					// With one slot and no queue, a leaked slot would reject
					// the second run with ErrOverloaded.
					before := db.ResourceStats().Queries
					if err := ep.run(context.Background(), db, "SELECT a FROM t WHERE a < 100"); err != nil {
						t.Fatalf("run %d: %v", i, err)
					}
					settled(t, db, before)
				}
			})
		})
	}
}

// TestIndexScanSeesIngestedRows: rows ingested after an index was built
// are visible to index range scans, not only to sequential scans.
func TestIndexScanSeesIngestedRows(t *testing.T) {
	db := repro.Open()
	mkReads(t, db)
	ingestN(t, db, 0, 50)
	if err := db.BuildIndex("reads", "rtime"); err != nil {
		t.Fatal(err)
	}
	if err := db.Analyze("reads"); err != nil {
		t.Fatal(err)
	}
	ingestN(t, db, 50, 2)
	const sql = "SELECT count(*) FROM reads WHERE rtime >= TIMESTAMP '1970-01-01 00:00:45'"
	plan, err := db.Explain(sql, repro.WithStrategy(repro.Dirty))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "IndexScan(") {
		t.Fatalf("plan does not use the index, test is vacuous:\n%s", plan)
	}
	rows, err := db.Query(sql, repro.WithStrategy(repro.Dirty))
	if err != nil {
		t.Fatal(err)
	}
	if got := rows.Data[0][0].Int(); got != 7 {
		t.Fatalf("count(*) = %d, want 7 (5 loaded + 2 ingested)", got)
	}
}

// TestTheorem1AfterIngest extends caseR sequences through Ingest —
// duplicate reads, revisited locations, reads past the loaded window —
// and requires expanded, join-back and Auto to return the naive answer
// on queries that select the new reads through the rtime index, before
// and after WAL recovery.
func TestTheorem1AfterIngest(t *testing.T) {
	wal := t.TempDir()
	db := openDurableDB(t, wal)
	if err := db.LoadRFIDWorkload(repro.WorkloadConfig{Scale: 1, AnomalyPct: 10, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.DefinePaperRules(); err != nil {
		t.Fatal(err)
	}
	last, err := db.Query(`SELECT epc, rtime, reader, biz_loc, biz_step FROM caser ORDER BY rtime DESC, epc LIMIT 12`,
		repro.WithStrategy(repro.Dirty))
	if err != nil {
		t.Fatal(err)
	}
	maxT := time.UnixMicro(last.Data[0][1].TimeUsec()).UTC()
	since := maxT.Add(-30 * time.Minute).Format("2006-01-02 15:04:05")
	queries := []string{
		fmt.Sprintf(`SELECT count(*) FROM caser WHERE rtime >= TIMESTAMP '%s'`, since),
		fmt.Sprintf(`SELECT epc, rtime, biz_loc FROM caser WHERE rtime >= TIMESTAMP '%s' ORDER BY epc, rtime, biz_loc`, since),
		fmt.Sprintf(`SELECT l.site, count(*) FROM caser c, locs l
			WHERE c.biz_loc = l.gln AND c.rtime >= TIMESTAMP '%s' GROUP BY l.site ORDER BY l.site`, since),
	}
	loaded, err := db.Query(queries[0], repro.WithStrategy(repro.Dirty))
	if err != nil {
		t.Fatal(err)
	}
	// Two batches of new reads for the latest EPCs: each read repeated a
	// minute later (a duplicate), then revisited after another location.
	for batch := 0; batch < 2; batch++ {
		var rows [][]repro.Value
		for i, r := range last.Data {
			at := maxT.Add(time.Duration(batch*60+i*3+1) * time.Minute)
			for k, d := range []time.Duration{0, time.Minute} {
				loc := r[3]
				if k == 1 && i%3 == 0 {
					loc = last.Data[(i+1)%len(last.Data)][3]
				}
				rows = append(rows, []repro.Value{r[0], repro.NewTime(at.Add(d)), r[2], loc, r[4]})
			}
		}
		if err := db.Ingest("caser", rows...); err != nil {
			t.Fatal(err)
		}
	}
	check := func(db *repro.DB, stage string) {
		t.Helper()
		dirty, err := db.Query(queries[0], repro.WithStrategy(repro.Dirty))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := dirty.Data[0][0].Int(), loaded.Data[0][0].Int()+48; got != want {
			t.Fatalf("%s: dirty count(*) = %d, want %d (the 48 ingested reads included)", stage, got, want)
		}
		for _, q := range queries {
			want, err := db.Query(q, repro.WithStrategy(repro.Naive))
			if err != nil {
				t.Fatalf("%s: naive: %v", stage, err)
			}
			for _, s := range []repro.Strategy{repro.Expanded, repro.JoinBack, repro.Auto} {
				got, err := db.Query(q, repro.WithStrategy(s))
				if err != nil {
					if s == repro.Expanded {
						continue // infeasible is legitimate
					}
					t.Fatalf("%s: %v: %v", stage, s, err)
				}
				if fmt.Sprint(got.Data) != fmt.Sprint(want.Data) {
					t.Errorf("%s: %v differs from naive on %s\ngot:  %v\nwant: %v", stage, s, q, got.Data, want.Data)
				}
			}
		}
	}
	check(db, "after ingest")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2 := openDurableDB(t, wal)
	defer db2.Close()
	check(db2, "after recovery")
}
