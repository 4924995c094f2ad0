package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
)

// benchmarkSpec is the part of BENCHMARK.json the result line must agree
// with.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// ungated are the workloads perfbench runs that BENCHMARK.json does not
// list. ingest-query's dashboard answers are wrong once ingested rows
// should show (README.md, known defect), so its runs fail; the smoke test
// checks only the shape of its result line.
var ungated = []string{"ingest-query"}

// TestSmokeAllWorkloads runs every workload at a tiny scale, untraced and
// traced, against an rfidserve built from this tree, and checks that the
// result line has exactly its four keys and reports exactly the metrics
// BENCHMARK.json lists, with their units. A workload of BENCHMARK.json
// must also run without a failure.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds rfidserve and runs six short benchmark runs")
	}
	spec := readSpec(t)
	dir := t.TempDir()
	bin := filepath.Join(dir, "rfidserve")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/rfidserve").CombinedOutput(); err != nil {
		t.Fatalf("build rfidserve: %v\n%s", err, out)
	}
	var names []string
	for _, wl := range spec.Workloads {
		names = append(names, wl.Name)
	}
	for _, name := range append(names, ungated...) {
		gated := !slices.Contains(ungated, name)
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", name, trace), func(t *testing.T) {
				res, err := run(context.Background(), config{
					workload: name, seed: 7, seconds: 2 * time.Second, trace: trace,
					server: bin, work: filepath.Join(dir, "work"), scale: 2, dataSeed: defaultDataSeed,
				})
				if err != nil {
					t.Fatal(err)
				}
				line, err := resultJSON(res)
				if err != nil {
					t.Fatal(err)
				}
				var top map[string]json.RawMessage
				if err := json.Unmarshal([]byte(line), &top); err != nil {
					t.Fatal(err)
				}
				var keys []string
				for k := range top {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				if got := strings.Join(keys, ","); got != "attempted,correct,failed,metrics" {
					t.Fatalf("result keys %s", got)
				}
				var out struct {
					Correct   bool `json:"correct"`
					Attempted int  `json:"attempted"`
					Failed    int  `json:"failed"`
					Metrics   map[string]struct {
						Value *float64 `json:"value"`
						Unit  string   `json:"unit"`
					} `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(line), &out); err != nil {
					t.Fatal(err)
				}
				if out.Attempted < 1 || out.Correct != (out.Failed == 0) || (gated && !out.Correct) {
					t.Fatalf("correct=%v attempted=%d failed=%d", out.Correct, out.Attempted, out.Failed)
				}
				want := spec.EndToEnd
				if trace {
					want = spec.PerLayer
				}
				if len(out.Metrics) != len(want) {
					t.Errorf("%d metrics, BENCHMARK.json lists %d", len(out.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := out.Metrics[m.Name]
					switch {
					case !ok || got.Value == nil:
						t.Errorf("metric %s missing", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
			})
		}
	}
}

// fakeServer answers prepares, runs and queries with one fixed row.
func fakeServer(t *testing.T, row string) *client {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/prepare" {
			fmt.Fprint(w, `{"session":"s-1","statement":"st-1"}`)
			return
		}
		fmt.Fprintf(w, "{\"query_id\":\"q-1\",\"columns\":[\"c\"]}\n{\"rows\":[%s]}\n{\"status\":\"ok\",\"row_count\":1}\n", row)
	}))
	t.Cleanup(srv.Close)
	c := newClient(strings.TrimPrefix(srv.URL, "http://"))
	t.Cleanup(c.close)
	return c
}

// A served answer that differs from the reference counts as a failed
// operation, in every workload.
func TestWrongAnswerCountsAsFailed(t *testing.T) {
	ref := answer{`["dc-1",3]`}
	for _, tc := range []struct {
		served string
		failed bool
	}{
		{`["dc-1",3]`, false},
		{`["dc-1",4]`, true},
	} {
		c := fakeServer(t, tc.served)
		grid := &paperGrid{stmts: []stmt{{name: "q2"}}, refs: []answer{ref}}
		rec := &recorder{}
		if _, err := grid.serve(context.Background(), c, 0, rec, false); err != nil {
			t.Fatal(err)
		}
		wantFailed := 0
		if tc.failed {
			wantFailed = minPasses
		}
		if attempted, failed := rec.counts(); attempted != minPasses || failed != wantFailed {
			t.Errorf("paper-grid served %s: %d of %d failed, want %d of %d", tc.served, failed, attempted, wantFailed, minPasses)
		}

		trail := &epcTrail{jobs: []stmt{locLookup("gln-1")}, refs: []answer{ref}}
		_, err := trail.check(context.Background(), c, 0)
		if (err != nil) != tc.failed {
			t.Errorf("epc-trail served %s: check error %v", tc.served, err)
		}

		// One batch is in flight: the answer before it and the one after
		// it are both right.
		dash := &ingestQuery{dash: stmt{name: "dashboard"}, refs: []answer{{`["dc-1",2]`}, ref}}
		dash.sent.Store(1)
		_, err = dash.query(context.Background(), c)
		if (err != nil) != tc.failed {
			t.Errorf("ingest-query served %s: check error %v", tc.served, err)
		}
	}
}

// A trail must come back in rtime order.
func TestTrailOrder(t *testing.T) {
	if err := ordered([]string{`["2021-01-01T00:00:00.5Z","a","b"]`, `["2021-01-01T00:00:01Z","a","b"]`}); err != nil {
		t.Errorf("ordered trail rejected: %v", err)
	}
	if err := ordered([]string{`["2021-01-01T00:00:01Z","a","b"]`, `["2021-01-01T00:00:00.5Z","a","b"]`}); err == nil {
		t.Error("out-of-order trail accepted")
	}
}

// A stream without its footer, with an error object, or whose footer
// disagrees with the rows received is a failure.
func TestReadStream(t *testing.T) {
	head := `{"query_id":"q-1","columns":["c"]}` + "\n"
	for _, tc := range []struct {
		body string
		ok   bool
	}{
		{head + `{"rows":[[1],[2]]}` + "\n" + `{"status":"ok","row_count":2}` + "\n", true},
		{head + `{"rows":[[1],[2]]}` + "\n", false},
		{head + `{"rows":[[1]]}` + "\n" + `{"status":"error","code":"internal","error":"boom"}` + "\n", false},
		{head + `{"rows":[[1]]}` + "\n" + `{"status":"ok","row_count":2}` + "\n", false},
	} {
		r, err := readStream(strings.NewReader(tc.body))
		if (err == nil) != tc.ok {
			t.Errorf("readStream(%q) = %v, %v", tc.body, r.rows, err)
		}
	}
}
