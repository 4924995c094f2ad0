package serve

// The engine's statement lifecycle as the wire sees it: the server-side
// query timeout bounds session runs of prepared statements, and the
// X-Query-Id a client receives is the engine's own statement ID — the
// one DELETE /v1/queries/{id} kills and the slow-query log records.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
)

// windowSQL folds a 3000-row frame per row over one ordered partition —
// seconds of work at 30000 rows, so a short timeout always fires first.
const windowSQL = `SELECT a, MAX(a) OVER (PARTITION BY 1 ORDER BY a ROWS BETWEEN 3000 PRECEDING AND 1 PRECEDING) AS prev FROM t`

// TestSessionRunHonorsQueryTimeout: a timeout in Config.QueryOptions
// (rfidserve's -query-timeout) bounds /v1/sessions/{id}/run/{stmt}, not
// just /v1/query, and the run answers 504.
func TestSessionRunHonorsQueryTimeout(t *testing.T) {
	db := newTestDB(t, 30000)
	_, hs := newTestServer(t, db, func(c *Config) {
		c.QueryOptions = []repro.QueryOption{repro.WithTimeout(20 * time.Millisecond)}
	})
	resp, payload := post(t, hs.URL+"/v1/prepare", map[string]any{"sql": windowSQL})
	if resp.StatusCode != 200 {
		t.Fatalf("prepare = %d (body %s)", resp.StatusCode, payload)
	}
	var prep prepareResponse
	if err := json.Unmarshal(payload, &prep); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	resp, payload = post(t, fmt.Sprintf("%s/v1/sessions/%s/run/%s", hs.URL, prep.Session, prep.Statement), map[string]any{})
	if resp.StatusCode != http.StatusGatewayTimeout || errCode(t, payload) != repro.CodeCanceled {
		t.Fatalf("run = %d %s after %v, want 504 %s", resp.StatusCode, payload, time.Since(start), repro.CodeCanceled)
	}
}

// lockedBuffer is a concurrency-safe log sink.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestQueryIDIsEngineStatementID: the X-Query-Id header and the stream
// header carry the engine's statement ID, so DELETE /v1/queries/{id}
// with that ID kills the wedged stream the client is reading, and the
// slow-query log entry names the same ID.
func TestQueryIDIsEngineStatementID(t *testing.T) {
	logs := &lockedBuffer{}
	db := newWideTestDB(t, 20000, repro.WithSlowQueryLog(0, slog.New(slog.NewJSONHandler(logs, nil))))
	_, hs := newTestServer(t, db, func(c *Config) { c.ChunkRows = 16 })

	resp, err := http.Post(hs.URL+"/v1/query", "application/json", strings.NewReader(`{"sql":"SELECT a, s FROM t"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("query status = %d", resp.StatusCode)
	}
	qid := resp.Header.Get("X-Query-Id")
	br := bufio.NewReader(resp.Body)
	line, err := br.ReadString('\n')
	if err != nil {
		t.Fatalf("read stream header: %v", err)
	}
	var head streamHeader
	if err := json.Unmarshal([]byte(line), &head); err != nil {
		t.Fatal(err)
	}
	if qid == "" || head.QueryID != qid {
		t.Fatalf("X-Query-Id = %q, stream header query_id = %q", qid, head.QueryID)
	}

	// The client stops reading; the stream wedges. Kill it by the ID the
	// client was given.
	req, err := http.NewRequest("DELETE", hs.URL+"/v1/queries/"+qid, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != 200 {
		t.Fatalf("DELETE /v1/queries/%s = %d", qid, dresp.StatusCode)
	}
	clean := false
	for {
		line, err := br.ReadString('\n')
		if strings.Contains(line, `"status":"ok"`) {
			clean = true
		}
		if err != nil {
			break
		}
	}
	if clean {
		t.Fatal("killed query still streamed a clean ok footer")
	}

	waitFor(t, 10*time.Second, func() bool { return strings.Contains(logs.String(), `"msg":"slow query"`) })
	var entry map[string]any
	for _, l := range strings.Split(strings.TrimSpace(logs.String()), "\n") {
		if err := json.Unmarshal([]byte(l), &entry); err != nil {
			t.Fatal(err)
		}
		if entry["msg"] == "slow query" {
			break
		}
	}
	if entry["query_id"] != qid || entry["outcome"] != "killed" {
		t.Fatalf("slow-log entry query_id=%v outcome=%v, want %s killed", entry["query_id"], entry["outcome"], qid)
	}
	if aq := db.ActiveQueries(); len(aq) != 0 {
		t.Fatalf("registry not empty after kill: %+v", aq)
	}
}
