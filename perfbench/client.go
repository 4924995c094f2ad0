package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"
)

// client speaks the rfidserve wire protocol (docs/WIRE.md) over at most
// two keep-alive connections, the load a 2-vCPU machine can drive
// without the client competing with the server for cores.
type client struct {
	base string
	hc   *http.Client
}

func newClient(addr string) *client {
	return &client{
		base: "http://" + addr,
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     2,
			MaxIdleConnsPerHost: 2,
			DisableCompression:  true,
		}},
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// reply is one fully read result stream.
type reply struct {
	// rows are the result rows as the JSON arrays the server sent.
	rows []string
	// bytes is the size of the NDJSON body.
	bytes int
	// read is when the body was read to its last byte.
	read time.Time
}

// errCut marks a stream that ended without its terminal status object.
var errCut = errors.New("result stream cut before its footer")

func (c *client) post(ctx context.Context, path string, body any) (*http.Response, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("POST %s: %s: %s", path, resp.Status, bytes.TrimSpace(msg))
	}
	return resp, nil
}

// query runs one statement through POST /v1/query and reads its stream
// to the last byte.
func (c *client) query(ctx context.Context, s stmt) (reply, error) {
	return c.stream(ctx, "/v1/query", s.request())
}

// run executes a prepared statement of a session.
func (c *client) run(ctx context.Context, session, statement string) (reply, error) {
	return c.stream(ctx, "/v1/sessions/"+session+"/run/"+statement, struct{}{})
}

func (c *client) stream(ctx context.Context, path string, body any) (reply, error) {
	resp, err := c.post(ctx, path, body)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	r, err := readStream(resp.Body)
	r.read = time.Now()
	return r, err
}

// readStream reads an NDJSON result: a header, row chunks, and a footer
// whose row_count must match the rows received. An error object, or no
// terminal object at all, fails the read.
func readStream(body io.Reader) (reply, error) {
	var r reply
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 64<<10), 64<<20)
	header := true
	for sc.Scan() {
		line := sc.Bytes()
		r.bytes += len(line) + 1
		if header {
			header = false
			continue
		}
		var obj struct {
			Rows     []json.RawMessage `json:"rows"`
			Status   string            `json:"status"`
			RowCount int               `json:"row_count"`
			Code     string            `json:"code"`
			Error    string            `json:"error"`
		}
		if err := json.Unmarshal(line, &obj); err != nil {
			return r, fmt.Errorf("bad stream line: %w", err)
		}
		switch obj.Status {
		case "ok":
			if obj.RowCount != len(r.rows) {
				return r, fmt.Errorf("footer row_count %d, received %d rows", obj.RowCount, len(r.rows))
			}
			return r, nil
		case "error":
			return r, fmt.Errorf("stream failed: %s: %s", obj.Code, obj.Error)
		}
		for _, row := range obj.Rows {
			r.rows = append(r.rows, string(row))
		}
	}
	if err := sc.Err(); err != nil {
		return r, err
	}
	return r, errCut
}

// prepare compiles a statement into a session (a new one when session is
// empty) and returns the session and statement ids.
func (c *client) prepare(ctx context.Context, s stmt, session string) (string, string, error) {
	req := s.request()
	if session != "" {
		req["session"] = session
	}
	resp, err := c.post(ctx, "/v1/prepare", req)
	if err != nil {
		return "", "", err
	}
	defer resp.Body.Close()
	var out struct {
		Session   string `json:"session"`
		Statement string `json:"statement"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return "", "", fmt.Errorf("prepare response: %w", err)
	}
	return out.Session, out.Statement, nil
}

// ingest appends one batch to a table through POST /v1/ingest; a nil
// error is the server's durable acknowledgment. It returns when the
// acknowledgment was read.
func (c *client) ingest(ctx context.Context, table string, rows [][]any) (time.Time, error) {
	resp, err := c.post(ctx, "/v1/ingest", map[string]any{"table": table, "rows": rows})
	if err != nil {
		return time.Time{}, err
	}
	defer resp.Body.Close()
	var out struct {
		Status string `json:"status"`
		Rows   int    `json:"rows"`
	}
	err = json.NewDecoder(resp.Body).Decode(&out)
	read := time.Now()
	if err != nil {
		return read, fmt.Errorf("ingest response: %w", err)
	}
	if out.Status != "ok" || out.Rows != len(rows) {
		return read, fmt.Errorf("ingest acknowledged %d of %d rows (status %q)", out.Rows, len(rows), out.Status)
	}
	return read, nil
}

// get fetches a path and returns its status and body.
func (c *client) get(ctx context.Context, path string) (int, []byte, error) {
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}
