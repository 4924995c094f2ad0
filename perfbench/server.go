package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one rfidserve process under test.
type server struct {
	cmd  *exec.Cmd
	addr string
	log  *os.File
	// done is closed once the process has exited and been reaped.
	done chan struct{}
}

// queryParallelism is the intra-query parallelism the server runs every
// statement at. In-process executions whose time is reported or compared
// (the regret pass and the layer probe) run at it too.
const queryParallelism = 1

// serverFlags are the flags every workload passes to rfidserve, on both
// sides of a comparison: the snapshot to restore, one query per core (two
// executing at once, each on one worker; a third request would queue in
// admission), and spill files inside the work directory. A WAL-backed
// workload adds -wal <fresh dir> -fsync always. Serial execution keeps a
// statement's latency from depending on whether the other core is free:
// with intra-query parallelism the same prepared statement ran in either
// about t or 2t from one run to the next on a 2-vCPU VM.
func serverFlags(snap, spill, addrFile, wal string) []string {
	args := []string{
		"-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-dir", snap, "-max-concurrent", "2", "-query-parallelism", strconv.Itoa(queryParallelism), "-spill-dir", spill,
	}
	if wal != "" {
		args = append(args, "-wal", wal, "-fsync", "always")
	}
	return args
}

// startServer launches rfidserve and waits until /readyz answers 200. It
// returns the time from process start to ready: the restore of the
// snapshot, and on a WAL-backed server its seed checkpoint.
func startServer(ctx context.Context, bin string, args []string, addrFile, logPath string) (*server, time.Duration, error) {
	_ = os.Remove(addrFile)
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("start rfidserve: %w", err)
	}
	s := &server{cmd: cmd, log: logf, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait()
		close(s.done)
	}()
	ready, err := s.awaitReady(ctx, addrFile)
	if err != nil {
		s.stop()
		return nil, 0, fmt.Errorf("%w (server log: %s)", err, logPath)
	}
	return s, ready.Sub(start), nil
}

func (s *server) awaitReady(ctx context.Context, addrFile string) (time.Time, error) {
	deadline := time.Now().Add(120 * time.Second)
	var c *client
	for time.Now().Before(deadline) {
		select {
		case <-s.done:
			return time.Time{}, errors.New("rfidserve exited before it was ready")
		case <-ctx.Done():
			return time.Time{}, ctx.Err()
		default:
		}
		if c == nil {
			if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
				s.addr = strings.TrimSpace(string(b))
				c = newClient(s.addr)
				defer c.close()
			}
		}
		if c != nil {
			if code, _, err := c.get(ctx, "/readyz"); err == nil && code == 200 {
				return time.Now(), nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return time.Time{}, errors.New("rfidserve not ready within 120s")
}

// stop drains the server with SIGTERM and waits for it to exit, killing
// it if the drain takes longer than 30s.
func (s *server) stop() {
	defer s.log.Close()
	select {
	case <-s.done:
		return
	default:
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(30 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

// peakRSSMB is the server's peak resident set (VmHWM) in MiB.
func (s *server) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(s.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in process status")
}

// promSample is a scrape of a Prometheus text exposition, summed over
// label sets per series name.
type promSample map[string]float64

func parseProm(text []byte) promSample {
	out := promSample{}
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if strings.HasSuffix(name[:i], "_bucket") {
				continue
			}
			name = name[:i]
		}
		out[name] += v
	}
	return out
}

// scrape reads the server's /metrics.
func scrape(ctx context.Context, c *client) (promSample, error) {
	code, body, err := c.get(ctx, "/metrics")
	if err != nil {
		return nil, err
	}
	if code != 200 {
		return nil, fmt.Errorf("GET /metrics: status %d", code)
	}
	return parseProm(body), nil
}

// meanDeltaMS is the mean of a seconds histogram between two scrapes, in
// milliseconds (0 when nothing was observed).
func meanDeltaMS(before, after promSample, hist string) float64 {
	n := after[hist+"_count"] - before[hist+"_count"]
	if n <= 0 {
		return 0
	}
	return (after[hist+"_sum"] - before[hist+"_sum"]) / n * 1000
}
