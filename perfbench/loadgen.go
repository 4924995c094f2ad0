package main

import (
	"context"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Operation classes: cleansed statements, uncleansed dimension lookups,
// and ingest batch acknowledgements.
const (
	classQuery  = "query"
	classLookup = "lookup"
	classIngest = "ingest"
)

// job is one request of a workload. do returns when the reply was read
// to its last byte, before its answer is checked (zero if no reply was
// read), and a non-nil error for any failure: a non-2xx status, a
// transport error, a cut stream or a wrong answer.
type job struct {
	// at is when an open-loop job is due, relative to the run's start.
	at    time.Duration
	class string
	do    func(ctx context.Context) (time.Time, error)
}

// outcome is one finished job.
type outcome struct {
	class string
	// lat runs from when the job was due (open loop) or sent (closed
	// loop) until its reply was read to the last byte; checking the
	// answer is not timed.
	lat    time.Duration
	err    error
	traced bool
}

// recorder collects outcomes, generator lag and client-side spans from
// concurrent connections.
type recorder struct {
	mu   sync.Mutex
	outs []outcome
	// lags are how late the generator issued each request it could have
	// issued on time: an open-loop job found an idle connection but its
	// timer fired late, or a closed-loop job was sent some time after the
	// previous reply was read.
	lags []time.Duration
	tr   *tracer
}

func (r *recorder) record(o outcome, lag time.Duration, hasLag bool, start, end time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.outs = append(r.outs, o)
	if hasLag {
		r.lags = append(r.lags, lag)
	}
	if o.traced && r.tr != nil {
		r.tr.add("client."+o.class, 0, start, end)
	}
}

// openLoop issues jobs at their due times over conns connections. A job
// whose due time passes while every connection is busy waits for the
// next free one, and that wait counts in its latency.
func openLoop(ctx context.Context, start time.Time, jobs []job, conns int, rec *recorder, traced func(i int) bool) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(jobs) || ctx.Err() != nil {
					return
				}
				j := jobs[i]
				due := start.Add(j.at)
				idle := time.Until(due) > 0
				if idle {
					t := time.NewTimer(time.Until(due))
					select {
					case <-t.C:
					case <-ctx.Done():
						t.Stop()
						return
					}
				}
				sent := time.Now()
				read, err := j.do(ctx)
				end := readEnd(read)
				rec.record(outcome{class: j.class, lat: end.Sub(due), err: err, traced: traced(i)}, sent.Sub(due), idle, due, end)
			}
		}()
	}
	wg.Wait()
}

// closedLoop sends next(i)'s job as soon as the previous reply is read,
// until next reports no more jobs.
func closedLoop(ctx context.Context, next func(i int) (job, bool), rec *recorder, traced func(i int) bool) {
	last := time.Now()
	for i := 0; ctx.Err() == nil; i++ {
		j, ok := next(i)
		if !ok {
			return
		}
		sent := time.Now()
		read, err := j.do(ctx)
		end := readEnd(read)
		rec.record(outcome{class: j.class, lat: end.Sub(sent), err: err, traced: traced(i)}, sent.Sub(last), i > 0, sent, end)
		// The generator's lag includes its own check of the answer.
		last = time.Now()
	}
}

// readEnd is when a job's reply was read, or now if none was.
func readEnd(read time.Time) time.Time {
	if read.IsZero() {
		return time.Now()
	}
	return read
}

// never marks no job as traced.
func never(int) bool { return false }

// coin traces about half the jobs, chosen by a hash of the job index so
// the choice does not line up with a workload's request pattern.
func coin(i int) bool { return (uint32(i)*2654435761)>>31 == 1 }

// latencies are one class's successful latencies in milliseconds, sorted.
func (r *recorder) latencies(class string, pick func(outcome) bool) []float64 {
	var out []float64
	for _, o := range r.outs {
		if o.class == class && o.err == nil && (pick == nil || pick(o)) {
			out = append(out, float64(o.lat)/float64(time.Millisecond))
		}
	}
	sort.Float64s(out)
	return out
}

// counts reports attempted and failed jobs over every class.
func (r *recorder) counts() (attempted, failed int) {
	for _, o := range r.outs {
		attempted++
		if o.err != nil {
			failed++
		}
	}
	return attempted, failed
}

// quantile is the q-quantile of sorted xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// tail is the p-th percentile of sorted xs and the number of samples
// beyond it. Each workload fixes p per class, so that parent and change
// report the same percentile.
func tail(xs []float64, p int) (float64, float64) {
	return quantile(xs, float64(p)/100), float64(len(xs)) * float64(100-p) / 100
}
