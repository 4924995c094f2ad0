package exec

import (
	"sync"
	"time"

	"repro/internal/govern"
	"repro/internal/schema"
)

// morselOut is one morsel carried through a whole pipeline: the rows the
// last stage produced, and — when statistics are collected — the rows
// and time of every pipeline position (pos[0] is the source).
type morselOut struct {
	rows []schema.Row
	pos  []posStat
}

type posStat struct {
	rows int
	dur  time.Duration
}

// morselFn processes morsel m through a pipeline. One instance serves
// one goroutine: it owns that worker's stage scratch.
type morselFn func(m int) (morselOut, error)

// morselPump runs a pipeline over nm morsels and delivers the outputs
// strictly in morsel order. With more than one worker, a pool claims
// morsels off a shared cursor bounded by a small look-ahead window (so
// an unread stream never materializes the whole input), and each worker
// carries its morsels through every stage with its own scratch
// (newWorker). With one worker the morsels run on the consuming
// goroutine. Workers start lazily: one on the first next call, the rest
// on the second (or all at once, see start), so a consumer that stops
// after one batch (a first-row probe, a small LIMIT) does not pay for a
// whole window of speculative morsels. Every morsel is preceded by a cancellation poll and the
// WorkerPanic injection, and panics in a worker become the query's
// govern.Internalize error. The first error is sticky and aborts the
// remaining morsels.
type morselPump struct {
	ctx     *Ctx
	nm      int
	workers int
	// window bounds how far claims may run ahead of delivery.
	window    int
	newWorker func() morselFn

	started    int // workers started so far
	serial     morselFn
	serialNext int

	mu      sync.Mutex
	cond    *sync.Cond
	closed  bool
	err     error
	claim   int
	deliver int
	pending map[int]morselOut
	wg      sync.WaitGroup
}

func newMorselPump(ctx *Ctx, nm, workers int, newWorker func() morselFn) *morselPump {
	p := &morselPump{ctx: ctx, nm: nm, workers: workers, window: 2 * workers, newWorker: newWorker}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// next returns the next morsel's output in order; ok is false after the
// last morsel. Outputs may hold no rows — the caller skips those.
func (p *morselPump) next() (out morselOut, ok bool, err error) {
	if p.workers <= 1 {
		return p.nextSerial()
	}
	if p.started == 0 {
		p.start(1)
	} else {
		p.start(p.workers)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if p.err != nil {
			return morselOut{}, false, p.err
		}
		if p.deliver >= p.nm {
			return morselOut{}, false, nil
		}
		if out, ok := p.pending[p.deliver]; ok {
			delete(p.pending, p.deliver)
			p.deliver++
			// The window moved: wake workers parked on the claim bound.
			p.cond.Broadcast()
			return out, true, nil
		}
		p.cond.Wait()
	}
}

// start brings the worker pool up to n workers (a no-op for a serial
// pump). A consumer that will drain the whole stream starts them all.
func (p *morselPump) start(n int) {
	if p.workers <= 1 {
		return
	}
	if p.pending == nil {
		p.pending = make(map[int]morselOut, p.window)
	}
	for ; p.started < min(n, p.workers); p.started++ {
		p.wg.Add(1)
		go p.worker()
	}
}

func (p *morselPump) nextSerial() (morselOut, bool, error) {
	if p.serialNext >= p.nm {
		return morselOut{}, false, nil
	}
	if err := p.ctx.Canceled(); err != nil {
		return morselOut{}, false, err
	}
	if p.serial == nil {
		p.serial = p.newWorker()
	}
	m := p.serialNext
	p.serialNext++
	// Panics (including the WorkerPanic injection) propagate to the
	// consuming stream's recover.
	p.ctx.res.MaybePanic()
	out, err := p.serial(m)
	return out, err == nil, err
}

func (p *morselPump) worker() {
	defer p.wg.Done()
	// A panic in one morsel (a bug, or the WorkerPanic injection) becomes
	// this query's error instead of crashing the process.
	defer func() {
		if rec := recover(); rec != nil {
			p.fail(govern.Internalize(rec))
		}
	}()
	fn := p.newWorker()
	for {
		p.mu.Lock()
		for !p.closed && p.err == nil && p.claim < p.nm && p.claim >= p.deliver+p.window {
			p.cond.Wait()
		}
		if p.closed || p.err != nil || p.claim >= p.nm {
			p.mu.Unlock()
			return
		}
		m := p.claim
		p.claim++
		p.mu.Unlock()
		if err := p.ctx.Canceled(); err != nil {
			p.fail(err)
			return
		}
		p.ctx.res.MaybePanic()
		out, err := fn(m)
		if err != nil {
			p.fail(err)
			return
		}
		p.mu.Lock()
		p.pending[m] = out
		p.cond.Broadcast()
		p.mu.Unlock()
	}
}

func (p *morselPump) fail(err error) {
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.cond.Broadcast()
	p.mu.Unlock()
}

// close stops the pump: parked workers wake and exit, in-flight morsels
// finish, and the pool joins before close returns — no goroutine
// outlives the stream.
func (p *morselPump) close() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}
