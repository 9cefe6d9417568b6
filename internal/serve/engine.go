// Package serve is photon's inference side: a KV-cached continuous-batching
// engine over nn.Model's incremental decode path, plus a link-protocol
// server and client so evaluation can run against the real serving stack
// instead of in-process model calls.
//
// The engine owns the model exclusively. One scheduler goroutine runs a
// decode loop that admits queued requests into free batch slots, prefills
// their prompts in the same forward that decodes the running sequences
// (mixed ragged batches are what nn.Model.Decode is built for), samples one
// token per running sequence per step, and retires sequences the moment they
// finish — a new request takes over the freed slot on the very next step
// rather than waiting for the whole batch to drain. That is the continuous
// batching of Orca/vLLM, scaled down to this codebase's single-process
// model.
package serve

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"photon/internal/nn"
	"photon/internal/obsv"
	"photon/internal/tensor"
)

// Engine errors.
var (
	// ErrQueueFull reports a Submit rejected because the admission queue is
	// at capacity (backpressure; the caller should retry or shed load).
	ErrQueueFull = errors.New("serve: queue full")
	// ErrClosed reports a request submitted to (or stranded in) a closed
	// engine.
	ErrClosed = errors.New("serve: engine closed")
	// ErrDeadline reports a request whose deadline expired before it
	// finished; generation results carry the tokens produced so far.
	ErrDeadline = errors.New("serve: deadline exceeded")
	// ErrTooLong reports a request that cannot fit the per-sequence cache.
	ErrTooLong = errors.New("serve: request exceeds max sequence length")
)

// Config sizes the engine.
type Config struct {
	// MaxBatch is the maximum number of sequences decoded concurrently
	// (default 8). Also the size of the preallocated KV-cache slot pool.
	MaxBatch int
	// MaxSeq is the per-sequence cache capacity in tokens: prompt plus
	// generated tokens, or the full scored sequence (default 4× the
	// model's trained SeqLen — ALiBi extrapolates past training length).
	MaxSeq int
	// Queue is the admission queue depth (default 64). Submissions beyond
	// it fail fast with ErrQueueFull.
	Queue int
}

func (c Config) withDefaults(m *nn.Model) Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 8
	}
	if c.MaxSeq <= 0 {
		c.MaxSeq = 4 * m.Cfg.SeqLen
	}
	if c.Queue <= 0 {
		c.Queue = 64
	}
	return c
}

// Request is one unit of serving work. Leaving Cont empty makes it a
// generation request (continue Prompt by MaxNew sampled tokens); a non-empty
// Cont makes it a scoring request for log p(Cont | Prompt), and the sampling
// fields are ignored.
type Request struct {
	Prompt []int
	MaxNew int
	Opts   nn.SampleOpts
	// Seed seeds the request's private sampling stream, so a request
	// replayed with the same seed reproduces its tokens regardless of what
	// else is in the batch.
	Seed int64
	// Cont, when non-empty, switches the request to scoring mode.
	Cont []int
	// Deadline, when non-zero, bounds the request's total time in the
	// engine. An expired generation retires with its partial output and
	// ErrDeadline.
	Deadline time.Time
}

// Result is a finished request.
type Result struct {
	// Tokens holds the sampled continuation for generation requests.
	Tokens []int
	// LogProb holds Σ log p(cont_t | prompt, cont_<t) for scoring requests.
	LogProb float64
	Err     error
	// Queued is the time spent waiting for a batch slot; Duration the total
	// submit-to-completion time.
	Queued   time.Duration
	Duration time.Duration
}

// EventKind classifies telemetry events.
type EventKind int

// Event kinds.
const (
	// EventCompleted is a successfully finished request.
	EventCompleted EventKind = iota
	// EventExpired is a request retired by its deadline.
	EventExpired
)

// Event is one request's completion record with an engine snapshot attached,
// emitted on the Events channel (best-effort: slow consumers drop events,
// never the serving path).
type Event struct {
	Kind     EventKind
	Tokens   int // tokens generated (or scored)
	Queued   time.Duration
	Duration time.Duration
	Stats    Stats
}

// Stats is a point-in-time engine snapshot.
type Stats struct {
	// QueueDepth is the number of requests waiting for a slot; Active the
	// number of sequences in the current decode batch.
	QueueDepth int
	Active     int
	// Completed and Expired count retired requests.
	Completed int64
	Expired   int64
	// TokensOut counts sampled tokens across all generation requests.
	TokensOut int64
	// TokensPerSec is TokensOut over the engine's uptime.
	TokensPerSec float64
	// P50 and P99 are request-latency percentiles over a sliding window of
	// recent completions.
	P50, P99 time.Duration
}

// latWindow bounds the latency ring the percentiles are computed over.
const latWindow = 256

type pending struct {
	req      Request
	res      chan Result
	enqueued time.Time
}

// seqSlot is one active sequence in the batch.
type seqSlot struct {
	p       *pending
	st      *nn.DecodeState
	rng     *rand.Rand
	sampler nn.Sampler
	out     []int
	tok     [1]int // next token to feed in steady-state decode
	started time.Time

	score     bool
	seq       []int // scoring: prompt‖cont
	promptLen int
	prompt    []int // generation: truncated prompt (or the seed token)
}

// Engine is the continuous-batching scheduler. Construct with NewEngine,
// submit with Submit/Do, stop with Close. The model passed to NewEngine must
// not be used elsewhere until Close returns: the scheduler goroutine owns it.
type Engine struct {
	m   *nn.Model
	cfg Config

	reqs   chan *pending
	quit   chan struct{}
	done   chan struct{}
	events chan Event

	mu        sync.Mutex
	started   time.Time
	completed int64
	expired   int64
	tokensOut int64
	active    int
	lat       []time.Duration // latency ring
	latPos    int
	closed    bool

	// step scratch, owned by the scheduler goroutine
	states []*nn.DecodeState
	toks   [][]int
	rows   []int

	// process-wide scrape instruments (obsv.Default), cached at construction
	// so the hot path never touches the registry lock. All updates are
	// single atomic ops — the decode loop stays allocation-free.
	insQueue     *obsv.Gauge
	insInflight  *obsv.Gauge
	insLatency   *obsv.Histogram
	insCompleted *obsv.Counter
	insExpired   *obsv.Counter
	insTokens    *obsv.Counter
}

// NewEngine starts an engine over m. The engine takes exclusive ownership of
// the model until Close.
func NewEngine(m *nn.Model, cfg Config) *Engine {
	cfg = cfg.withDefaults(m)
	e := &Engine{
		m:       m,
		cfg:     cfg,
		reqs:    make(chan *pending, cfg.Queue),
		quit:    make(chan struct{}),
		done:    make(chan struct{}),
		events:  make(chan Event, 128),
		started: time.Now(),

		insQueue:     obsv.Default.Gauge(obsv.MetricServeQueueDepth, "Requests waiting in the admission queue."),
		insInflight:  obsv.Default.Gauge(obsv.MetricServeInflight, "Sequences currently decoding in the batch."),
		insLatency:   obsv.Default.Histogram(obsv.MetricServeRequestSec, "End-to-end request latency (queue + decode).", nil),
		insCompleted: obsv.Default.Counter(obsv.MetricServeCompleted, "Requests completed successfully."),
		insExpired:   obsv.Default.Counter(obsv.MetricServeExpired, "Requests expired at their deadline."),
		insTokens:    obsv.Default.Counter(obsv.MetricServeTokens, "Tokens sampled across all requests."),
	}
	go e.loop()
	return e
}

// Events returns the telemetry stream. Events are dropped, not queued, when
// the consumer lags; the channel closes when the engine does.
func (e *Engine) Events() <-chan Event { return e.events }

// ResolvedConfig returns the engine's configuration with defaults applied.
func (e *Engine) ResolvedConfig() Config { return e.cfg }

// Submit enqueues a request and returns the channel its Result will arrive
// on. It fails fast with ErrQueueFull or ErrClosed instead of blocking the
// caller.
func (e *Engine) Submit(req Request) (<-chan Result, error) {
	p := &pending{req: req, res: make(chan Result, 1), enqueued: time.Now()}
	// The closed check and the enqueue share the mutex with Close, so a
	// request either observes the closed flag or lands in the queue before
	// Close's shutdown drain — never in between, where it would strand.
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, ErrClosed
	}
	select {
	case e.reqs <- p:
		e.insQueue.Set(float64(len(e.reqs)))
		return p.res, nil
	default:
		return nil, ErrQueueFull
	}
}

// Do submits and blocks for the result.
func (e *Engine) Do(req Request) Result {
	ch, err := e.Submit(req)
	if err != nil {
		return Result{Err: err}
	}
	return <-ch
}

// Score returns log p(cont | prompt) in nats through the serving path. It
// satisfies eval's Scorer shape, so a local engine can stand in for a remote
// client when wiring evaluation through the server stack.
func (e *Engine) Score(prompt, cont []int) (float64, error) {
	res := e.Do(Request{Prompt: prompt, Cont: cont})
	return res.LogProb, res.Err
}

// Close stops the scheduler, failing queued and in-flight requests with
// ErrClosed, and blocks until the loop exits (after which the model may be
// used directly again).
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		<-e.done
		return
	}
	e.closed = true
	e.mu.Unlock()
	close(e.quit)
	<-e.done
}

// Stats returns a snapshot of the engine counters and latency percentiles.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := Stats{
		QueueDepth: len(e.reqs),
		Active:     e.active,
		Completed:  e.completed,
		Expired:    e.expired,
		TokensOut:  e.tokensOut,
	}
	if up := time.Since(e.started).Seconds(); up > 0 {
		s.TokensPerSec = float64(e.tokensOut) / up
	}
	if n := len(e.lat); n > 0 {
		tmp := make([]time.Duration, n)
		copy(tmp, e.lat)
		sort.Slice(tmp, func(i, j int) bool { return tmp[i] < tmp[j] })
		s.P50 = tmp[n/2]
		s.P99 = tmp[(n*99)/100]
	}
	return s
}

// loop is the scheduler: admit → step → retire, forever.
func (e *Engine) loop() {
	defer close(e.done)
	defer close(e.events)

	free := make([]*nn.DecodeState, e.cfg.MaxBatch)
	for i := range free {
		free[i] = e.m.NewDecodeState(e.cfg.MaxSeq)
	}
	var active []*seqSlot

	fail := func(p *pending, err error) {
		now := time.Now()
		p.res <- Result{Err: err, Queued: now.Sub(p.enqueued), Duration: now.Sub(p.enqueued)}
	}

	for {
		// Admit until the batch is full. Block only when idle; a running
		// batch polls so decoding never stalls on an empty queue.
		for len(active) < e.cfg.MaxBatch {
			var p *pending
			if len(active) == 0 {
				select {
				case <-e.quit:
					e.drainAndFail(active, fail)
					return
				case p = <-e.reqs:
				}
			} else {
				select {
				case p = <-e.reqs:
				default:
				}
				if p == nil {
					break
				}
			}
			if s := e.admit(p, &free, fail); s != nil {
				active = append(active, s)
			}
		}
		select {
		case <-e.quit:
			e.drainAndFail(active, fail)
			return
		default:
		}

		active = e.step(active, &free)

		e.mu.Lock()
		e.active = len(active)
		e.mu.Unlock()
		e.insInflight.Set(float64(len(active)))
		e.insQueue.Set(float64(len(e.reqs)))
	}
}

// drainAndFail rejects everything queued or in flight on shutdown.
func (e *Engine) drainAndFail(active []*seqSlot, fail func(*pending, error)) {
	for _, s := range active {
		fail(s.p, ErrClosed)
	}
	for {
		select {
		case p := <-e.reqs:
			fail(p, ErrClosed)
		default:
			return
		}
	}
}

// admit validates a request and binds it to a free KV slot. Returns nil when
// the request was rejected (its result is already delivered).
func (e *Engine) admit(p *pending, free *[]*nn.DecodeState, fail func(*pending, error)) *seqSlot {
	req := &p.req
	if !req.Deadline.IsZero() && time.Now().After(req.Deadline) {
		e.retireCounters(0, true)
		fail(p, ErrDeadline)
		return nil
	}
	s := &seqSlot{p: p, started: time.Now()}
	if len(req.Cont) > 0 {
		s.score = true
		s.promptLen = len(req.Prompt)
		if s.promptLen == 0 {
			// Scoring needs at least one conditioning token; reuse the
			// empty-prompt convention of Generate and seed token 0.
			s.seq = append(s.seq, 0)
			s.promptLen = 1
		} else {
			s.seq = append(s.seq, req.Prompt...)
		}
		s.seq = append(s.seq, req.Cont...)
		// The last token is never fed: its logits would predict beyond the
		// continuation.
		if len(s.seq)-1 > e.cfg.MaxSeq {
			fail(p, fmt.Errorf("%w: %d tokens > %d", ErrTooLong, len(s.seq), e.cfg.MaxSeq))
			return nil
		}
	} else {
		if req.MaxNew <= 0 {
			fail(p, fmt.Errorf("serve: MaxNew must be positive, got %d", req.MaxNew))
			return nil
		}
		if req.MaxNew >= e.cfg.MaxSeq {
			fail(p, fmt.Errorf("%w: MaxNew %d with MaxSeq %d leaves no prompt room", ErrTooLong, req.MaxNew, e.cfg.MaxSeq))
			return nil
		}
		prompt := req.Prompt
		// Mirror Model.GenerateOpts: truncate to the trained context, then
		// clip to the cache budget left after MaxNew tokens.
		if len(prompt) > e.m.Cfg.SeqLen {
			prompt = prompt[len(prompt)-e.m.Cfg.SeqLen:]
		}
		if keep := e.cfg.MaxSeq - req.MaxNew; len(prompt) > keep {
			prompt = prompt[len(prompt)-keep:]
		}
		if len(prompt) == 0 {
			s.prompt = []int{0} // seed token, not part of the output
		} else {
			s.prompt = append(s.prompt, prompt...)
		}
		s.rng = rand.New(rand.NewSource(req.Seed))
		s.out = make([]int, 0, req.MaxNew)
	}
	st := (*free)[len(*free)-1]
	*free = (*free)[:len(*free)-1]
	st.Reset()
	s.st = st
	return s
}

// step runs one mixed prefill/decode forward over the active batch, samples
// or scores, and retires finished sequences (returning their slots to free).
// This is the serving hot path: per-token work reuses engine-owned scratch
// (states/toks/rows reset to [:0] each step) so a steady-state decode step
// allocates nothing.
//
//photon:hotpath
func (e *Engine) step(active []*seqSlot, free *[]*nn.DecodeState) []*seqSlot {
	if len(active) == 0 {
		return active
	}
	e.states = e.states[:0]
	e.toks = e.toks[:0]
	for _, s := range active {
		e.states = append(e.states, s.st) //photon:nolint hotpath-alloc -- engine scratch, reset to [:0] per step
		e.toks = append(e.toks, s.feed()) //photon:nolint hotpath-alloc -- engine scratch, reset to [:0] per step
	}
	h := e.m.Decode(e.states, e.toks)

	// Gather exactly the logit rows each sequence needs.
	e.rows = e.rows[:0]
	off := 0
	for i, s := range active {
		n := len(e.toks[i])
		if s.score {
			// Rows for positions promptLen-1 … len(seq)-2: each predicts
			// the next continuation token.
			for r := s.promptLen - 1; r < n; r++ {
				e.rows = append(e.rows, off+r) //photon:nolint hotpath-alloc -- engine scratch, reset to [:0] per step
			}
		} else {
			e.rows = append(e.rows, off+n-1) //photon:nolint hotpath-alloc -- engine scratch, reset to [:0] per step
		}
		off += n
	}
	logits := e.m.DecodeLogits(h, e.rows)

	now := time.Now()
	out := active[:0]
	row := 0
	sampled := int64(0)
	for _, s := range active {
		if s.score {
			var lp float64
			for j := 0; j < len(s.seq)-s.promptLen; j++ {
				r := logits.Row(row)
				lp += float64(r[s.seq[s.promptLen+j]]) - tensor.LogSumExpRow(r)
				row++
			}
			e.retire(s, free, Result{LogProb: lp, Tokens: nil}, false, now)
			continue
		}
		next := s.sampler.Sample(s.rng, logits.Row(row), s.p.req.Opts)
		row++
		sampled++
		s.out = append(s.out, next) //photon:nolint hotpath-alloc -- capacity preallocated to MaxNew at admit
		s.tok[0] = next
		switch {
		case len(s.out) >= s.p.req.MaxNew:
			e.retire(s, free, Result{Tokens: s.out}, false, now)
		case !s.p.req.Deadline.IsZero() && now.After(s.p.req.Deadline):
			e.retire(s, free, Result{Tokens: s.out, Err: ErrDeadline}, true, now)
		default:
			out = append(out, s) //photon:nolint hotpath-alloc -- filters in place over active's backing array
		}
	}
	e.mu.Lock()
	e.tokensOut += sampled
	e.mu.Unlock()
	e.insTokens.Add(sampled)
	return out
}

// feed returns the tokens this sequence contributes to the next forward: its
// whole prompt (or scored prefix) on the first step, the last sampled token
// afterwards.
//
//photon:hotpath
func (s *seqSlot) feed() []int {
	if s.st.Len() == 0 {
		if s.score {
			return s.seq[:len(s.seq)-1]
		}
		return s.prompt
	}
	return s.tok[:]
}

// retire completes a sequence: result out, slot back in the pool, telemetry.
// Runs once per sequence, not per token, so it may allocate (the Event copy,
// the latency ring growth before the window fills).
//
//photon:allocok
func (e *Engine) retire(s *seqSlot, free *[]*nn.DecodeState, res Result, expired bool, now time.Time) {
	res.Queued = s.started.Sub(s.p.enqueued)
	res.Duration = now.Sub(s.p.enqueued)
	*free = append(*free, s.st)
	s.p.res <- res

	e.retireCounters(res.Duration, expired)
	kind := EventCompleted
	if expired {
		kind = EventExpired
	}
	ev := Event{
		Kind:     kind,
		Tokens:   len(res.Tokens),
		Queued:   res.Queued,
		Duration: res.Duration,
		Stats:    e.Stats(),
	}
	select {
	case e.events <- ev:
	default: // slow consumer: drop telemetry, never block serving
	}
}

// retireCounters updates completion counters and the latency ring.
func (e *Engine) retireCounters(d time.Duration, expired bool) {
	if expired {
		e.insExpired.Inc()
	} else {
		e.insCompleted.Inc()
	}
	if d > 0 {
		e.insLatency.Observe(d.Seconds())
	}
	e.mu.Lock()
	if expired {
		e.expired++
	} else {
		e.completed++
	}
	if d > 0 {
		if len(e.lat) < latWindow {
			e.lat = append(e.lat, d)
		} else {
			e.lat[e.latPos] = d
			e.latPos = (e.latPos + 1) % latWindow
		}
	}
	e.mu.Unlock()
}
