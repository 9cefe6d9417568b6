// Package serve is photon's inference side: a KV-cached continuous-batching
// engine over nn's incremental decode path, plus a link-protocol server and
// client so evaluation can run against the real serving stack instead of
// in-process model calls.
//
// The engine owns the model exclusively. One scheduler goroutine runs a
// decode loop that admits queued requests into free batch slots, prefills
// their prompts in the same forward that decodes the running sequences
// (mixed ragged batches are what nn.Decoder.Decode is built for), samples
// one token per running sequence per step, and retires sequences the moment
// they finish — a new request takes over the freed slot on the very next
// step rather than waiting for the whole batch to drain. That is the
// continuous batching of Orca/vLLM, scaled down to this codebase's
// single-process model.
//
// Each step is sharded across cores. The batch is cut into at most
// min(GOMAXPROCS, MaxBatch) contiguous runs of sequences, balanced by the
// number of tokens each feeds, and every run is decoded, scored and sampled
// by its own nn.Decoder: the first on the scheduler goroutine, the rest on
// persistent engine-owned goroutines. The decoders only read the model, so
// the shards share it. Once every shard is done the scheduler retires the
// finished sequences serially, in batch order, so results and telemetry do
// not depend on the sharding.
package serve

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
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
	lp        float64 // scoring: the result, set by the step that scores it
	prompt    []int   // generation: truncated prompt (or the seed token)
}

// shard is one core's part of a decode step: a contiguous run of the active
// batch that it decodes, scores and samples with its own decoder. The
// scheduler sets slots and signals run; the shard reports on the engine's
// shardDone. Between those two handoffs the shard alone touches its slots.
type shard struct {
	dec   *nn.Decoder
	slots []*seqSlot    // this step's sequences, a sub-slice of the batch
	run   chan struct{} // scheduler → worker; closed to stop the worker
	steps int           // steps this shard has run

	// step scratch, reset to [:0] per step
	states []*nn.DecodeState
	toks   [][]int
	rows   []int
}

// Engine is the continuous-batching scheduler. Construct with NewEngine,
// submit with Submit/Do, stop with Close. The model passed to NewEngine must
// not be used elsewhere until Close returns: the scheduler and its shard
// workers own it.
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

	// shards[0] runs on the scheduler goroutine, the rest on their own
	// workers, which signal shardDone after each step.
	shards    []*shard
	shardDone chan struct{}

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
	e := newEngine(m, cfg)
	go e.loop()
	return e
}

// newEngine builds an engine without starting its scheduler.
func newEngine(m *nn.Model, cfg Config) *Engine {
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
	n := min(runtime.GOMAXPROCS(0), cfg.MaxBatch)
	e.shards = make([]*shard, n)
	for i := range e.shards {
		e.shards[i] = &shard{dec: m.NewDecoder(), run: make(chan struct{}, 1)}
	}
	// One slot per worker: a worker never waits for the scheduler to
	// collect its signal.
	e.shardDone = make(chan struct{}, n)
	return e
}

// startShards launches a worker goroutine for every shard after the first.
func (e *Engine) startShards() {
	for _, sh := range e.shards[1:] {
		go e.shardWorker(sh)
	}
}

// stopShards stops the workers and waits until all of them have exited.
// No step may be in flight.
func (e *Engine) stopShards() {
	for _, sh := range e.shards[1:] {
		close(sh.run)
	}
	for range e.shards[1:] {
		<-e.shardDone
	}
}

// shardWorker runs sh's part of every step it is handed, until stopShards.
//
//photon:hotpath
func (e *Engine) shardWorker(sh *shard) {
	for range sh.run {
		sh.step()
		e.shardDone <- struct{}{}
	}
	e.shardDone <- struct{}{}
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
// The latency ring is copied under the lock and sorted after it is released,
// so a Stats call never holds up Submit or the scheduler.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	s := Stats{
		QueueDepth: len(e.reqs),
		Active:     e.active,
		Completed:  e.completed,
		Expired:    e.expired,
		TokensOut:  e.tokensOut,
	}
	lat := slices.Clone(e.lat)
	e.mu.Unlock()
	if up := time.Since(e.started).Seconds(); up > 0 {
		s.TokensPerSec = float64(s.TokensOut) / up
	}
	if n := len(lat); n > 0 {
		slices.Sort(lat)
		s.P50 = lat[n/2]
		s.P99 = lat[(n*99)/100]
	}
	return s
}

// loop is the scheduler: admit → step → retire, forever.
func (e *Engine) loop() {
	defer close(e.done)
	defer close(e.events)
	e.startShards()
	defer e.stopShards()

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

// step runs one mixed prefill/decode forward over the active batch, sharded
// across cores (see split), then retires finished sequences serially in
// batch order, returning their slots to free. This is the serving hot path:
// per-token work reuses engine-owned scratch, so a steady-state decode step
// allocates nothing.
//
//photon:hotpath
func (e *Engine) step(active []*seqSlot, free *[]*nn.DecodeState) []*seqSlot {
	if len(active) == 0 {
		return active
	}
	n := e.split(active)
	for _, sh := range e.shards[1:n] {
		sh.run <- struct{}{}
	}
	e.shards[0].step()
	for range n - 1 {
		<-e.shardDone
	}

	now := time.Now()
	out := active[:0]
	sampled := int64(0)
	for _, s := range active {
		if s.score {
			e.retire(s, free, Result{LogProb: s.lp}, false, now)
			continue
		}
		sampled++
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

// split cuts active into contiguous runs, one per shard, and returns how
// many shards have work. Runs are balanced by fed-token count: each cut
// falls where the running total comes closest to an equal share, so a long
// prefill gets a shard to itself instead of landing beside the
// single-token decodes. Every used shard gets at least one sequence.
//
//photon:hotpath
func (e *Engine) split(active []*seqSlot) int {
	n := min(len(e.shards), len(active))
	total := 0
	for _, s := range active {
		total += len(s.feed())
	}
	lo, acc := 0, 0
	for k := 0; k < n; k++ {
		hi := len(active)
		if k < n-1 {
			// Take the next sequence while the run still ends nearer the
			// k+1-th share than it would without it: acc + w/2 ≤ share.
			acc += len(active[lo].feed())
			hi = lo + 1
			for hi < len(active)-(n-1-k) {
				w := len(active[hi].feed())
				if n*(2*acc+w) > 2*total*(k+1) {
					break
				}
				acc += w
				hi++
			}
		}
		e.shards[k].slots = active[lo:hi]
		lo = hi
	}
	return n
}

// step decodes the shard's sequences with its own decoder, then scores
// them or samples their next token into the slot.
//
//photon:hotpath
func (sh *shard) step() {
	sh.states, sh.toks, sh.rows = sh.states[:0], sh.toks[:0], sh.rows[:0]
	off := 0
	for _, s := range sh.slots {
		tk := s.feed()
		sh.states = append(sh.states, s.st) //photon:nolint hotpath-alloc -- shard scratch, reset to [:0] per step
		sh.toks = append(sh.toks, tk)       //photon:nolint hotpath-alloc -- shard scratch, reset to [:0] per step
		// Gather exactly the logit rows each sequence needs.
		if s.score {
			// Rows for positions promptLen-1 … len(seq)-2: each predicts
			// the next continuation token.
			for r := s.promptLen - 1; r < len(tk); r++ {
				sh.rows = append(sh.rows, off+r) //photon:nolint hotpath-alloc -- shard scratch, reset to [:0] per step
			}
		} else {
			sh.rows = append(sh.rows, off+len(tk)-1) //photon:nolint hotpath-alloc -- shard scratch, reset to [:0] per step
		}
		off += len(tk)
	}
	logits := sh.dec.Logits(sh.dec.Decode(sh.states, sh.toks), sh.rows)

	row := 0
	for _, s := range sh.slots {
		if s.score {
			s.lp = 0
			for j := 0; j < len(s.seq)-s.promptLen; j++ {
				r := logits.Row(row)
				s.lp += float64(r[s.seq[s.promptLen+j]]) - tensor.LogSumExpRow(r)
				row++
			}
			continue
		}
		next := s.sampler.Sample(s.rng, logits.Row(row), s.p.req.Opts)
		row++
		s.out = append(s.out, next) //photon:nolint hotpath-alloc -- capacity preallocated to MaxNew at admit
		s.tok[0] = next
	}
	sh.steps++
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
