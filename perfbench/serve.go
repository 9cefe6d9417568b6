package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"photon/internal/eval"
	"photon/internal/link"
	"photon/internal/nn"
	"photon/internal/serve"
)

// The serve-mixed traffic: closed-loop callers sharing one client
// connection; of every four requests three generate and one scores.
const (
	callers     = 8
	maxBatch    = 8
	genPrompt   = 8
	genNew      = 48
	scorePrompt = 48
	scoreCont   = 16
	windowReqs  = 128 // requests per time_to_target_s window
	scoreSample = 8   // every scoreSample-th score of a caller is checked against the reference
	serveTailPM = 990
)

// serveModel is the serving benchmark shape of internal/serve's own
// benchmarks: vocab 256, dim 64, 4 blocks of 4 heads.
var serveModel = nn.Config{Name: "serve-bench", VocabSize: 256, Dim: 64, Heads: 4, Blocks: 4, ExpRatio: 4, SeqLen: 64}

type call struct {
	score  bool
	lat    time.Duration
	done   time.Duration // completion offset from the timed phase's start
	tokens int
	lp     float64
	err    error
}

type scoreSampleRec struct {
	prompt, cont []int
	got          float64
}

// serveSeg is one serving stack's life: set-up, the timed closed loop, and
// the checks run on its outputs.
type serveSeg struct {
	traced     bool
	setups     []time.Duration
	rssMB      float64
	dur        time.Duration
	calls      []call
	samples    []scoreSampleRec
	replayBad  int
	replays    int
	traffic    linkTotals
	alloc      uint64
	gcs        uint32
	events     []serve.Event
	fill       []float64
	refLPDelta float64 // largest |served − reference| score
}

// runServe splits the measured time into segments, each with a fresh
// engine, server and client, so set-up is measured several times; the traced
// pass alternates untraced and traced segments.
func runServe(ctx context.Context, o opts) *result {
	res := &result{}
	n := 3
	if o.traced {
		n = 4
	}
	var segs []*serveSeg
	for i := 0; i < n; i++ {
		seg, err := runServeSeg(ctx, o, o.traced && i%2 == 1, o.budget()/time.Duration(n), int64(i))
		if err != nil {
			res.err = err
			return res
		}
		segs = append(segs, seg)
	}
	var plain, traced []*serveSeg
	worst, bad, replays, sampled := 0.0, 0, 0, 0
	for _, s := range segs {
		if s.traced {
			traced = append(traced, s)
		} else {
			plain = append(plain, s)
		}
		worst = math.Max(worst, s.refLPDelta)
		bad += s.replayBad
		replays += s.replays
		sampled += len(s.samples)
		for _, c := range s.calls {
			res.attempted++
			if c.err != nil {
				res.failed++
			}
		}
	}
	res.check("score_matches_reference", sampled > 0 && worst <= 1e-4,
		"%d sampled scores within %.3g of eval.ContinuationLogProb (limit 1e-4)", sampled, worst)
	res.check("generate_replay_identical", replays > 0 && bad == 0,
		"%d of %d re-issued generates returned different tokens", bad, replays)
	res.check("no_failed_requests", res.failed == 0, "%d of %d requests failed", res.failed, res.attempted)

	ps := sumSegs(plain)
	lat := summarize(ps.lat)
	add := func(name, unit string, xs []float64, note string) {
		s := summarize(xs)
		res.add(&res.e2e, name, unit, s.Median, &s, note)
	}
	add("time_to_target_s", "s", ps.windows, fmt.Sprintf("wall time of each %d completed requests", windowReqs))
	res.add(&res.e2e, "tokens_per_s", "tok/s", ps.tokPerS, nil, "= serve_tokens_per_s: generated tokens over the timed phases")
	res.add(&res.e2e, "op_p50_ms", "ms", lat.Median, &lat, "= serve_p50_ms: client-seen request latency")
	res.add(&res.e2e, "op_tail_ms", "ms", percentile(sortedCopy(ps.lat), serveTailPM), &lat, "= serve_p99_ms")
	res.add(&res.e2e, "wire_bytes_per_op", "B", ps.wire, nil, "both directions of the client link, per request")
	add("setup_s", "s", ps.setup, "workload start to the first request, median over set-ups")
	add("peak_rss_mb", "MB", ps.rss, "peak resident memory, median over segments")
	res.add(&res.extra, "score_ppl", "ppl", ps.ppl, nil, "perplexity of the scored continuations under the served model")
	if o.traced {
		serveLayers(res, o, traced, ps)
	}
	return res
}

// serveStack is a serving segment's plumbing: the engine over a fresh model,
// the server in front of it, and one client over a counted link.
type serveStack struct {
	eng     *serve.Engine
	cl      *serve.Client
	lc      *linkConn
	cancel  context.CancelFunc
	srvDone chan struct{}
	evDone  chan struct{}
}

func setUpServe(ctx context.Context, seed int64, seg *serveSeg) (*serveStack, error) {
	m := nn.NewModel(serveModel, rand.New(rand.NewSource(seed)))
	st := &serveStack{eng: serve.NewEngine(m, serve.Config{MaxBatch: maxBatch}),
		srvDone: make(chan struct{}), evDone: make(chan struct{})}
	if seg != nil {
		go func() {
			defer close(st.evDone)
			for ev := range st.eng.Events() {
				seg.events = append(seg.events, ev)
			}
		}()
	} else {
		close(st.evDone)
	}
	l, err := link.Listen("127.0.0.1:0")
	if err != nil {
		st.eng.Close()
		return nil, err
	}
	sctx, cancel := context.WithCancel(ctx)
	st.cancel = cancel
	go func() {
		defer close(st.srvDone)
		serve.NewServer(st.eng, l).Run(sctx)
	}()
	raw, err := net.Dial("tcp", l.Addr())
	if err != nil {
		st.close()
		return nil, err
	}
	st.lc = newLinkConn(raw, 0)
	st.cl = serve.NewClient(link.NewConn(st.lc))
	// Warm the engine's decode workspaces and the connection.
	warm := make([]int, scorePrompt+scoreCont)
	for i := range warm {
		warm[i] = i % serveModel.VocabSize
	}
	if _, err := st.cl.Generate(warm[:genPrompt], genNew, serve.GenOpts{Sample: nn.SampleOpts{Temperature: 1}, Seed: 1}); err != nil {
		st.close()
		return nil, fmt.Errorf("serve warm-up: %w", err)
	}
	if _, err := st.cl.Score(warm[:scorePrompt], warm[scorePrompt:]); err != nil {
		st.close()
		return nil, fmt.Errorf("serve warm-up: %w", err)
	}
	return st, nil
}

// close shuts the client, the server and the engine down and waits for
// their goroutines.
func (st *serveStack) close() {
	if st.cl != nil {
		st.cl.Close()
	}
	st.cancel()
	<-st.srvDone
	st.eng.Close()
	<-st.evDone
}

func runServeSeg(ctx context.Context, o opts, traced bool, dur time.Duration, idx int64) (*serveSeg, error) {
	seg := &serveSeg{traced: traced}
	resetPeakRSS()
	ref := nn.NewModel(serveModel, rand.New(rand.NewSource(o.seed)))
	var st *serveStack
	for k := 0; k < setUpRepeats; k++ {
		if st != nil {
			st.close()
		}
		var events *serveSeg
		if traced && k == setUpRepeats-1 {
			events = seg
		}
		start := time.Now()
		var err error
		if st, err = setUpServe(ctx, o.seed, events); err != nil {
			return nil, err
		}
		seg.setups = append(seg.setups, time.Since(start))
	}
	defer st.close()
	eng, cl, lc := st.eng, st.cl, st.lc

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := lc.totals()
	begin := time.Now()
	stop := begin.Add(dur)
	pollDone := make(chan struct{})
	if traced {
		go func() {
			defer close(pollDone)
			tick := time.NewTicker(5 * time.Millisecond)
			defer tick.Stop()
			for now := range tick.C {
				if now.After(stop) {
					return
				}
				seg.fill = append(seg.fill, float64(eng.Stats().Active)/maxBatch)
			}
		}()
	} else {
		close(pollDone)
	}
	per := make([]callerOut, callers)
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			per[c] = runCaller(cl, o.seed, idx, c, begin, stop)
		}(c)
	}
	wg.Wait()
	seg.dur = time.Since(begin)
	seg.traffic = lc.totals().sub(t0)
	runtime.ReadMemStats(&after)
	<-pollDone
	seg.alloc = after.TotalAlloc - before.TotalAlloc
	seg.gcs = after.NumGC - before.NumGC
	seg.rssMB = peakRSSMB()

	for _, out := range per {
		seg.calls = append(seg.calls, out.calls...)
		seg.samples = append(seg.samples, out.samples...)
		// Replay each caller's first generate with its seed.
		if out.first.prompt != nil {
			seg.replays++
			got, err := cl.Generate(out.first.prompt, genNew, serve.GenOpts{Sample: nn.SampleOpts{Temperature: 1}, Seed: out.first.seed})
			if err != nil || !slices.Equal(got, out.first.tokens) {
				seg.replayBad++
			}
		}
	}
	for _, s := range seg.samples {
		want := eval.ContinuationLogProb(ref, s.prompt, s.cont)
		seg.refLPDelta = math.Max(seg.refLPDelta, math.Abs(s.got-want))
	}
	return seg, nil
}

type firstGen struct {
	prompt, tokens []int
	seed           int64
}

type callerOut struct {
	calls   []call
	samples []scoreSampleRec
	first   firstGen
}

// runCaller issues requests one at a time until stop. Inputs come from the
// workload seed, the segment and the caller; each generate samples with
// its own seed.
func runCaller(cl *serve.Client, seed, seg int64, c int, begin, stop time.Time) callerOut {
	var out callerOut
	rng := rand.New(rand.NewSource(seed*1_000_003 + seg*101 + int64(c)))
	tokens := func(n int) []int {
		t := make([]int, n)
		for i := range t {
			t[i] = rng.Intn(serveModel.VocabSize)
		}
		return t
	}
	scores := 0
	for j := 0; time.Now().Before(stop); j++ {
		if j%4 == 3 {
			prompt, cont := tokens(scorePrompt), tokens(scoreCont)
			t0 := time.Now()
			lp, err := cl.Score(prompt, cont)
			now := time.Now()
			out.calls = append(out.calls, call{score: true, lat: now.Sub(t0), done: now.Sub(begin), tokens: scoreCont, lp: lp, err: err})
			if err == nil && scores%scoreSample == 0 {
				out.samples = append(out.samples, scoreSampleRec{prompt, cont, lp})
			}
			scores++
			continue
		}
		prompt := tokens(genPrompt)
		rseed := seed*1_000_000 + seg*100_000 + int64(c)*10_000 + int64(j)
		t0 := time.Now()
		got, err := cl.Generate(prompt, genNew, serve.GenOpts{Sample: nn.SampleOpts{Temperature: 1}, Seed: rseed})
		now := time.Now()
		out.calls = append(out.calls, call{lat: now.Sub(t0), done: now.Sub(begin), tokens: len(got), err: err})
		if j == 0 && err == nil {
			out.first = firstGen{prompt, got, rseed}
		}
	}
	return out
}

// segSums pools the segments' samples.
type segSums struct {
	lat, gen, score, windows, setup, rss []float64
	tokPerS, ppl, wire                   float64
	requests                             int
}

func sumSegs(segs []*serveSeg) segSums {
	var s segSums
	var tokens, contTok int
	var lp, dur float64
	var wire int64
	for _, seg := range segs {
		var done []float64
		for _, c := range seg.calls {
			if c.err != nil {
				continue
			}
			s.lat = append(s.lat, ms(c.lat))
			done = append(done, c.done.Seconds())
			if c.score {
				s.score = append(s.score, ms(c.lat))
				lp += c.lp
				contTok += c.tokens
			} else {
				s.gen = append(s.gen, ms(c.lat))
				tokens += c.tokens
			}
		}
		sort.Float64s(done)
		prev := 0.0
		for k := windowReqs - 1; k < len(done); k += windowReqs {
			s.windows = append(s.windows, done[k]-prev)
			prev = done[k]
		}
		s.requests += len(seg.calls)
		for _, d := range seg.setups {
			s.setup = append(s.setup, d.Seconds())
		}
		s.rss = append(s.rss, seg.rssMB)
		dur += seg.dur.Seconds()
		wire += seg.traffic.upBytes + seg.traffic.downBytes
	}
	s.tokPerS = float64(tokens) / dur
	s.ppl = math.Exp(-lp / float64(contTok))
	s.wire = float64(wire) / float64(max(s.requests, 1))
	return s
}

func serveLayers(res *result, o opts, traced []*serveSeg, plain segSums) {
	if len(traced) == 0 {
		res.err = fmt.Errorf("no traced segment ran")
		return
	}
	ts := sumSegs(traced)
	var queue, engine, dur, fill []float64
	var traffic linkTotals
	var alloc, gcs float64
	for _, seg := range traced {
		for _, ev := range seg.events {
			queue = append(queue, ms(ev.Queued))
			engine = append(engine, ms(ev.Duration-ev.Queued))
			dur = append(dur, ms(ev.Duration))
		}
		fill = append(fill, seg.fill...)
		traffic.upBytes += seg.traffic.upBytes
		traffic.downBytes += seg.traffic.downBytes
		traffic.upCalls += seg.traffic.upCalls
		traffic.downCalls += seg.traffic.downCalls
		alloc += float64(seg.alloc)
		gcs += float64(seg.gcs)
	}
	n := float64(ts.requests)
	res.add(&res.layers, "link.bytes_up", "B", float64(traffic.upBytes)/n, nil, "client link, per request")
	res.add(&res.layers, "link.bytes_down", "B", float64(traffic.downBytes)/n, nil, "client link, per request")
	res.add(&res.layers, "link.reads", "count", float64(traffic.downCalls)/n, nil, "Read calls per request")
	res.add(&res.layers, "link.writes", "count", float64(traffic.upCalls)/n, nil, "Write calls per request")
	res.add(&res.layers, "go.alloc_bytes_per_op", "B", alloc/n, nil, "heap bytes allocated per request")
	res.add(&res.layers, "go.gc_cycles_per_op", "count", gcs/n, nil, "GC cycles per request")

	extra := func(name, unit string, xs []float64, note string) {
		s := summarize(xs)
		res.add(&res.extra, name, unit, s.Median, &s, note)
	}
	lat := summarize(ts.lat)
	res.add(&res.extra, "serve_p99_ms", "ms", percentile(sortedCopy(ts.lat), serveTailPM), &lat, "client-seen, traced segments")
	extra("serve.queue_ms", "ms", queue, "engine Events: Queued")
	extra("serve.engine_ms", "ms", engine, "engine Events: Duration - Queued")
	res.add(&res.extra, "serve.transport_ms", "ms", median(ts.lat)-median(dur), nil, "client-seen p50 minus engine Duration p50")
	res.add(&res.extra, "serve.batch_fill", "ratio", mean(fill), nil, fmt.Sprintf("mean Stats.Active/MaxBatch over %d polls", len(fill)))
	extra("serve.generate_ms", "ms", ts.gen, "client-seen, generate requests")
	extra("serve.score_ms", "ms", ts.score, "client-seen, score requests")
	if len(queue) < ts.requests {
		res.notes = append(res.notes, fmt.Sprintf("engine Events are best-effort: %d of %d requests seen", len(queue), ts.requests))
	}

	probeLayers(res, o, serveModel, serveModel.ParamCount())

	ml := mean(ts.lat)
	for _, s := range []struct {
		name string
		v    float64
	}{
		{"serve.queue", mean(queue)},
		{"serve.engine", mean(engine)},
		{"serve.transport", ml - mean(dur)},
	} {
		res.add(&res.shares, s.name, "%", 100*s.v/ml, nil, fmt.Sprintf("%.4g ms of mean request latency %.4g ms", s.v, ml))
	}
	overhead(res, "time_to_target_s", plain.windows, ts.windows)
	overhead(res, "tokens_per_s", []float64{plain.tokPerS}, []float64{ts.tokPerS})
	overhead(res, "op_p50_ms", plain.lat, ts.lat)
}
