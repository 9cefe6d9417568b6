package main

import (
	"context"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"photon/internal/data"
	"photon/internal/fed"
	"photon/internal/link"
	"photon/internal/metrics"
	"photon/internal/nn"
	"photon/internal/opt"
	"photon/internal/topo"
)

// fedSpec is one federated workload: Serve and two ServeClients over
// loopback TCP in this process.
type fedSpec struct {
	model     nn.Config
	tau       int // local steps per round
	batch     int
	codec     string
	async     bool          // FedBuff with K=1, α=0.5 instead of sync FedAvg
	wal       bool          // journal to a write-ahead log
	rate      float64       // bytes/s per direction of each client link; 0 leaves links unshaped
	slowDelay time.Duration // per-batch delay of member 1's stream, a slower accelerator
	commits   int           // rounds (sync) or version commits (async) of one federation
	targetPPL float64       // validation perplexity time_to_ppl_s is measured to
	reachPPL  float64       // validation perplexity every federation must reach
	tailPM    int           // per-mille of the commit intervals op_tail_ms reports
}

var (
	lanSync = fedSpec{model: nn.ConfigTiny, tau: 8, batch: 4, codec: "dense",
		commits: 20, targetPPL: 34, reachPPL: 34, tailPM: 900}
	wanSync = fedSpec{model: nn.ConfigTinyL, tau: 4, batch: 4, codec: "q8", wal: true, rate: 2e6,
		commits: 10, targetPPL: 44, reachPPL: 44, tailPM: 750}
	// The async trajectory differs between identical runs (see README), so
	// its time_to_ppl_s is reported with its spread but not gated, and the
	// federation only has to show it learned.
	asyncStraggler = fedSpec{model: nn.ConfigTiny, tau: 8, batch: 4, codec: "dense", async: true, wal: true,
		slowDelay: 40 * time.Millisecond, commits: 50, targetPPL: 40, reachPPL: 45, tailPM: 900}
)

// Inputs the workload seed does not drive. The validation set is the fixed
// yardstick of every seed, and every federation starts from the same model
// initialisation, like pre-training from one checkpoint; the seed draws the
// members' data. Seed-to-seed spread of the initialisation would otherwise
// dominate time_to_target_s.
const (
	valSeed     = 987654
	valSeqs     = 16
	initSeed    = 2024
	warmSeedMix = 0x3a4b_11ce
	peakLR      = 3e-3
	schedPeriod = 2000
)

// setUpRepeats is how many times each federation or serving segment builds
// its stack; set-up time is the median over all of them.
const setUpRepeats = 3

// fedRep is one federation: set-up, the Serve call, and everything the
// wrappers and the round records saw.
type fedRep struct {
	traced    bool
	seed      int64
	setups    []time.Duration
	rssMB     float64       // peak resident memory during the federation
	wall      time.Duration // the Serve call
	end       time.Time     // when Serve returned
	serveErr  error
	recs      []metrics.Round
	at        []time.Duration // OnRound offsets from the Serve call
	clients   []*clientProbe
	outer     *outerProbe
	tail      []float64 // ms from the outer step's end to OnRound
	walGrowth int64     // bytes the WAL directory grew by, summed over commits
	walLast   int64
	alloc     uint64 // bytes allocated during Serve
	gcs       uint32 // GC cycles during Serve
}

// runFed runs federations of the spec back to back until the next one would
// overrun the measured time. Sync federations each draw their data from
// their own seed derived from the workload seed, so a run's medians span
// several data orders, and the last one repeats the first one's seed for
// the bit-identity check. Async federations all share one seed, so their
// spread is the spread between identical runs. The traced pass alternates
// untraced and traced federations of the same seed, so the tracing
// overhead is measured within one process.
func runFed(ctx context.Context, o opts, spec fedSpec) *result {
	res := &result{}
	deadline := time.Now().Add(o.budget())
	var reps []*fedRep
	var prev time.Duration
	for i := 0; ; i++ {
		last := i >= 1 && time.Until(deadline) < 2*prev
		seed := o.seed*1000 + int64(i)
		switch {
		case spec.async || (last && !o.traced):
			seed = o.seed * 1000
		case o.traced:
			// Each traced federation repeats its untraced partner's
			// seed: the pair isolates the tracing overhead and shows
			// that tracing leaves the trajectory bit-identical.
			seed = o.seed*1000 + int64(i/2)
		}
		start := time.Now()
		rep, err := runFedRep(ctx, o, spec, seed, o.traced && i%2 == 1, i)
		if err != nil {
			res.err = err
			return res
		}
		reps = append(reps, rep)
		prev = time.Since(start)
		if last || rep.serveErr != nil || ctx.Err() != nil {
			break
		}
	}
	fedChecks(res, spec, reps)
	var plain, traced []*fedRep
	for _, r := range reps {
		if r.traced {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
	}
	fedEndToEnd(res, spec, plain)
	for i, r := range reps[0].recs {
		res.trajectory = append(res.trajectory, [2]float64{reps[0].at[i].Seconds(), r.ValPPL})
	}
	if o.traced {
		fedLayers(res, o, spec, traced, plain)
	}
	return res
}

// fedStack is a federation's inputs and plumbing, built before Serve is
// called: the validation set, the members with their wrappers, and the
// listener both members have dialled.
type fedStack struct {
	l       *link.Listener
	val     *data.ValidationSet
	clients []*clientProbe
}

func setUpFed(spec fedSpec, seed int64, traced bool) (*fedStack, error) {
	cfg := spec.model
	src := data.C4Like(cfg.VocabSize)
	part, err := data.IIDPartition(src, 2, seed)
	if err != nil {
		return nil, err
	}
	st := &fedStack{val: data.NewValidationSet(src, valSeqs, cfg.SeqLen, valSeed)}
	warm := data.NewSourceStream(src, seed^warmSeedMix).NextBatch(spec.batch, cfg.SeqLen)
	if st.l, err = link.Listen("127.0.0.1:0"); err != nil {
		return nil, err
	}
	for i := 0; i < 2; i++ {
		p := &clientProbe{tau: spec.tau, traced: traced, stream: part.ClientStreams[i],
			opt: opt.NewAdamW(cfg.Beta1, cfg.Beta2, 0.01)}
		if i == 1 {
			p.delay = spec.slowDelay
		}
		p.client = fed.NewClient(fmt.Sprintf("member-%d", i), cfg, probeStream{p}, probeOpt{p})
		// Warm the replica's workspaces; RunRound zeroes the gradients
		// before every step, so the warm-up leaves training untouched.
		p.client.Model.ForwardBackward(warm)
		raw, err := net.Dial("tcp", st.l.Addr())
		if err != nil {
			st.close()
			return nil, err
		}
		p.conn = newLinkConn(raw, spec.rate)
		st.clients = append(st.clients, p)
	}
	return st, nil
}

func (st *fedStack) close() {
	st.l.Close()
	for _, p := range st.clients {
		p.conn.Close()
	}
}

func runFedRep(ctx context.Context, o opts, spec fedSpec, seed int64, traced bool, idx int) (*fedRep, error) {
	rep := &fedRep{traced: traced, seed: seed}
	resetPeakRSS()
	// Set-up runs setUpRepeats times and the last stack is used, so each
	// federation contributes several set-up samples.
	var st *fedStack
	for k := 0; k < setUpRepeats; k++ {
		if st != nil {
			st.close()
		}
		start := time.Now()
		var err error
		if st, err = setUpFed(spec, seed, traced); err != nil {
			return nil, err
		}
		rep.setups = append(rep.setups, time.Since(start))
	}
	defer st.l.Close()
	cfg, l, val := spec.model, st.l, st.val
	rep.clients = st.clients
	lspec := fed.LocalSpec{Steps: spec.tau, BatchSize: spec.batch, SeqLen: cfg.SeqLen,
		Schedule: opt.PaperCosine(peakLR, schedPeriod), ClipNorm: 1}
	rep.outer = &outerProbe{inner: fed.FedAvg{}, traced: traced}
	walDir := ""
	if spec.wal {
		walDir = filepath.Join(o.workDir, fmt.Sprintf("wal-%d", idx))
		if err := os.MkdirAll(walDir, 0o755); err != nil {
			return nil, err
		}
		defer os.RemoveAll(walDir)
	}
	scfg := fed.ServerConfig{
		ModelConfig:   cfg,
		Seed:          initSeed,
		Rounds:        spec.commits,
		ExpectClients: 2,
		MinClients:    2,
		RoundDeadline: 30 * time.Second,
		Codec:         spec.codec,
		Outer:         rep.outer,
		Validation:    val,
		EvalEvery:     1,
		WALDir:        walDir,
	}
	if spec.async {
		scfg.Async = &fed.AsyncConfig{K: 1, Alpha: 0.5}
	}

	cctx, ccancel := context.WithCancel(ctx)
	defer ccancel()
	var wg sync.WaitGroup
	for _, p := range rep.clients {
		wg.Add(1)
		go func(p *clientProbe) {
			defer wg.Done()
			conn := link.NewConn(p.conn)
			defer conn.Close()
			p.err = fed.ServeClient(cctx, conn, p.client, lspec, p.onRound)
			p.end = time.Now()
		}(p)
	}

	var serveStart time.Time
	scfg.OnRound = func(r metrics.Round) {
		rep.at = append(rep.at, time.Since(serveStart))
		rep.recs = append(rep.recs, r)
		if traced {
			rep.tail = append(rep.tail, ms(time.Since(rep.outer.lastEnd)))
			if walDir != "" {
				size := dirSize(walDir)
				if size > rep.walLast {
					rep.walGrowth += size - rep.walLast
				}
				rep.walLast = size
			}
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sctx, scancel := context.WithTimeout(ctx, 60*time.Second)
	serveStart = time.Now()
	_, rep.serveErr = fed.Serve(sctx, l, scfg)
	rep.end = time.Now()
	rep.wall = rep.end.Sub(serveStart)
	scancel()
	runtime.ReadMemStats(&after)
	rep.alloc = after.TotalAlloc - before.TotalAlloc
	rep.gcs = after.NumGC - before.NumGC
	rep.rssMB = peakRSSMB()

	// Members leave on MsgShutdown; one still training when the last
	// commit lands is given a bounded grace, then cancelled.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		ccancel()
		<-done
	}
	return rep, nil
}

func dirSize(dir string) int64 {
	var n int64
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if info, err := e.Info(); err == nil {
			n += info.Size()
		}
	}
	return n
}

// clientProbe is one member's instrumentation: the stream and optimizer
// wrappers handed to fed.NewClient, the link under its connection, and its
// OnRound records. Its fields are written by the member's goroutine and
// read after it exits.
type clientProbe struct {
	client *fed.Client
	stream data.Stream
	opt    opt.Optimizer
	conn   *linkConn
	tau    int
	traced bool
	delay  time.Duration
	err    error
	end    time.Time

	tokens   int64
	steps    []int // steps after each Reset
	recs     []metrics.Round
	perRound []linkTotals // link traffic between consecutive OnRound records
	last     linkTotals

	// traced timings
	batchAt, resetAt, recAt time.Time
	recPace                 int64
	nextBatchUs, fwdBwdMs   []float64
	stepMs, localMs, waitMs []float64
}

func (p *clientProbe) onRound(r metrics.Round) {
	t := p.conn.totals()
	p.perRound = append(p.perRound, t.sub(p.last))
	p.last = t
	p.recs = append(p.recs, r)
	if p.traced {
		p.recAt, p.recPace = time.Now(), p.conn.down.paceNs.Load()
	}
}

// probeStream is the data.Stream a member trains from.
type probeStream struct{ p *clientProbe }

func (s probeStream) NextBatch(batchSize, seqLen int) nn.Batch {
	p := s.p
	var t0 time.Time
	if p.traced {
		t0 = time.Now()
	}
	b := p.stream.NextBatch(batchSize, seqLen)
	if p.traced {
		p.nextBatchUs = append(p.nextBatchUs, us(time.Since(t0)))
	}
	if p.delay > 0 {
		time.Sleep(p.delay)
	}
	if p.traced {
		p.batchAt = time.Now()
	}
	p.tokens += int64(b.Tokens())
	return b
}

// probeOpt is the opt.Optimizer a member steps with.
type probeOpt struct{ p *clientProbe }

func (o probeOpt) Name() string { return o.p.opt.Name() }

func (o probeOpt) Reset() {
	p := o.p
	p.steps = append(p.steps, 0)
	if p.traced {
		p.resetAt = time.Now()
		if !p.recAt.IsZero() {
			pace := time.Duration(p.conn.down.paceNs.Load() - p.recPace)
			p.waitMs = append(p.waitMs, ms(p.resetAt.Sub(p.recAt)-pace))
		}
	}
	p.opt.Reset()
}

func (o probeOpt) Step(params nn.ParamSet, lr float64) {
	p := o.p
	if len(p.steps) == 0 {
		p.steps = append(p.steps, 0)
	}
	p.steps[len(p.steps)-1]++
	if !p.traced {
		p.opt.Step(params, lr)
		return
	}
	t0 := time.Now()
	p.fwdBwdMs = append(p.fwdBwdMs, ms(t0.Sub(p.batchAt)))
	p.opt.Step(params, lr)
	t1 := time.Now()
	p.stepMs = append(p.stepMs, ms(t1.Sub(t0)))
	if p.steps[len(p.steps)-1] == p.tau {
		p.localMs = append(p.localMs, ms(t1.Sub(p.resetAt)))
	}
}

// outerProbe wraps the server optimizer.
type outerProbe struct {
	inner   fed.OuterOpt
	traced  bool
	stepUs  []float64
	lastEnd time.Time
}

func (o *outerProbe) Name() string { return o.inner.Name() }

func (o *outerProbe) Step(global, delta []float32, round int) {
	if !o.traced {
		o.inner.Step(global, delta, round)
		return
	}
	t0 := time.Now()
	o.inner.Step(global, delta, round)
	o.lastEnd = time.Now()
	o.stepUs = append(o.stepUs, us(o.lastEnd.Sub(t0)))
}

// fedChecks gates the run on the program's outputs and counts attempted and
// failed member-rounds.
func fedChecks(res *result, spec fedSpec, reps []*fedRep) {
	serveOK, reached, stepsOK, trainedOnce, versionsUp := true, true, true, true, true
	var serveDetail, stepsDetail, onceDetail, versionDetail string
	for i, rep := range reps {
		if rep.serveErr != nil || len(rep.recs) != spec.commits {
			serveOK = false
			serveDetail = fmt.Sprintf("federation %d: %d of %d commits, err=%v", i, len(rep.recs), spec.commits, rep.serveErr)
		}
		if _, ok := timeToPPL(rep.recs, rep.at, spec.reachPPL); !ok {
			reached = false
		}
		for _, r := range rep.recs {
			res.attempted += r.Clients + r.Stragglers
			res.failed += r.Stragglers + r.Evictions
		}
		for j := 1; j < len(rep.recs); j++ {
			if spec.async && rep.recs[j].ModelVersion <= rep.recs[j-1].ModelVersion {
				versionsUp = false
				versionDetail = fmt.Sprintf("federation %d: version %d after %d", i, rep.recs[j].ModelVersion, rep.recs[j-1].ModelVersion)
			}
		}
		for _, p := range rep.clients {
			if p.err != nil && p.end.Before(rep.end) {
				res.failed++
				res.attempted++
			}
			full := 0
			for k, n := range p.steps {
				switch {
				case n == spec.tau:
					full++
				case k == len(p.steps)-1 && p.err != nil:
					// A dispatch cut off when the member was cancelled.
				default:
					stepsOK = false
					stepsDetail = fmt.Sprintf("federation %d %s: %d steps after reset %d, want %d", i, p.client.ID, n, k, spec.tau)
				}
			}
			// Each trained dispatch is one Reset with τ steps and at most
			// one record; a dispatch whose reply was lost at shutdown has
			// no record. A retrained dispatch shows up as a repeated task
			// ID or as more full resets than records plus one.
			seen := map[int]bool{}
			for _, r := range p.recs {
				if seen[r.Round] {
					trainedOnce = false
					onceDetail = fmt.Sprintf("federation %d %s: task %d trained twice", i, p.client.ID, r.Round)
				}
				seen[r.Round] = true
			}
			if full < len(p.recs) || full > len(p.recs)+1 || (!spec.async && full != len(p.recs)) {
				trainedOnce = false
				onceDetail = fmt.Sprintf("federation %d %s: %d full resets for %d records", i, p.client.ID, full, len(p.recs))
			}
		}
	}
	res.check("serve_completed", serveOK, "%d federations of %d commits %s", len(reps), spec.commits, serveDetail)
	res.check("target_ppl_reached", reached, "every federation reached validation PPL %g", spec.reachPPL)
	res.check("steps_per_round", stepsOK, "every Reset followed by tau=%d Steps %s", spec.tau, stepsDetail)
	res.check("no_dispatch_trained_twice", trainedOnce, "task IDs unique, full resets match records %s", onceDetail)
	if spec.async {
		res.check("versions_increase", versionsUp, "model versions strictly increase %s", versionDetail)
		return
	}
	same, pairs, detail := true, 0, ""
	first := map[int64]*fedRep{}
	for i, rep := range reps {
		f, ok := first[rep.seed]
		if !ok {
			first[rep.seed] = rep
			continue
		}
		pairs++
		a, b := pplSeq(f), pplSeq(rep)
		if len(a) != len(b) {
			same, detail = false, fmt.Sprintf(": federation %d evaluated %d rounds, its seed's first federation %d", i, len(b), len(a))
			continue
		}
		for j := range a {
			if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
				same, detail = false, fmt.Sprintf(": round %d PPL %.17g in federation %d, %.17g in its seed's first", j+1, b[j], i, a[j])
				break
			}
		}
	}
	same = same && pairs > 0
	detail = fmt.Sprintf("%d federations repeated an earlier seed%s", pairs, detail)
	res.check("ppl_bit_identical", same, "%s", detail)
}

func pplSeq(rep *fedRep) []float64 {
	var out []float64
	for _, r := range rep.recs {
		out = append(out, r.ValPPL)
	}
	return out
}

func finalPPL(rep *fedRep) float64 {
	for i := len(rep.recs) - 1; i >= 0; i-- {
		if rep.recs[i].ValPPL > 0 {
			return rep.recs[i].ValPPL
		}
	}
	return math.NaN()
}

// repSums reduces the federations to the per-federation quantities the
// end-to-end metrics are medians of.
type repSums struct {
	ttt, ppl, tokPerS, wire, setup, intervals, lastCommit, rss []float64
	runs, reached                                              int
}

func sumReps(spec fedSpec, reps []*fedRep) repSums {
	var s repSums
	for _, rep := range reps {
		if t, ok := timeToPPL(rep.recs, rep.at, spec.targetPPL); ok {
			s.ttt = append(s.ttt, t)
			s.reached++
		} else {
			// Censored: the target lies beyond the whole Serve call.
			s.ttt = append(s.ttt, rep.wall.Seconds())
		}
		s.ppl = append(s.ppl, finalPPL(rep))
		var tokens, wire int64
		for _, p := range rep.clients {
			tokens += p.tokens
			t := p.conn.totals()
			wire += t.upBytes + t.downBytes
		}
		s.tokPerS = append(s.tokPerS, float64(tokens)/rep.wall.Seconds())
		if n := len(rep.recs); n > 0 {
			s.wire = append(s.wire, float64(wire)/float64(n))
		}
		for _, d := range rep.setups {
			s.setup = append(s.setup, d.Seconds())
		}
		s.rss = append(s.rss, rep.rssMB)
		if n := len(rep.at); n > 0 {
			s.lastCommit = append(s.lastCommit, rep.at[n-1].Seconds())
		}
		s.runs++
		for j := 1; j < len(rep.at); j++ {
			s.intervals = append(s.intervals, ms(rep.at[j]-rep.at[j-1]))
		}
	}
	return s
}

func fedEndToEnd(res *result, spec fedSpec, reps []*fedRep) {
	s := sumReps(spec, reps)
	add := func(list *[]metric, name, unit string, xs []float64, note string) {
		sum := summarize(xs)
		res.add(list, name, unit, sum.Median, &sum, note)
	}
	ttp := fmt.Sprintf("Serve call to validation PPL %g, reached in %d of %d federations (the others count their whole Serve call)", spec.targetPPL, s.reached, s.runs)
	if spec.async {
		add(&res.e2e, "time_to_target_s", "s", s.lastCommit, fmt.Sprintf("Serve call to the last of %d version commits", spec.commits))
		add(&res.extra, "time_to_ppl_s", "s", s.ttt, ttp)
	} else {
		add(&res.e2e, "time_to_target_s", "s", s.ttt, "= time_to_ppl_s: "+ttp)
	}
	add(&res.e2e, "tokens_per_s", "tok/s", s.tokPerS, "= train_tokens_per_s")
	add(&res.e2e, "op_p50_ms", "ms", s.intervals, "= round_p50_ms: interval between commits")
	iv := summarize(s.intervals)
	res.add(&res.e2e, "op_tail_ms", "ms", percentile(sortedCopy(s.intervals), spec.tailPM), &iv,
		fmt.Sprintf("= round_tail_ms: p%g of commit intervals", float64(spec.tailPM)/10))
	add(&res.e2e, "wire_bytes_per_op", "B", s.wire, "= wire_bytes_per_round: both directions, all client links, per commit")
	add(&res.e2e, "setup_s", "s", s.setup, "workload start to the Serve call, median over set-ups")
	add(&res.e2e, "peak_rss_mb", "MB", s.rss, "peak resident memory, median over federations")
	add(&res.extra, "final_ppl", "ppl", s.ppl, fmt.Sprintf("validation PPL after %d commits", spec.commits))
	if spec.async && len(s.ppl) > 0 {
		pp, tt := summarize(s.ppl), summarize(s.ttt)
		res.notes = append(res.notes, fmt.Sprintf(
			"async finding: %d identical-seed federations ended at final PPL %.4g..%.4g and reached PPL %g in %d of them after %.3g..%.3g s; "+
				"dispatch task IDs key each member's LR schedule, so the trajectory depends on dispatch interleaving",
			s.runs, pp.Min, pp.Max, spec.targetPPL, s.reached, tt.Min, tt.Max))
	}
}

// fedLayers reports the per-layer metrics of the traced federations, the
// tracing overhead against the untraced ones, and each layer's share of
// the round.
func fedLayers(res *result, o opts, spec fedSpec, traced, plain []*fedRep) {
	if len(traced) == 0 {
		res.err = fmt.Errorf("no traced federation fit in %gs", o.seconds)
		return
	}
	var up, down, reads, writes, pace, enc, dec, alloc, gcs, stale, fill, wal []float64
	var next, fwd, step, local, wait, outer, tail, eval []float64
	var steps []float64
	for _, rep := range traced {
		n := float64(len(rep.recs))
		alloc = append(alloc, float64(rep.alloc)/n)
		gcs = append(gcs, float64(rep.gcs)/n)
		if spec.wal {
			wal = append(wal, float64(rep.walGrowth)/n)
		}
		for _, r := range rep.recs {
			eval = append(eval, r.Phases.EvalMs)
			stale = append(stale, r.MeanStaleness)
			fill = append(fill, float64(r.BufferFill))
		}
		outer = append(outer, rep.outer.stepUs...)
		tail = append(tail, rep.tail...)
		for _, p := range rep.clients {
			// The first record also carries the handshake.
			for k, t := range p.perRound {
				if k == 0 {
					continue
				}
				up = append(up, float64(t.upBytes))
				down = append(down, float64(t.downBytes))
				reads = append(reads, float64(t.downCalls))
				writes = append(writes, float64(t.upCalls))
				pace = append(pace, float64(t.paceNs)/1e6)
			}
			for _, r := range p.recs {
				enc = append(enc, r.EncodeMs)
				dec = append(dec, r.DecodeMs)
			}
			for _, n := range p.steps {
				steps = append(steps, float64(n))
			}
			next = append(next, p.nextBatchUs...)
			fwd = append(fwd, p.fwdBwdMs...)
			step = append(step, p.stepMs...)
			local = append(local, p.localMs...)
			wait = append(wait, p.waitMs...)
		}
	}
	layer := func(list *[]metric, name, unit string, xs []float64, note string) float64 {
		s := summarize(xs)
		res.add(list, name, unit, s.Median, &s, note)
		return s.Median
	}
	layer(&res.layers, "link.bytes_up", "B", up, "per client per round, exact on sync workloads")
	layer(&res.layers, "link.bytes_down", "B", down, "per client per round")
	layer(&res.layers, "link.reads", "count", reads, "Read calls per client per round")
	layer(&res.layers, "link.writes", "count", writes, "Write calls per client per round")
	layer(&res.layers, "go.alloc_bytes_per_op", "B", alloc, "heap bytes allocated per commit")
	layer(&res.layers, "go.gc_cycles_per_op", "count", gcs, "GC cycles per commit")

	nb := layer(&res.extra, "data.next_batch_us", "us", next, "stream wrapper, straggler delay excluded")
	fb := layer(&res.extra, "nn.fwd_bwd_ms", "ms", fwd, "NextBatch return to Optimizer.Step entry")
	ost := layer(&res.extra, "opt.step_ms", "ms", step, "AdamW Step")
	layer(&res.extra, "opt.steps_per_round", "count", steps, "Steps after each Reset")
	lrMs := layer(&res.extra, "fed.local_round_ms", "ms", local, "Reset to the last Step")
	cw := layer(&res.extra, "fed.client_wait_ms", "ms", wait, "update sent to next Reset, pacing excluded")
	ou := layer(&res.extra, "fed.outer_step_us", "us", outer, "OuterOpt.Step wrapper")
	layer(&res.extra, "fed.commit_tail_ms", "ms", tail, "outer step end to OnRound")
	ev := layer(&res.extra, "fed.eval_ms", "ms", eval, "round records")
	layer(&res.extra, "fed.mean_staleness", "versions", stale, "round records; 0 under sync")
	layer(&res.extra, "fed.buffer_fill", "count", fill, "round records; 0 under sync")
	pw := layer(&res.extra, "link.pace_wait_ms", "ms", pace, "per client per round; 0 on unshaped links")
	en := layer(&res.extra, "link.encode_ms", "ms", enc, "client records")
	de := layer(&res.extra, "link.decode_ms", "ms", dec, "client records")
	if spec.wal {
		layer(&res.extra, "ckpt.wal_bytes_per_commit", "B", wal, "WAL directory growth per commit")
	}

	cfg := spec.model
	q8 := probeLayers(res, o, cfg, cfg.ParamCount())
	tr := sumReps(spec, traced)
	round := median(tr.intervals)
	if spec.rate > 0 && lrMs > 0 {
		m := topo.Model{ModelSizeMB: q8 / 1e6, BandwidthMBps: spec.rate / 1e6,
			Throughput: float64(spec.tau) / (lrMs / 1e3), LocalSteps: spec.tau}
		pred := m.RoundTime(topo.PS, 2) * 1e3
		res.add(&res.extra, "topo.predicted_round_ms", "ms", pred, nil, "RoundTime(PS, 2) from measured compute, pacer rate, q8 size")
		res.add(&res.extra, "topo.model_gap", "ratio", round/pred, nil, "measured round_p50_ms over predicted")
	} else {
		res.notes = append(res.notes, "topo.predicted_round_ms and topo.model_gap dropped here: the links are unshaped, so there is no bandwidth to model")
	}

	share := func(name string, v float64) {
		res.add(&res.shares, name, "%", 100*v/round, nil, fmt.Sprintf("%.4g ms of round_p50_ms %.4g ms", v, round))
	}
	t := float64(spec.tau)
	share("data.next_batch", t*nb/1e3)
	share("nn.fwd_bwd", t*fb)
	share("opt.step", t*ost)
	share("fed.local_round", lrMs)
	share("fed.client_wait", cw)
	share("fed.outer_step", ou/1e3)
	share("fed.eval", ev)
	share("link.pace_wait", pw)
	share("link.encode+decode", en+de)

	pl := sumReps(spec, plain)
	if spec.async {
		overhead(res, "time_to_target_s", pl.lastCommit, tr.lastCommit)
	} else {
		overhead(res, "time_to_target_s", pl.ttt, tr.ttt)
	}
	overhead(res, "tokens_per_s", pl.tokPerS, tr.tokPerS)
	overhead(res, "op_p50_ms", pl.intervals, tr.intervals)
}

// overhead reports how far tracing moved an end-to-end median: the traced
// samples' median over the untraced ones', as a percentage change.
func overhead(res *result, name string, plain, traced []float64) {
	a, b := median(plain), median(traced)
	res.add(&res.extra, "trace_overhead."+name, "%", 100*(b-a)/a, nil,
		fmt.Sprintf("traced median %.6g vs untraced %.6g", b, a))
}
