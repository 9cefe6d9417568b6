package serve

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"photon/internal/eval"
	"photon/internal/nn"
)

func testModel(seed int64) *nn.Model {
	cfg := nn.Config{
		VocabSize: 61,
		Dim:       24,
		Heads:     3,
		Blocks:    2,
		ExpRatio:  2,
		SeqLen:    16,
	}
	return nn.NewModel(cfg, rand.New(rand.NewSource(seed)))
}

// TestEngineGenerateMatchesInProcess pins the serving path against the local
// generation path: a request served alone must reproduce Model.GenerateOpts
// token for token, both greedy and sampled (same seed).
func TestEngineGenerateMatchesInProcess(t *testing.T) {
	m := testModel(1)
	prompt := []int{3, 7, 11}
	opts := nn.SampleOpts{Temperature: 0.8, TopK: 12}
	// In-process references first: the engine owns the model once started.
	wantGreedy := m.Generate(nil, prompt, 10, 0)
	wantSampled := m.GenerateOpts(rand.New(rand.NewSource(99)), prompt, 10, opts)

	e := NewEngine(m, Config{MaxBatch: 1, MaxSeq: 64})
	defer e.Close()

	res := e.Do(Request{Prompt: prompt, MaxNew: 10})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if len(res.Tokens) != len(wantGreedy) {
		t.Fatalf("greedy: got %d tokens, want %d", len(res.Tokens), len(wantGreedy))
	}
	for i := range res.Tokens {
		if res.Tokens[i] != wantGreedy[i] {
			t.Fatalf("greedy token %d: served %d, in-process %d", i, res.Tokens[i], wantGreedy[i])
		}
	}

	res = e.Do(Request{Prompt: prompt, MaxNew: 10, Opts: opts, Seed: 99})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	for i := range res.Tokens {
		if res.Tokens[i] != wantSampled[i] {
			t.Fatalf("sampled token %d: served %d, in-process %d", i, res.Tokens[i], wantSampled[i])
		}
	}
}

// TestEngineScoreMatchesEval is the scoring half of the serving contract:
// log p(cont | prompt) through the engine must match eval.ContinuationLogProb
// (which recomputes the full sequence through the training forward) within
// the decode-vs-training float tolerance.
func TestEngineScoreMatchesEval(t *testing.T) {
	m := testModel(2)
	rng := rand.New(rand.NewSource(5))
	prompt := make([]int, 9)
	cont := make([]int, 5)
	for i := range prompt {
		prompt[i] = rng.Intn(m.Cfg.VocabSize)
	}
	for i := range cont {
		cont[i] = rng.Intn(m.Cfg.VocabSize)
	}
	want := eval.ContinuationLogProb(m, prompt, cont)

	e := NewEngine(m, Config{MaxBatch: 2, MaxSeq: 64})
	defer e.Close()
	got, err := e.Score(prompt, cont)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-4 {
		t.Fatalf("served score %g, in-process %g", got, want)
	}
}

// TestEngineContinuousBatching is the mid-batch scheduling pin: with a
// 2-slot batch occupied by one long request, short requests must rotate
// through the second slot and complete while the long one is still decoding.
func TestEngineContinuousBatching(t *testing.T) {
	m := testModel(3)
	e := NewEngine(m, Config{MaxBatch: 2, MaxSeq: 128, Queue: 8})
	defer e.Close()

	// Completion order is read from the engine's own clock (each Result's
	// Duration since its enqueue), not from which receiving goroutine gets
	// scheduled first: that raced, and so did a fixed sleep before the
	// shorts, which the long request can outlast on an idle host.
	start := time.Now()
	long, err := e.Submit(Request{Prompt: []int{1, 2}, MaxNew: 90})
	if err != nil {
		t.Fatal(err)
	}
	// The shorts queue right behind the long request and contend for the
	// one slot it leaves free.
	shorts := make([]<-chan Result, 3)
	queuedBy := make([]time.Duration, 3) // upper bound on each short's enqueue
	for i := range shorts {
		ch, err := e.Submit(Request{Prompt: []int{5}, MaxNew: 3})
		if err != nil {
			t.Fatal(err)
		}
		shorts[i], queuedBy[i] = ch, time.Since(start)
	}
	lr := <-long
	if lr.Err != nil {
		t.Fatalf("long request failed: %v", lr.Err)
	}
	if len(lr.Tokens) != 90 {
		t.Fatalf("long request returned %d tokens", len(lr.Tokens))
	}
	for i, ch := range shorts {
		r := <-ch
		if r.Err != nil {
			t.Fatalf("short request failed: %v", r.Err)
		}
		if len(r.Tokens) != 3 {
			t.Fatalf("short request returned %d tokens", len(r.Tokens))
		}
		// The long request finished no earlier than start+lr.Duration,
		// short i no later than start+queuedBy[i]+r.Duration.
		if queuedBy[i]+r.Duration >= lr.Duration {
			t.Fatalf("short %d finished at %v, long at %v: short requests should finish mid-batch before the long one",
				i, queuedBy[i]+r.Duration, lr.Duration)
		}
	}
	// The engine counts a request just after sending its result; Close
	// waits for the loop to exit, so the counters are final.
	e.Close()
	st := e.Stats()
	if st.Completed != 4 {
		t.Fatalf("stats report %d completed, want 4", st.Completed)
	}
	if st.TokensOut != 90+3*3 {
		t.Fatalf("stats report %d tokens out, want 99", st.TokensOut)
	}
}

// TestEngineQueueFull pins admission backpressure: with the single batch
// slot busy and the queue at capacity, the next Submit fails fast.
func TestEngineQueueFull(t *testing.T) {
	m := testModel(4)
	e := NewEngine(m, Config{MaxBatch: 1, MaxSeq: 4096, Queue: 1})
	defer e.Close()

	// Long enough (thousands of decode steps) to still be running while the
	// assertions below execute; Close reaps it at test end.
	busy, err := e.Submit(Request{Prompt: []int{1}, MaxNew: 4000})
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the busy request to be admitted (leaving the queue).
	deadline := time.Now().Add(5 * time.Second)
	for e.Stats().Active == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := e.Submit(Request{Prompt: []int{2}, MaxNew: 5}); err != nil {
		t.Fatalf("queueing one request should succeed: %v", err)
	}
	if _, err := e.Submit(Request{Prompt: []int{3}, MaxNew: 5}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("expected ErrQueueFull, got %v", err)
	}
	_ = busy
}

// TestEngineDeadline pins both deadline paths: a request expired before
// admission fails outright, and one expiring mid-generation retires with its
// partial output and ErrDeadline.
func TestEngineDeadline(t *testing.T) {
	m := testModel(5)
	e := NewEngine(m, Config{MaxBatch: 2, MaxSeq: 4096})
	defer e.Close()

	res := e.Do(Request{Prompt: []int{1}, MaxNew: 5, Deadline: time.Now().Add(-time.Second)})
	if !errors.Is(res.Err, ErrDeadline) {
		t.Fatalf("pre-expired request returned %v, want ErrDeadline", res.Err)
	}
	if len(res.Tokens) != 0 {
		t.Fatalf("pre-expired request produced %d tokens", len(res.Tokens))
	}

	res = e.Do(Request{Prompt: []int{1}, MaxNew: 4000, Deadline: time.Now().Add(5 * time.Millisecond)})
	if !errors.Is(res.Err, ErrDeadline) {
		t.Fatalf("mid-flight expiry returned %v, want ErrDeadline", res.Err)
	}
	if len(res.Tokens) == 0 || len(res.Tokens) >= 4000 {
		t.Fatalf("expired generation returned %d tokens, want partial output", len(res.Tokens))
	}
	if e.Stats().Expired == 0 {
		t.Fatal("stats never counted an expired request")
	}
}

// TestEngineRejects pins the validation errors.
func TestEngineRejects(t *testing.T) {
	m := testModel(6)
	e := NewEngine(m, Config{MaxBatch: 1, MaxSeq: 8})
	defer e.Close()

	if res := e.Do(Request{Prompt: []int{1}, MaxNew: 0}); res.Err == nil {
		t.Fatal("MaxNew=0 accepted")
	}
	if res := e.Do(Request{Prompt: []int{1}, MaxNew: 8}); !errors.Is(res.Err, ErrTooLong) {
		t.Fatalf("MaxNew=MaxSeq returned %v, want ErrTooLong", res.Err)
	}
	long := make([]int, 12)
	if res := e.Do(Request{Prompt: long, Cont: long}); !errors.Is(res.Err, ErrTooLong) {
		t.Fatalf("oversized scoring request returned %v, want ErrTooLong", res.Err)
	}
}

// TestEngineClose pins shutdown: queued work fails with ErrClosed and later
// submissions are rejected without blocking.
func TestEngineClose(t *testing.T) {
	m := testModel(7)
	e := NewEngine(m, Config{MaxBatch: 1, MaxSeq: 256, Queue: 4})
	ch, err := e.Submit(Request{Prompt: []int{1}, MaxNew: 200})
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
	if res := <-ch; !errors.Is(res.Err, ErrClosed) {
		t.Fatalf("in-flight request got %v, want ErrClosed", res.Err)
	}
	if _, err := e.Submit(Request{Prompt: []int{1}, MaxNew: 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close submit got %v, want ErrClosed", err)
	}
}

// TestEngineEvents checks the telemetry stream carries completions with a
// coherent snapshot.
func TestEngineEvents(t *testing.T) {
	m := testModel(8)
	e := NewEngine(m, Config{MaxBatch: 2, MaxSeq: 64})
	defer e.Close()

	if res := e.Do(Request{Prompt: []int{2, 3}, MaxNew: 4}); res.Err != nil {
		t.Fatal(res.Err)
	}
	select {
	case ev := <-e.Events():
		if ev.Kind != EventCompleted {
			t.Fatalf("event kind %v, want EventCompleted", ev.Kind)
		}
		if ev.Tokens != 4 {
			t.Fatalf("event reports %d tokens, want 4", ev.Tokens)
		}
		if ev.Duration <= 0 || ev.Stats.Completed < 1 || ev.Stats.P50 <= 0 {
			t.Fatalf("incoherent event snapshot: %+v", ev)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no event delivered")
	}
}

// TestEngineShardedStep pins the sharded step against the in-process
// references: with two cores and a full batch of eight mixed score and
// greedy-generate requests, steps split across both shards, and every result
// still matches eval.ContinuationLogProb or Model.Generate.
func TestEngineShardedStep(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	m := testModel(9)
	rng := rand.New(rand.NewSource(10))
	tokens := func(n int) []int {
		tk := make([]int, n)
		for i := range tk {
			tk[i] = rng.Intn(m.Cfg.VocabSize)
		}
		return tk
	}
	reqs := make([]Request, 8)
	for i := range reqs {
		if i%2 == 0 {
			reqs[i] = Request{Prompt: tokens(3 + 2*i), Cont: tokens(2 + i)}
		} else {
			reqs[i] = Request{Prompt: tokens(1 + i), MaxNew: 4 + i}
		}
	}
	// In-process references first: the engine owns the model once started.
	wantLP := make([]float64, len(reqs))
	wantTok := make([][]int, len(reqs))
	for i, r := range reqs {
		if len(r.Cont) > 0 {
			wantLP[i] = eval.ContinuationLogProb(m, r.Prompt, r.Cont)
		} else {
			wantTok[i] = m.Generate(nil, r.Prompt, r.MaxNew, 0)
		}
	}

	e := newEngine(m, Config{MaxBatch: 8, MaxSeq: 64})
	if len(e.shards) != 2 {
		t.Fatalf("engine at GOMAXPROCS 2 built %d shards, want 2", len(e.shards))
	}
	// Queue every request before the scheduler starts, so its first step
	// admits the whole batch.
	chans := make([]<-chan Result, len(reqs))
	for i, r := range reqs {
		ch, err := e.Submit(r)
		if err != nil {
			t.Fatal(err)
		}
		chans[i] = ch
	}
	go e.loop()
	defer e.Close()

	for i, ch := range chans {
		res := <-ch
		if res.Err != nil {
			t.Fatalf("request %d: %v", i, res.Err)
		}
		if len(reqs[i].Cont) > 0 {
			if d := math.Abs(res.LogProb - wantLP[i]); d > 1e-4 {
				t.Fatalf("request %d: served score %g, in-process %g", i, res.LogProb, wantLP[i])
			}
			continue
		}
		if len(res.Tokens) != len(wantTok[i]) {
			t.Fatalf("request %d: %d tokens, want %d", i, len(res.Tokens), len(wantTok[i]))
		}
		for j := range res.Tokens {
			if res.Tokens[j] != wantTok[i][j] {
				t.Fatalf("request %d token %d: served %d, in-process %d", i, j, res.Tokens[j], wantTok[i][j])
			}
		}
	}
	e.Close() // the loop has exited: the shard counters are final
	if e.shards[1].steps == 0 {
		t.Fatal("the second shard never ran a step")
	}
}

// TestEngineShardedStepZeroAlloc asserts that a warm steady-state decode
// step sharded across two cores performs zero heap allocations. It counts
// runtime.MemStats.Mallocs, which is process-wide, so the shard workers'
// allocations count too (testing.AllocsPerRun would pin GOMAXPROCS to 1 and
// leave the step on one shard).
func TestEngineShardedStepZeroAlloc(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	m := testModel(11)
	const maxBatch, maxNew = 8, 24
	e := newEngine(m, Config{MaxBatch: maxBatch, MaxSeq: 64})
	e.startShards()
	defer e.stopShards()
	free := make([]*nn.DecodeState, maxBatch)
	for i := range free {
		free[i] = m.NewDecodeState(e.cfg.MaxSeq)
	}
	fail := func(_ *pending, err error) { t.Fatalf("request rejected: %v", err) }

	// wave runs one full batch of identically shaped sampled generations to
	// completion and returns the heap allocations of its steady-state decode
	// steps: admission, the prefill step and the retiring step are excluded.
	wave := func() uint64 {
		pend := make([]*pending, maxBatch)
		active := make([]*seqSlot, maxBatch)
		for i := range pend {
			pend[i] = &pending{
				req:      Request{Prompt: []int{1 + i, 2, 3}, MaxNew: maxNew, Seed: int64(i), Opts: nn.SampleOpts{Temperature: 1}},
				res:      make(chan Result, 1),
				enqueued: time.Now(),
			}
			active[i] = e.admit(pend[i], &free, fail)
		}
		active = e.step(active, &free) // prefill
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for k := 2; k < maxNew; k++ {
			active = e.step(active, &free)
		}
		runtime.ReadMemStats(&after)
		for len(active) > 0 {
			active = e.step(active, &free)
		}
		for _, p := range pend {
			if res := <-p.res; res.Err != nil || len(res.Tokens) != maxNew {
				t.Fatalf("generation returned %d tokens, err %v", len(res.Tokens), res.Err)
			}
		}
		return after.Mallocs - before.Mallocs
	}
	wave()
	wave()
	if n := wave(); n != 0 {
		t.Fatalf("steady-state sharded decode steps allocated %d times, want 0", n)
	}
	if e.shards[1].steps == 0 {
		t.Fatal("the second shard never ran a step")
	}
}
