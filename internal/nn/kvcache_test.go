package nn

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// decodeCfg is a multi-layer configuration so the equivalence tests cover
// cross-layer cache propagation, not just a single attention.
func decodeCfg() Config {
	return Config{
		VocabSize: 61,
		Dim:       24,
		Heads:     3,
		Blocks:    3,
		ExpRatio:  2,
		SeqLen:    16,
	}
}

// maxAbsDiff returns the largest elementwise |a-b|.
func maxAbsDiff(a, b []float32) float64 {
	var m float64
	for i := range a {
		if d := math.Abs(float64(a[i] - b[i])); d > m {
			m = d
		}
	}
	return m
}

// TestDecodeMatchesFullRecompute is the tentpole equivalence: KV-cached
// token-by-token decoding must produce (within float tolerance — the decode
// and training kernels sum in different orders) the same next-token logits as
// a full recompute of the growing prefix through Logits at every step.
func TestDecodeMatchesFullRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	m := NewModel(decodeCfg(), rng)

	seq := make([]int, 12)
	for i := range seq {
		seq[i] = rng.Intn(m.Cfg.VocabSize)
	}

	st := m.NewDecodeState(len(seq))
	for n := 1; n <= len(seq); n++ {
		// Cached path: feed one new token, read the last row's logits.
		h := m.Decode([]*DecodeState{st}, [][]int{seq[n-1 : n]})
		got := m.DecodeLogits(h, []int{h.Rows - 1})

		// Reference: full recompute of the whole prefix.
		want := m.Logits([][]int{seq[:n]})
		wrow := want.Row(n - 1)

		if d := maxAbsDiff(got.Row(0), wrow); d > 1e-4 {
			t.Fatalf("step %d: cached logits diverge from recompute by %g", n, d)
		}
	}
	if st.Len() != len(seq) {
		t.Fatalf("cache length %d after %d tokens", st.Len(), len(seq))
	}
}

// TestDecodePrefillMatchesFullForward checks that a one-shot multi-token
// prefill produces the same hidden rows as the training forward, for every
// position at once.
func TestDecodePrefillMatchesFullForward(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	m := NewModel(decodeCfg(), rng)

	seq := make([]int, 10)
	for i := range seq {
		seq[i] = rng.Intn(m.Cfg.VocabSize)
	}
	st := m.NewDecodeState(len(seq))
	h := m.Decode([]*DecodeState{st}, [][]int{seq})
	rows := make([]int, len(seq))
	for i := range rows {
		rows[i] = i
	}
	got := m.DecodeLogits(h, rows)
	want := m.Logits([][]int{seq})
	if d := maxAbsDiff(got.Data, want.Data); d > 1e-4 {
		t.Fatalf("prefill logits diverge from full forward by %g", d)
	}
}

// TestDecodeMixedBatch runs a continuous-batching-shaped step — one sequence
// prefilling its whole prompt while another decodes a single token over an
// existing cache — and checks both against independent single-sequence
// recomputes. This pins the row-offset bookkeeping across ragged batches.
func TestDecodeMixedBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	m := NewModel(decodeCfg(), rng)
	V := m.Cfg.VocabSize

	seqA := []int{3, 17, 42, 8, 55, 21, 9}
	seqB := []int{50, 2, 33, 14}

	// Warm sequence A's cache over all but its last token.
	stA := m.NewDecodeState(16)
	m.Decode([]*DecodeState{stA}, [][]int{seqA[:len(seqA)-1]})
	stB := m.NewDecodeState(16)

	// Mixed step: A decodes one token, B prefills its whole prompt.
	h := m.Decode([]*DecodeState{stA, stB}, [][]int{seqA[len(seqA)-1:], seqB})
	logits := m.DecodeLogits(h, []int{0, h.Rows - 1})

	wantA := m.Logits([][]int{seqA})
	wantB := m.Logits([][]int{seqB})
	if d := maxAbsDiff(logits.Row(0), wantA.Row(len(seqA)-1)); d > 1e-4 {
		t.Fatalf("decoding sequence diverges by %g in mixed batch", d)
	}
	if d := maxAbsDiff(logits.Row(1), wantB.Row(len(seqB)-1)); d > 1e-4 {
		t.Fatalf("prefilling sequence diverges by %g in mixed batch", d)
	}
	if stA.Len() != len(seqA) || stB.Len() != len(seqB) {
		t.Fatalf("cache lengths %d/%d, want %d/%d", stA.Len(), stB.Len(), len(seqA), len(seqB))
	}
	_ = V
}

// TestDecodeStateReuse pins Reset/Truncate: a reset state re-decodes a new
// sequence from scratch, and a truncated state continues identically to a
// fresh cache fed the retained prefix.
func TestDecodeStateReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	m := NewModel(decodeCfg(), rng)

	seq := []int{5, 9, 13, 2, 44, 7}
	st := m.NewDecodeState(16)
	m.Decode([]*DecodeState{st}, [][]int{{11, 23, 31}})
	st.Reset()
	h := m.Decode([]*DecodeState{st}, [][]int{seq})
	got := m.DecodeLogits(h, []int{h.Rows - 1}).Clone()

	fresh := m.NewDecodeState(16)
	h2 := m.Decode([]*DecodeState{fresh}, [][]int{seq})
	// Clone: the workspace-resident logits are invalidated by the next Decode.
	want := m.DecodeLogits(h2, []int{h2.Rows - 1}).Clone()
	if d := maxAbsDiff(got.Data, want.Data); d != 0 {
		t.Fatalf("reset state diverges from fresh state by %g", d)
	}

	// Truncate back to a prefix and re-decode the suffix. Row counts differ
	// from the fresh path (3 vs 6), so the row-paired matmul micro-kernels
	// sum in a different order — tight tolerance, not bitwise equality.
	st.Truncate(3)
	h3 := m.Decode([]*DecodeState{st}, [][]int{seq[3:]})
	got3 := m.DecodeLogits(h3, []int{h3.Rows - 1})
	if d := maxAbsDiff(got3.Data, want.Data); d > 1e-6 {
		t.Fatalf("truncated state diverges by %g", d)
	}
}

// TestDecodeOverflowPanics pins the cache-capacity check.
func TestDecodeOverflowPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	m := NewModel(decodeCfg(), rng)
	st := m.NewDecodeState(4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on cache overflow")
		}
	}()
	m.Decode([]*DecodeState{st}, [][]int{{1, 2, 3, 4, 5}})
}

// TestDecodeStepZeroAlloc is the acceptance criterion for the workspace
// size-class retention policy: after warming the power-of-two buckets by
// decoding a sequence to the cache capacity once, a steady-state
// single-sequence decode step performs zero heap allocations even though its
// scratch shapes keep growing. It covers both the model-owned decoder behind
// Model.Decode and a standalone one from NewDecoder.
func TestDecodeStepZeroAlloc(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rng := rand.New(rand.NewSource(61))
	m := NewModel(decodeCfg(), rng)
	const maxSeq = 64

	d := m.NewDecoder()
	for _, tc := range []struct {
		name string
		run  func(states []*DecodeState, tokens [][]int, rows []int)
	}{
		{"Model.Decode", func(s []*DecodeState, tk [][]int, r []int) { m.DecodeLogits(m.Decode(s, tk), r) }},
		{"NewDecoder", func(s []*DecodeState, tk [][]int, r []int) { d.Logits(d.Decode(s, tk), r) }},
	} {
		st := m.NewDecodeState(maxSeq)
		tok := []int{1}
		states := []*DecodeState{st}
		tokens := [][]int{tok}
		rows := []int{0}

		// Warm every size-class bucket: decode to capacity once.
		for i := 0; i < maxSeq; i++ {
			tok[0] = i % m.Cfg.VocabSize
			tc.run(states, tokens, rows)
		}
		st.Reset()
		pos := 0
		step := func() {
			tok[0] = pos % m.Cfg.VocabSize
			tc.run(states, tokens, rows)
			pos++
			if pos == maxSeq {
				st.Reset()
				pos = 0
			}
		}
		step()
		step()
		if allocs := testing.AllocsPerRun(2*maxSeq, step); allocs != 0 {
			t.Fatalf("%s: steady-state decode step allocates %.1f times", tc.name, allocs)
		}
	}
}

// TestConcurrentDecoders pins the sharing contract of NewDecoder: two
// decoders on one model, decoding disjoint mixed prefill/decode batches on
// two goroutines at once, produce the logits of one decoder running the
// union of both batches. Under -race it also proves the decode path only
// reads the model.
func TestConcurrentDecoders(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	m := NewModel(decodeCfg(), rand.New(rand.NewSource(71)))
	rng := rand.New(rand.NewSource(72))

	// chunks[s][step] is sequence s's new-token count at that step: every
	// step mixes prefilling sequences with single-token decodes.
	chunks := [][]int{
		{5, 1, 1, 1, 1},
		{1, 4, 1, 1, 3},
		{3, 1, 6, 1, 1},
		{7, 1, 1, 2, 1},
	}
	feeds := make([][][]int, len(chunks))
	for s, cs := range chunks {
		for _, n := range cs {
			tk := make([]int, n)
			for i := range tk {
				tk[i] = rng.Intn(m.Cfg.VocabSize)
			}
			feeds[s] = append(feeds[s], tk)
		}
	}
	steps := len(chunks[0])

	// run decodes sequences seqs with d, step by step, and returns every new
	// row's logits per sequence and step.
	run := func(d *Decoder, seqs []int) map[int][][]float32 {
		states := make([]*DecodeState, len(seqs))
		for i := range states {
			states[i] = m.NewDecodeState(32)
		}
		out := make(map[int][][]float32)
		toks := make([][]int, len(seqs))
		for step := 0; step < steps; step++ {
			var rows []int
			off := 0
			for i, s := range seqs {
				toks[i] = feeds[s][step]
				for r := range toks[i] {
					rows = append(rows, off+r)
				}
				off += len(toks[i])
			}
			logits := d.Logits(d.Decode(states, toks), rows)
			r := 0
			for i, s := range seqs {
				for range toks[i] {
					out[s] = append(out[s], append([]float32(nil), logits.Row(r)...))
					r++
				}
			}
		}
		return out
	}

	want := run(m.NewDecoder(), []int{0, 1, 2, 3})
	var got [2]map[int][][]float32
	var wg sync.WaitGroup
	for g, seqs := range [][]int{{0, 1}, {2, 3}} {
		wg.Add(1)
		go func(g int, seqs []int) {
			defer wg.Done()
			got[g] = run(m.NewDecoder(), seqs)
		}(g, seqs)
	}
	wg.Wait()
	for g, seqs := range [][]int{{0, 1}, {2, 3}} {
		for _, s := range seqs {
			if len(got[g][s]) != len(want[s]) {
				t.Fatalf("sequence %d: %d logit rows, want %d", s, len(got[g][s]), len(want[s]))
			}
			for r := range want[s] {
				if d := maxAbsDiff(got[g][s][r], want[s][r]); d > 1e-5 {
					t.Fatalf("sequence %d row %d: concurrent decoder diverges from the union batch by %g", s, r, d)
				}
			}
		}
	}
}

// TestDecodeKeepsBackwardCaches pins that decoding never writes the layers'
// training caches: a Decode between the forward/loss and the backward of a
// training step leaves the gradients bit-identical to the step without it.
func TestDecodeKeepsBackwardCaches(t *testing.T) {
	m := NewModel(decodeCfg(), rand.New(rand.NewSource(81)))
	rng := rand.New(rand.NewSource(82))
	var b Batch
	for i := 0; i < 2; i++ {
		in, tg := make([]int, m.Cfg.SeqLen), make([]int, m.Cfg.SeqLen)
		for t := range in {
			in[t], tg[t] = rng.Intn(m.Cfg.VocabSize), rng.Intn(m.Cfg.VocabSize)
		}
		b.Inputs, b.Targets = append(b.Inputs, in), append(b.Targets, tg)
	}
	grads := func(decode bool) []float32 {
		m.Params().ZeroGrads()
		h, dlogits, _ := m.forwardLoss(b)
		if decode {
			st := m.NewDecodeState(16)
			m.Decode([]*DecodeState{st}, [][]int{{4, 9, 13, 2, 40}})
			m.Decode([]*DecodeState{st}, [][]int{{7}})
		}
		m.backward(h, dlogits)
		var g []float32
		for _, p := range m.Params() {
			g = append(g, p.Grad...)
		}
		return g
	}
	want := grads(false)
	got := grads(true)
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("gradient %d is %g after an interleaved Decode, %g without", i, got[i], want[i])
		}
	}
}
