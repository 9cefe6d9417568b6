package nn

import (
	"math/rand"
	"testing"
)

// The workspace must bound what it retains across variable shapes: Generate
// runs a forward per token with a growing context, and an unbounded
// size-keyed arena would strand a full activation set under every distinct
// sequence length (O(T³) floats) for the model's lifetime.
func TestWorkspaceBoundedRetention(t *testing.T) {
	ws := NewWorkspace()
	for tLen := 1; tLen <= 300; tLen++ {
		ws.Take(tLen, 64)
		ws.Take(tLen, tLen) // probs-like quadratic buffer
		ws.Reset()
		if ws.retainedElems() > evictFactor*ws.maxStep {
			t.Fatalf("len %d: retained %d exceeds %d×maxStep %d",
				tLen, ws.retainedElems(), evictFactor, ws.maxStep)
		}
	}
	if ws.retainedElems() > evictFactor*300*(64+300) {
		t.Fatalf("final retention %d not bounded by working-set multiple", ws.retainedElems())
	}
}

// Generation must not grow the model's footprint monotonically, and training
// after generation must return to the allocation-free steady state.
func TestGenerateThenTrainStillZeroAlloc(t *testing.T) {
	cfg := Config{Name: "gen", Blocks: 2, Dim: 32, Heads: 2, ExpRatio: 4,
		VocabSize: 64, SeqLen: 48, Beta1: 0.9, Beta2: 0.95}
	rng := rand.New(rand.NewSource(9))
	m := NewModel(cfg, rng)
	m.Generate(rng, []int{1, 2, 3}, 60, 0.8) // shape churn: contexts 3..48
	batch := testBatch(rng, cfg, 2)
	m.Params().ZeroGrads()
	m.ForwardBackward(batch)
	m.ForwardBackward(batch)
	if allocs := testing.AllocsPerRun(10, func() {
		m.Params().ZeroGrads()
		m.ForwardBackward(batch)
	}); allocs != 0 {
		t.Fatalf("post-generate train step allocates %v, want 0", allocs)
	}
}

// ReleaseActivations must leave nothing in the arena and no backward cache
// pointing into it, and the model must still train exactly as before: the
// next ForwardBackward is bit-identical to a fresh model's, and after one
// warm step training is allocation-free again.
func TestReleaseActivations(t *testing.T) {
	cfg := Config{Name: "rel", Blocks: 2, Dim: 32, Heads: 2, ExpRatio: 4,
		VocabSize: 64, SeqLen: 16, Beta1: 0.9, Beta2: 0.95}
	m := NewModel(cfg, rand.New(rand.NewSource(4)))
	rng := rand.New(rand.NewSource(5))
	batch := testBatch(rng, cfg, 2)
	m.ForwardBackward(batch)
	m.Loss(testBatch(rng, cfg, 3)) // a second shape parks buffers in the free lists
	m.ForwardBackward(batch)

	m.ReleaseActivations()
	if r, u := m.ws.retainedElems(), len(m.ws.used); r != 0 || u != 0 {
		t.Fatalf("after release: %d retained elements, %d used matrices; want 0", r, u)
	}
	for n, bucket := range m.ws.free {
		if len(bucket) != 0 {
			t.Fatalf("after release: %d free matrices of %d elements", len(bucket), n)
		}
	}
	for i, b := range m.Blocks {
		if b.LN1.xhat != nil || b.LN2.xhat != nil || b.Act.x != nil || b.FC1.x != nil || b.FC2.x != nil ||
			b.Attn.QKV.x != nil || b.Attn.Out.x != nil || b.Attn.q != nil || b.Attn.k != nil ||
			b.Attn.v != nil || b.Attn.probs != nil {
			t.Fatalf("block %d still caches activations after release", i)
		}
	}
	if m.LNF.xhat != nil {
		t.Fatal("final LayerNorm still caches activations after release")
	}

	fresh := NewModel(cfg, rand.New(rand.NewSource(4)))
	m.Params().ZeroGrads()
	got, want := m.ForwardBackward(batch), fresh.ForwardBackward(batch)
	if got != want {
		t.Fatalf("loss after release %v, fresh model %v", got, want)
	}
	for i, p := range m.Params() {
		for j, g := range p.Grad {
			if g != fresh.Params()[i].Grad[j] {
				t.Fatalf("%s grad[%d] after release %v, fresh model %v", p.Name, j, g, fresh.Params()[i].Grad[j])
			}
		}
	}
	// AllocsPerRun's own warm-up run is the second step after the release.
	if allocs := testing.AllocsPerRun(10, func() {
		m.Params().ZeroGrads()
		m.ForwardBackward(batch)
	}); allocs != 0 {
		t.Fatalf("train step after release allocates %v after one warm step, want 0", allocs)
	}
}
