package fed

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"photon/internal/data"
	"photon/internal/link"
	"photon/internal/nn"
	"photon/internal/opt"
	"photon/internal/testutil"
)

// mallocs returns the number of heap allocations f performs.
func mallocs(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// A finished one-shot session must not pin its client's activation arenas:
// when ServeClient returns, every model the client trains — a plain
// replica, a silo's sub-nodes and a DDP group's replicas — has released its
// arena, so the next training step rebuilds it (and allocates). That step
// is bit-identical to a fresh model's with the same weights, and training is
// allocation-free again once it is warm.
func TestServeClientReleasesActivations(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	cfg := tinyCfg()
	l, err := link.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	src := data.C4Like(cfg.VocabSize)
	newOpt := func() opt.Optimizer { return opt.NewAdamW(cfg.Beta1, cfg.Beta2, 0.01) }
	ddp, err := NewDDPClient("ddp", cfg, []data.Stream{data.NewShard(src, 0, 7), data.NewShard(src, 1, 7)}, newOpt)
	if err != nil {
		t.Fatal(err)
	}
	plain := makeClients(t, cfg, 1)[0]
	silo := &Client{ID: "silo", SubNodes: makeClients(t, cfg, 2)}
	clients := []*Client{plain, silo, ddp}

	ctx := context.Background()
	spec := tinySpec()
	errs := make(chan error, len(clients))
	for _, c := range clients {
		go func(c *Client) {
			conn, err := link.Dial(l.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			errs <- ServeClient(ctx, conn, c, spec)
		}(c)
	}
	if _, err := Serve(ctx, l, ServerConfig{
		ModelConfig: cfg, Seed: 11, Rounds: 2, ExpectClients: len(clients), Outer: FedAvg{},
	}); err != nil {
		t.Fatal(err)
	}
	for range clients {
		if err := <-errs; err != nil {
			t.Fatalf("ServeClient: %v", err)
		}
	}

	models := map[string]*nn.Model{"plain": plain.Model}
	for i, node := range silo.SubNodes {
		models["silo node "+string(rune('0'+i))] = node.Model
	}
	for i, m := range ddp.ddp.replicas {
		models["ddp replica "+string(rune('0'+i))] = m
	}
	// The training shape: with a warm arena this step would allocate nothing.
	batch := data.NewShard(src, 2, 7).NextBatch(spec.BatchSize, spec.SeqLen)
	for name, m := range models {
		fresh := nn.NewModel(cfg, rand.New(rand.NewSource(1)))
		if err := fresh.Params().LoadFlat(m.Params().Flatten(nil)); err != nil {
			t.Fatal(err)
		}
		m.Params().ZeroGrads()
		var got float64
		if n := mallocs(func() { got = m.ForwardBackward(batch) }); n == 0 {
			t.Fatalf("%s: first step after the session allocated nothing; its arena was kept", name)
		}
		if want := fresh.ForwardBackward(batch); got != want {
			t.Fatalf("%s: loss after release %v, fresh model %v", name, got, want)
		}
		for i, p := range m.Params() {
			for j, g := range p.Grad {
				if g != fresh.Params()[i].Grad[j] {
					t.Fatalf("%s: %s grad[%d] after release %v, fresh model %v", name, p.Name, j, g, fresh.Params()[i].Grad[j])
				}
			}
		}
		if allocs := testing.AllocsPerRun(5, func() {
			m.Params().ZeroGrads()
			m.ForwardBackward(batch)
		}); allocs != 0 {
			t.Fatalf("%s: warm train step after release allocates %v, want 0", name, allocs)
		}
	}
}
