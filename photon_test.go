package photon

import (
	"context"
	"math"
	"path/filepath"
	"sync"
	"testing"

	"photon/internal/ckpt"
)

// runJob runs a job to completion on a background context.
func runJob(opts ...JobOption) (*Result, error) {
	return NewJob(opts...).Run(context.Background())
}

func TestPretrainDefaultsConverge(t *testing.T) {
	res, err := runJob(WithRounds(8))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats) != 8 {
		t.Fatalf("want 8 rounds of stats, got %d", len(res.Stats))
	}
	if res.FinalPerplexity >= 55 {
		t.Fatalf("default run did not learn: ppl %v", res.FinalPerplexity)
	}
	if res.NumParams() < 1000 {
		t.Fatalf("model too small: %d params", res.NumParams())
	}
}

func TestPretrainUnknownSize(t *testing.T) {
	if _, err := runJob(WithModel("enormous")); err == nil {
		t.Fatal("unknown size accepted")
	}
	if _, err := ModelConfig(Size7B); err != nil {
		t.Fatal(err)
	}
}

func TestPretrainServerOptimizers(t *testing.T) {
	for _, s := range []ServerOptimizer{FedAvg, FedMom, DiLoCo} {
		res, err := runJob(WithRounds(2), WithServerOptimizer(string(s)))
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if len(res.Stats) != 2 {
			t.Fatalf("%s: %d stats", s, len(res.Stats))
		}
	}
	if _, err := runJob(WithServerOptimizer("adamw")); err == nil {
		t.Fatal("invalid server optimizer accepted")
	}
}

func TestPretrainHeterogeneous(t *testing.T) {
	res, err := runJob(WithRounds(4), WithDataSource("pile"))
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalPerplexity >= 64 {
		t.Fatalf("heterogeneous run did not learn: %v", res.FinalPerplexity)
	}
}

func TestPretrainCheckpointAndGenerate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.ckpt")
	res, err := runJob(WithRounds(3), WithCheckpoint(path))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ckpt.Load(path); err != nil {
		t.Fatalf("checkpoint unreadable: %v", err)
	}
	toks := res.Generate(7, []int{1, 2, 3}, 12, 0.8)
	if len(toks) != 12 {
		t.Fatalf("generated %d tokens", len(toks))
	}
}

func TestPretrainCentralized(t *testing.T) {
	res, err := runJob(WithBackend(BackendCentralized), WithSteps(120))
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalPerplexity >= 50 {
		t.Fatalf("centralized baseline did not learn: %v", res.FinalPerplexity)
	}
	if _, err := runJob(WithBackend(BackendCentralized), WithModel("nope")); err == nil {
		t.Fatal("unknown size accepted")
	}
	if _, err := runJob(WithBackend(BackendCentralized), WithWorkers(100)); err == nil {
		t.Fatal("too many workers accepted")
	}
}

func TestPlanDeployment(t *testing.T) {
	plans, err := PlanDeployment(Size125M, nil, 512, 2, true, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != 3 {
		t.Fatalf("want 3 topology plans, got %d", len(plans))
	}
	var selected *TopologyPlan
	for i := range plans {
		if plans[i].Selected {
			if selected != nil {
				t.Fatal("multiple plans selected")
			}
			selected = &plans[i]
		}
	}
	if selected == nil {
		t.Fatal("no plan selected")
	}
	if selected.Topology != "RAR" {
		t.Fatalf("unconstrained deployment should pick RAR, got %s", selected.Topology)
	}

	// Privacy constraint forces PS.
	plans, err = PlanDeployment(Size125M, nil, 512, 2, false, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range plans {
		if p.Selected && p.Topology != "PS" {
			t.Fatalf("privacy-constrained deployment picked %s", p.Topology)
		}
		if p.Topology != "PS" && p.RuledOutReason == "" {
			t.Fatalf("%s should be ruled out under privacy constraints", p.Topology)
		}
	}

	// Dropout risk excludes RAR.
	plans, err = PlanDeployment(Size125M, nil, 512, 2, true, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range plans {
		if p.Topology == "RAR" && p.RuledOutReason == "" {
			t.Fatal("RAR should be ruled out under dropout risk")
		}
	}

	if _, err := PlanDeployment(Size125M, nil, 0, 2, true, false); err == nil {
		t.Fatal("invalid localSteps accepted")
	}
}

func TestPlanDeploymentCommScaling(t *testing.T) {
	// 7B comm time must dwarf 125M comm time at the same topology.
	small, err := PlanDeployment(Size125M, nil, 512, 2, true, false)
	if err != nil {
		t.Fatal(err)
	}
	big, err := PlanDeployment(Size7B, nil, 512, 0.032, true, false)
	if err != nil {
		t.Fatal(err)
	}
	if !(big[0].CommSeconds > 10*small[0].CommSeconds) {
		t.Fatalf("7B comm %v should dwarf 125M comm %v", big[0].CommSeconds, small[0].CommSeconds)
	}
	if math.IsNaN(big[0].CommShare) || big[0].CommShare <= 0 || big[0].CommShare >= 1 {
		t.Fatalf("bad comm share %v", big[0].CommShare)
	}
}

func TestNetworkedAggregatorAndClients(t *testing.T) {
	const clients = 2
	resCh := make(chan *Result, 1)
	errCh := make(chan error, 1)
	go func() {
		res, err := runJob(WithBackend(BackendAggregator), WithAddr("127.0.0.1:39077"),
			WithRounds(3), WithExpectClients(clients), WithCodec("flate"))
		resCh <- res
		errCh <- err
	}()

	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Retry until the aggregator is listening.
			for attempt := 0; attempt < 50; attempt++ {
				_, err := runJob(WithBackend(BackendClient), WithAddr("127.0.0.1:39077"),
					WithClientID(string(rune('a'+i))), WithShard(i), WithCodec("flate"))
				if err == nil {
					return
				}
			}
			t.Errorf("client %d never joined", i)
		}(i)
	}
	wg.Wait()
	res := <-resCh
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if len(res.Stats) != 3 {
		t.Fatalf("want 3 rounds, got %d", len(res.Stats))
	}
	for _, s := range res.Stats {
		if s.Clients != clients {
			t.Fatalf("round %d: %d clients", s.Round, s.Clients)
		}
	}
}

func TestJoinAsClientValidation(t *testing.T) {
	client := []JobOption{WithBackend(BackendClient), WithAddr("127.0.0.1:1")}
	if _, err := runJob(append(client, WithShard(99), WithClientID("x"))...); err == nil {
		t.Fatal("bad shard accepted")
	}
	if _, err := runJob(client...); err == nil {
		t.Fatal("missing ID accepted")
	}
	// ExpectClients validation fails before binding a socket.
	if _, err := runJob(WithBackend(BackendAggregator), WithAddr("127.0.0.1:0")); err == nil {
		t.Fatal("ExpectClients=0 accepted")
	}
}
