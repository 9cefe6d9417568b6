// Quickstart: federated pre-training of a small decoder-only LM with the
// Photon recipe (FedAvg + small local batches + high learning rate) through
// the Job API — live round telemetry while training runs, then sampling
// from the trained model.
package main

import (
	"context"
	"fmt"
	"log"
	"sync"

	"photon"
)

func main() {
	fmt.Println("Photon quickstart: 4 clients, IID C4-like shards, FedAvg")

	job := photon.NewJob(
		photon.WithModel(photon.SizeTiny),
		photon.WithClients(4),
		photon.WithRounds(15),
		photon.WithLocalSteps(16),
		photon.WithBatchSize(4), // the hardware-determined small batch of the recipe
		photon.WithMaxLR(3e-3),
		photon.WithServerOptimizer("fedavg"),
	)

	// Events streams per-round stats while Run is training.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		fmt.Println("\nround  clients  val-perplexity")
		for ev := range job.Events() {
			fmt.Printf("%5d  %7d  %14.2f\n", ev.Round, ev.Clients, ev.ValPPL)
		}
	}()

	res, err := job.Run(context.Background())
	wg.Wait()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfinal perplexity: %.2f over a %d-parameter model\n",
		res.FinalPerplexity, res.NumParams())

	fmt.Println("\nsampled continuation of prompt [1 2 3]:")
	fmt.Println(res.Generate(7, []int{1, 2, 3}, 24, 0.8))
}
