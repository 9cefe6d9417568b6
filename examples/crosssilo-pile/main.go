// Cross-silo heterogeneity: eight institutions each hold one distinct
// Pile-like data source (the paper's Section 5.5 setting). The example
// trains the same federation under full and 50% partial participation and
// against an IID control, showing FedAvg's robustness to non-IID data.
// Data distribution is selected via the data source registry: "c4" shards
// one corpus IID, "pile" gives each client a distinct source.
package main

import (
	"context"
	"fmt"
	"log"

	"photon"
)

func run(name string, extra ...photon.JobOption) *photon.Result {
	opts := append([]photon.JobOption{
		photon.WithClients(8),
		photon.WithRounds(20),
		photon.WithLocalSteps(8),
		photon.WithSeed(3),
	}, extra...)
	res, err := photon.NewJob(opts...).Run(context.Background())
	if err != nil {
		log.Fatalf("%s: %v", name, err)
	}
	fmt.Printf("%-28s final ppl %.2f\n", name, res.FinalPerplexity)
	return res
}

func main() {
	fmt.Println("Photon cross-silo heterogeneity (Pile-like sources, 8 clients)")

	rIID := run("IID control", photon.WithDataSource("c4"))
	rFull := run("non-IID, full participation", photon.WithDataSource("pile"))
	rPart := run("non-IID, 50% participation",
		photon.WithDataSource("pile"), photon.WithClientsPerRound(4))
	// Hierarchical control: the same non-IID federation aggregated through
	// four relay groups of two silos each. FedAvg(ηs=1) makes the two-tier
	// mean equal the flat mean, so the curve must track the flat non-IID
	// run — while the parent tier moves 4 pseudo-gradients per round
	// instead of 8 client updates.
	rTier := run("non-IID, 2-tier (4 relays)",
		photon.WithDataSource("pile"), photon.WithTiers(2), photon.WithRelays(4))

	fmt.Println("\nround-by-round validation perplexity:")
	fmt.Println("round   IID    non-IID  non-IID-50%  non-IID-2tier")
	for i := range rIID.Stats {
		fmt.Printf("%5d  %6.1f  %7.1f  %11.1f  %13.1f\n", i+1,
			rIID.Stats[i].ValPPL, rFull.Stats[i].ValPPL,
			rPart.Stats[i].ValPPL, rTier.Stats[i].ValPPL)
	}
	fmt.Println("\nExpected shape (paper Fig. 7): non-IID tracks IID under full")
	fmt.Println("participation; partial participation fluctuates more but converges;")
	fmt.Println("the 2-tier run reproduces the flat non-IID curve (mean of relay")
	fmt.Println("means == flat mean under FedAvg).")
}
