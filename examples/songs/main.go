// Song year prediction: when input selection can hurt.
//
// Every song yields a training example (no wasted extraction) and the
// learner is a single global ridge regressor evaluated on an iid holdout.
// In that combination any non-uniform sampling — every bandit policy —
// biases the least-squares fit toward the over-sampled clusters, so the
// scan wins: there is nothing to select *for* and a statistical price to
// selecting at all. This is the cautionary boundary of the paper's idea;
// the benchmark suite's song task instead pairs the same corpus with a
// per-class learner (Gaussian naive Bayes + macro-F1), where sampling
// skew cannot bias other classes and finding rare fuzzy genres pays
// (~1.3-1.7x).
//
// Run with:
//
//	go run ./examples/songs [-n 6000]
package main

import (
	"flag"
	"fmt"
	"log"

	"zombie"
)

func main() {
	n := flag.Int("n", 6000, "corpus size (full evaluation uses 20000)")
	flag.Parse()

	gen := zombie.DefaultSongConfig()
	gen.N = *n
	inputs, err := zombie.GenerateSongs(gen, zombie.NewRNG(20))
	if err != nil {
		log.Fatal(err)
	}
	store := zombie.NewMemStore(inputs)

	groups, err := zombie.BuildIndex(store, zombie.IndexKMeansNumeric, 32, 21)
	if err != nil {
		log.Fatal(err)
	}

	feature := zombie.NewSongFeature(1, gen)
	task, err := zombie.NewTask("songs", store, feature,
		func(f zombie.FeatureFunc) zombie.Model { return zombie.NewRidgeClosed(f.Dim(), 1.0) },
		zombie.MetricNegRMSE, 0, zombie.CostModel{}, zombie.TaskOptions{}, zombie.NewRNG(22))
	if err != nil {
		log.Fatal(err)
	}

	// Scan reference.
	ref, err := zombie.NewEngine(zombie.Config{Mode: zombie.ModeScanRandom, Seed: 23})
	if err != nil {
		log.Fatal(err)
	}
	scan, err := ref.Run(task, nil)
	if err != nil {
		log.Fatal(err)
	}
	// Target: RMSE within 5% of the final (quality is -RMSE).
	target := 1.05 * scan.FinalQuality
	scanInputs, _, _ := scan.InputsToQuality(target)
	fmt.Printf("scan: final RMSE %.2f years; within 5%% after %d songs\n\n",
		-scan.FinalQuality, scanInputs)

	fmt.Printf("%-18s %8s %10s %9s\n", "policy", "inputs", "final-rmse", "vs-scan")
	for _, policy := range []string{"eps-greedy:0.1", "eps-greedy:0.2", "ucb1:1", "thompson", "round-robin", "random"} {
		eng, err := zombie.NewEngine(zombie.Config{Seed: 23, Policy: zombie.PolicySpec(policy)})
		if err != nil {
			log.Fatal(err)
		}
		res, err := eng.Run(task, groups)
		if err != nil {
			log.Fatal(err)
		}
		inputs, _, ok := res.InputsToQuality(target)
		speed := "n/a"
		if ok && inputs > 0 {
			speed = fmt.Sprintf("%.2fx", float64(scanInputs)/float64(inputs))
		}
		fmt.Printf("%-18s %8d %10.2f %9s\n", policy, inputs, -res.FinalQuality, speed)
	}
	fmt.Println("\nevery policy loses here: a global least-squares fit on a bandit-skewed")
	fmt.Println("sample is biased, so uniform sampling is optimal. selection pays only")
	fmt.Println("when usefulness is skewed AND the learner tolerates sampling skew —")
	fmt.Println("see the benchmark suite's macro-F1 song task and the image/wiki tasks.")
}
