// Quickstart: the smallest complete Zombie program.
//
// It generates a needle-in-a-haystack image corpus, builds an index once,
// and then runs the same feature evaluation two ways — as a random scan
// (the status quo) and through Zombie's bandit — printing how much sooner
// Zombie's quality estimate converges.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"zombie"
)

func main() {
	// 1. A corpus of raw inputs. Real deployments read their own data;
	//    here we synthesize 8,000 "images" where only ~2.5% contain the
	//    object we want to detect.
	gen := zombie.DefaultImageConfig()
	gen.N = 8000
	inputs, err := zombie.GenerateImages(gen, zombie.NewRNG(1))
	if err != nil {
		log.Fatal(err)
	}
	store := zombie.NewMemStore(inputs)

	// 2. Offline: build index groups once. They are reused by every
	//    evaluation run of an engineering session.
	groups, err := zombie.BuildIndex(store, zombie.IndexKMeansNumeric, 32, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("index: %d groups over %d inputs (%s)\n", groups.K(), groups.Len(), groups.Strategy)

	// 3. The task: feature code + incremental learner + quality metric.
	feature := zombie.NewImageFeature(1, gen)
	task, err := zombie.NewTask("quickstart", store, feature,
		func(f zombie.FeatureFunc) zombie.Model { return zombie.NewGaussianNB(f.Dim(), 2, 1e-3) },
		zombie.MetricF1, 1, zombie.CostModel{}, zombie.TaskOptions{}, zombie.NewRNG(3))
	if err != nil {
		log.Fatal(err)
	}

	// 4. One config, two input orders: the bandit and the random scan.
	run := func(mode zombie.Mode) *zombie.Result {
		eng, err := zombie.NewEngine(zombie.Config{Mode: mode, Policy: "eps-greedy:0.1", Seed: 4})
		if err != nil {
			log.Fatal(err)
		}
		res, err := eng.Run(task, groups)
		if err != nil {
			log.Fatal(err)
		}
		return res
	}
	z, s := run(zombie.ModeZombie), run(zombie.ModeScanRandom)

	fmt.Println("zombie:", z.Summary())
	fmt.Println("scan:  ", s.Summary())

	target := 0.9 * min(z.FinalQuality, s.FinalQuality)
	zi, _, _ := z.InputsToQuality(target)
	si, _, _ := s.InputsToQuality(target)
	fmt.Printf("inputs to F1 >= %.3f: zombie=%d scan=%d (%.1fx fewer)\n",
		target, zi, si, float64(si)/float64(max(zi, 1)))
}
