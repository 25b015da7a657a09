// Wikipedia extraction session: the paper's motivating workload.
//
// An engineer iterates on feature code for an information-extraction task
// over a wiki-like crawl. Each iteration re-evaluates the corpus; the
// example replays the same 8-version session twice — under the status-quo
// full random scan and under Zombie (bandit selection + early stopping) —
// and prints the per-iteration and total engineer wait, reproducing the
// shape of the paper's 8-hours-to-5-hours claim.
//
// Run with:
//
//	go run ./examples/wikipedia [-n 6000]
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"zombie"
)

func main() {
	n := flag.Int("n", 6000, "corpus size (full evaluation uses 20000)")
	flag.Parse()

	gen := zombie.DefaultWikiConfig()
	gen.N = *n
	inputs, err := zombie.GenerateWiki(gen, zombie.NewRNG(10))
	if err != nil {
		log.Fatal(err)
	}
	store := zombie.NewMemStore(inputs)

	// Index once; every iteration of the session reuses it.
	start := time.Now()
	groups, err := zombie.BuildIndex(store, zombie.IndexKMeansText, 32, 11)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("indexed %d pages into %d groups in %s\n\n",
		groups.Len(), groups.K(), time.Since(start).Round(time.Millisecond))

	// The session: eight successive versions of the extraction feature
	// code (wider hash spaces, marker boosts, bigrams).
	versions := make([]zombie.FeatureFunc, 8)
	for i := range versions {
		versions[i] = zombie.NewWikiFeature(i + 1)
	}

	// Each page "costs" 150ms of parsing/extraction; the quality metric is
	// F1 of the extracted entity class on a held-out labeled set.
	task, err := zombie.NewTask("wiki", store, versions[0],
		func(f zombie.FeatureFunc) zombie.Model { return zombie.NewMultinomialNB(f.Dim(), 2, 1) },
		zombie.MetricF1, 1,
		zombie.CostModel{PerInput: 150 * time.Millisecond},
		zombie.TaskOptions{}, zombie.NewRNG(12))
	if err != nil {
		log.Fatal(err)
	}

	// Zombie: bandit selection over the groups with early stopping. The
	// status-quo engineer instead scans the whole corpus every version.
	cfg := zombie.Config{
		Policy: "eps-greedy:0.1",
		Seed:   13,
		EarlyStop: zombie.EarlyStopConfig{
			Enabled:        true,
			Window:         8,
			SlopeThreshold: 0.002,
			Patience:       2,
			MinInputs:      400,
		},
	}
	zomEng, err := zombie.NewEngine(cfg)
	if err != nil {
		log.Fatal(err)
	}
	cfg.Mode = zombie.ModeScanRandom
	cfg.EarlyStop.Enabled = false
	scanEng, err := zombie.NewEngine(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// The engineer's wait: processing plus 10 minutes of reading results
	// and editing code per version, and for Zombie the one-time index.
	const think = 10 * time.Minute
	scanWait := time.Duration(len(versions)) * think
	zomWait := scanWait + groups.BuildTime
	scanInputs, zomInputs := 0, 0
	fmt.Printf("%-10s %22s %22s\n", "version", "scan (inputs, F1)", "zombie (inputs, F1, stop)")
	for _, v := range versions {
		s, err := scanEng.Run(task.WithFeature(v), groups)
		if err != nil {
			log.Fatal(err)
		}
		z, err := zomEng.Run(task.WithFeature(v), groups)
		if err != nil {
			log.Fatal(err)
		}
		scanWait += s.SimTime
		zomWait += z.SimTime
		scanInputs += s.InputsProcessed
		zomInputs += z.InputsProcessed
		fmt.Printf("%-10s %14d %6.3f %14d %6.3f  %s\n",
			v.Name(), s.InputsProcessed, s.FinalQuality,
			z.InputsProcessed, z.FinalQuality, z.Stop)
	}
	fmt.Println()
	fmt.Printf("scan session:   %s total (%d inputs processed)\n",
		scanWait.Round(time.Minute), scanInputs)
	fmt.Printf("zombie session: %s total (%d inputs processed, index %s)\n",
		zomWait.Round(time.Minute), zomInputs, groups.BuildTime.Round(time.Second))
	fmt.Printf("engineer waits %.1fx less (paper shape: 8h -> 5h)\n",
		float64(scanWait)/float64(zomWait))
}
