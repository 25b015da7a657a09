// Image tagging: a needle-in-a-haystack detector, Zombie's best case.
//
// Only ~2.5% of the corpus contains the object of interest, and those
// positives cluster visually. The example shows the full Zombie workflow:
// build and persist an index, run with early stopping, inspect which index
// groups the bandit favored, and quantify the speedup against both the
// random scan and the ground-truth oracle skyline. It also demonstrates a
// custom user-written FeatureFunc built on zombie.FuncCore.
//
// Run with:
//
//	go run ./examples/imagetag [-n 8000]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"

	"zombie"
)

// brightnessFeature is a user-written feature function: the raw descriptor
// plus a "brightness" aggregate (mean of all dimensions). It shows the
// FeatureFunc surface a Zombie user implements for their own data.
type brightnessFeature struct {
	zombie.FuncCore
	baseDim int
}

func newBrightnessFeature(dim int) *brightnessFeature {
	return &brightnessFeature{
		FuncCore: zombie.FuncCore{FuncName: "brightness-v1", FuncDim: dim + 1, Classes: 2},
		baseDim:  dim,
	}
}

// Extract implements zombie.FeatureFunc.
func (b *brightnessFeature) Extract(in *zombie.Input) (zombie.FeatureResult, error) {
	if in.Kind != zombie.NumericKind || len(in.Values) != b.baseDim {
		return zombie.FeatureResult{}, fmt.Errorf("brightness-v1: bad payload on %s", in.ID)
	}
	vals := make([]float64, 0, b.FuncDim)
	vals = append(vals, in.Values...)
	mean := 0.0
	for _, v := range in.Values {
		mean += v
	}
	vals = append(vals, mean/float64(b.baseDim))
	ex := zombie.Example{Features: zombie.DenseVec(vals), Class: in.Truth.Class}
	return zombie.FeatureResult{Example: ex, Produced: true, Useful: in.Truth.Class == 1}, nil
}

func main() {
	n := flag.Int("n", 8000, "corpus size (full evaluation uses 20000)")
	flag.Parse()

	gen := zombie.DefaultImageConfig()
	gen.N = *n
	inputs, err := zombie.GenerateImages(gen, zombie.NewRNG(30))
	if err != nil {
		log.Fatal(err)
	}
	store := zombie.NewMemStore(inputs)

	// Build the index and persist it, as a long-lived deployment would.
	groups, err := zombie.BuildIndex(store, zombie.IndexKMeansNumeric, 24, 31)
	if err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "zombie-imagetag")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	idxPath := filepath.Join(dir, "groups.gob")
	if err := groups.Save(idxPath); err != nil {
		log.Fatal(err)
	}
	groups, err = zombie.LoadGroups(idxPath)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("index persisted and reloaded: %d groups\n", groups.K())

	feature := newBrightnessFeature(gen.Dim)
	task, err := zombie.NewTask("imagetag", store, feature,
		func(f zombie.FeatureFunc) zombie.Model { return zombie.NewGaussianNB(f.Dim(), 2, 1e-3) },
		zombie.MetricF1, 1, zombie.CostModel{}, zombie.TaskOptions{}, zombie.NewRNG(32))
	if err != nil {
		log.Fatal(err)
	}

	cfg := zombie.Config{
		Policy:    "eps-greedy:0.1",
		Seed:      33,
		EarlyStop: zombie.EarlyStopConfig{Enabled: true, MinInputs: 400},
	}
	run := func(mode zombie.Mode) *zombie.Result {
		cfg.Mode = mode
		eng, err := zombie.NewEngine(cfg)
		if err != nil {
			log.Fatal(err)
		}
		res, err := eng.Run(task, groups)
		if err != nil {
			log.Fatal(err)
		}
		return res
	}
	z, s, o := run(zombie.ModeZombie), run(zombie.ModeScanRandom), run(zombie.ModeOracle)

	fmt.Println("zombie:", z.Summary())
	fmt.Println("scan:  ", s.Summary())
	fmt.Println("oracle:", o.Summary())

	// Which groups did the bandit favor? The positive-bearing clusters
	// should dominate the pull counts.
	arms := append([]zombie.ArmStat(nil), z.Arms...)
	sort.Slice(arms, func(i, j int) bool { return arms[i].Pulls > arms[j].Pulls })
	fmt.Println("\ntop index groups by pulls:")
	for _, a := range arms[:3] {
		fmt.Printf("  group %2d: %4d pulls, mean reward %.3f\n", a.Arm, a.Pulls, a.Mean)
	}
	fmt.Printf("\nzombie found %d useful inputs in %d processed (%.1f%%); scan found %d (%.1f%%)\n",
		z.Useful, z.InputsProcessed, 100*z.UsefulRate(), s.Useful, 100*s.UsefulRate())
}
