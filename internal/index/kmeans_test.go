package index

import (
	"fmt"
	"math"
	"testing"

	"zombie/internal/corpus"
	"zombie/internal/linalg"
	"zombie/internal/rng"
)

// blobs generates n points around k well-separated centers.
func blobs(n, k int, r *rng.RNG) (points [][]float64, labels []int) {
	centers := make([][]float64, k)
	for c := range centers {
		centers[c] = []float64{float64(c * 10), float64((c % 2) * 10)}
	}
	points = make([][]float64, n)
	labels = make([]int, n)
	for i := range points {
		c := i % k
		labels[i] = c
		points[i] = []float64{
			r.Gaussian(centers[c][0], 0.5),
			r.Gaussian(centers[c][1], 0.5),
		}
	}
	return points, labels
}

func TestKMeansRecoversBlobs(t *testing.T) {
	r := rng.New(60)
	points, labels := blobs(600, 3, r.Split("data"))
	res, err := KMeans(points, KMeansConfig{K: 3}, r.Split("fit"))
	if err != nil {
		t.Fatal(err)
	}
	// Every true blob must map to a single dominant cluster and distinct
	// blobs to distinct clusters.
	vote := map[int]map[int]int{}
	for i, a := range res.Assign {
		if vote[labels[i]] == nil {
			vote[labels[i]] = map[int]int{}
		}
		vote[labels[i]][a]++
	}
	used := map[int]bool{}
	for blob, counts := range vote {
		best, bestN, total := -1, 0, 0
		for c, n := range counts {
			total += n
			if n > bestN {
				best, bestN = c, n
			}
		}
		if float64(bestN)/float64(total) < 0.95 {
			t.Fatalf("blob %d split across clusters: %v", blob, counts)
		}
		if used[best] {
			t.Fatalf("two blobs share cluster %d", best)
		}
		used[best] = true
	}
	if res.Iters == 0 {
		t.Fatal("no Lloyd iterations recorded")
	}
}

func TestKMeansAssignmentIsNearestCentroid(t *testing.T) {
	r := rng.New(61)
	points, _ := blobs(300, 4, r.Split("data"))
	res, err := KMeans(points, KMeansConfig{K: 4}, r.Split("fit"))
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range points {
		own := linalg.SqDist(p, res.Centroids[res.Assign[i]])
		for c := range res.Centroids {
			if d := linalg.SqDist(p, res.Centroids[c]); d < own-1e-9 {
				t.Fatalf("point %d assigned to %d but %d is closer (%v < %v)",
					i, res.Assign[i], c, d, own)
			}
		}
	}
}

func TestKMeansInertiaMatchesAssignment(t *testing.T) {
	r := rng.New(62)
	points, _ := blobs(200, 2, r.Split("data"))
	res, _ := KMeans(points, KMeansConfig{K: 2}, r.Split("fit"))
	want := 0.0
	for i, p := range points {
		want += linalg.SqDist(p, res.Centroids[res.Assign[i]])
	}
	if diff := res.Inertia - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("Inertia = %v, recomputed %v", res.Inertia, want)
	}
}

func TestKMeansDeterministic(t *testing.T) {
	points, _ := blobs(200, 3, rng.New(63))
	a, _ := KMeans(points, KMeansConfig{K: 3}, rng.New(7))
	b, _ := KMeans(points, KMeansConfig{K: 3}, rng.New(7))
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatalf("k-means not deterministic at point %d", i)
		}
	}
}

func TestKMeansMiniBatch(t *testing.T) {
	r := rng.New(64)
	points, labels := blobs(1000, 3, r.Split("data"))
	res, err := KMeans(points, KMeansConfig{K: 3, MiniBatch: 32, MiniBatchIters: 200}, r.Split("fit"))
	if err != nil {
		t.Fatal(err)
	}
	if res.BatchSteps != 200 {
		t.Fatalf("BatchSteps = %d", res.BatchSteps)
	}
	// Mini-batch should still basically separate well-spread blobs.
	agree := 0
	vote := map[[2]int]int{}
	for i := range points {
		vote[[2]int{labels[i], res.Assign[i]}]++
	}
	for blob := 0; blob < 3; blob++ {
		best := 0
		for c := 0; c < 3; c++ {
			if vote[[2]int{blob, c}] > best {
				best = vote[[2]int{blob, c}]
			}
		}
		agree += best
	}
	if float64(agree)/float64(len(points)) < 0.9 {
		t.Fatalf("mini-batch purity %v too low", float64(agree)/float64(len(points)))
	}
}

func TestKMeansErrors(t *testing.T) {
	points := [][]float64{{1, 2}, {3, 4}}
	if _, err := KMeans(points, KMeansConfig{K: 0}, rng.New(1)); err == nil {
		t.Fatal("K=0 should fail")
	}
	if _, err := KMeans(points, KMeansConfig{K: 3}, rng.New(1)); err == nil {
		t.Fatal("K > n should fail")
	}
	ragged := [][]float64{{1, 2}, {3}}
	if _, err := KMeans(ragged, KMeansConfig{K: 1}, rng.New(1)); err == nil {
		t.Fatal("ragged points should fail")
	}
}

func TestKMeansKEqualsN(t *testing.T) {
	points := [][]float64{{0, 0}, {10, 0}, {0, 10}}
	res, err := KMeans(points, KMeansConfig{K: 3}, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Inertia > 1e-9 {
		t.Fatalf("K=n should give zero inertia, got %v", res.Inertia)
	}
}

func TestKMeansSingleCluster(t *testing.T) {
	points, _ := blobs(50, 2, rng.New(65))
	res, err := KMeans(points, KMeansConfig{K: 1}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Assign {
		if a != 0 {
			t.Fatal("K=1 must assign everything to cluster 0")
		}
	}
}

// kmeansReference is the Lloyd path of KMeans as it stood before the
// bounded assignment pass — seeding, assignAll and lloyd verbatim, run
// sequentially — kept as the oracle the bounded pass is held to bit for
// bit (the way Tokenize is kept for the scanner).
func kmeansReference(points [][]float64, cfg KMeansConfig, r *rng.RNG) *KMeansResult {
	cfg, err := cfg.normalize(len(points))
	if err != nil {
		panic(err)
	}
	centroids := make([][]float64, 0, cfg.K)
	first := points[r.Intn(len(points))]
	centroids = append(centroids, linalg.Clone(first))
	d2 := make([]float64, len(points))
	for i := range points {
		d2[i] = linalg.SqDist(points[i], centroids[0])
	}
	for len(centroids) < cfg.K {
		idx := r.WeightedChoice(d2)
		centroids = append(centroids, linalg.Clone(points[idx]))
		last := centroids[len(centroids)-1]
		for i := range points {
			if d := linalg.SqDist(points[i], last); d < d2[i] {
				d2[i] = d
			}
		}
	}
	res := &KMeansResult{Centroids: centroids, Assign: make([]int, len(points))}
	lloydReference(points, res, cfg, r)
	res.Inertia = assignAllReference(points, res.Centroids, res.Assign)
	return res
}

func assignAllReference(points [][]float64, centroids [][]float64, assign []int) float64 {
	inertia := 0.0
	for lo := 0; lo < len(points); lo += assignChunkSize {
		partial := 0.0
		for i := lo; i < min(lo+assignChunkSize, len(points)); i++ {
			best, bestD := 0, math.Inf(1)
			for c, cent := range centroids {
				if d := linalg.SqDist(points[i], cent); d < bestD {
					best, bestD = c, d
				}
			}
			assign[i] = best
			partial += bestD
		}
		inertia += partial
	}
	return inertia
}

func lloydReference(points [][]float64, res *KMeansResult, cfg KMeansConfig, r *rng.RNG) {
	prev := math.Inf(1)
	counts := make([]int, cfg.K)
	for iter := 0; iter < cfg.MaxIter; iter++ {
		inertia := assignAllReference(points, res.Centroids, res.Assign)
		res.Iters = iter + 1
		// Recompute centroids.
		for c := range res.Centroids {
			linalg.Zero(res.Centroids[c])
			counts[c] = 0
		}
		for i, p := range points {
			c := res.Assign[i]
			linalg.Add(p, res.Centroids[c])
			counts[c]++
		}
		for c := range res.Centroids {
			if counts[c] == 0 {
				// Empty cluster: reseed at a random point so K is
				// preserved (matters because K is the bandit arm count).
				copy(res.Centroids[c], points[r.Intn(len(points))])
				continue
			}
			linalg.Scale(1/float64(counts[c]), res.Centroids[c])
		}
		if prev-inertia < cfg.Tol*prev {
			break
		}
		prev = inertia
	}
}

// checkBoundedIdentical runs the reference once and KMeans sequentially
// and on four workers from the same seed, and requires every output bit —
// and the RNG position afterwards, so the empty-cluster reseeds drew the
// same points — to agree.
func checkBoundedIdentical(t testing.TB, points [][]float64, cfg KMeansConfig, seed int64) {
	t.Helper()
	rWant := rng.New(seed)
	want := kmeansReference(points, cfg, rWant)
	drawWant := rWant.Int63()
	for _, workers := range []int{1, 4} {
		cfg.Workers = workers
		rGot := rng.New(seed)
		got, err := KMeans(points, cfg, rGot)
		if err != nil {
			t.Fatal(err)
		}
		if got.Iters != want.Iters || math.Float64bits(got.Inertia) != math.Float64bits(want.Inertia) {
			t.Fatalf("workers=%d: iters/inertia %d/%v, reference %d/%v", workers, got.Iters, got.Inertia, want.Iters, want.Inertia)
		}
		for i := range want.Assign {
			if got.Assign[i] != want.Assign[i] {
				t.Fatalf("workers=%d: point %d assigned %d, reference %d", workers, i, got.Assign[i], want.Assign[i])
			}
		}
		for c := range want.Centroids {
			for d := range want.Centroids[c] {
				if math.Float64bits(got.Centroids[c][d]) != math.Float64bits(want.Centroids[c][d]) {
					t.Fatalf("workers=%d: centroid %d dim %d = %v, reference %v", workers, c, d, got.Centroids[c][d], want.Centroids[c][d])
				}
			}
		}
		if draw := rGot.Int63(); draw != drawWant {
			t.Fatalf("workers=%d: RNG diverged after the fit: %d vs reference %d", workers, draw, drawWant)
		}
	}
}

func vectorizeAll(store corpus.Store, v Vectorizer) [][]float64 {
	points := make([][]float64, store.Len())
	for i := range points {
		points[i] = v.Vectorize(store.Get(i))
	}
	return points
}

// TestKMeansBoundedIdentical holds the bounded pass to kmeansReference on
// the shapes the workloads index (TestKMeansBoundedHardCases has the
// cases built to break a bound).
func TestKMeansBoundedIdentical(t *testing.T) {
	songCfg := corpus.DefaultSongConfig()
	songCfg.N = 3000
	songs, err := corpus.GenerateSongs(songCfg, rng.New(91))
	if err != nil {
		t.Fatal(err)
	}
	songStore := corpus.NewMemStore(songs)
	numeric := NewNumeric(songCfg.Dim)
	numeric.FitStandardize(songStore)
	n := 4000
	if raceEnabled {
		n = 400
	}
	datasets := []struct {
		name   string
		points [][]float64
	}{
		{"wiki", vectorizeAll(wikiStore(t, n, 90), NewHashedText(256))},
		{"songs", vectorizeAll(songStore, numeric)[:min(n, 3000)]},
		{"blobs", benchPoints(n, 64, 32)},
	}
	for _, ds := range datasets {
		for _, k := range []int{1, 2, 32, 0} {
			points := ds.points
			if k == 0 {
				// K = n: every point its own seed; a prefix keeps the n×K
				// tables of both sides small.
				points = points[:96]
				k = len(points)
			}
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%s/k%d/seed%d", ds.name, k, seed), func(t *testing.T) {
					checkBoundedIdentical(t, points, KMeansConfig{K: k, MaxIter: 25}, seed)
				})
			}
		}
	}
}

// TestKMeansBoundedHardCases: exact distance ties, duplicates, all-zero
// vectors (what a non-text input hashes to), empty-cluster reseeds and a
// single iteration — where a loose comparison or a wrong tie-break shows.
func TestKMeansBoundedHardCases(t *testing.T) {
	var grid, dups [][]float64
	for x := 0; x < 12; x++ {
		for y := 0; y < 12; y++ {
			grid = append(grid, []float64{float64(x), float64(y)})
			dups = append(dups, []float64{float64(x % 3), float64(y % 2), 1})
		}
	}
	zeros := make([][]float64, 40)
	for i := range zeros {
		zeros[i] = make([]float64, 3)
	}
	// Mostly zeros plus a few real points: k-means++ must seed duplicate
	// zero centroids, which leaves clusters empty and forces the reseed.
	mixed := append(append([][]float64{}, zeros...), dups[:5]...)
	for _, tc := range []struct {
		name   string
		points [][]float64
		cfg    KMeansConfig
	}{
		{"grid-ties", grid, KMeansConfig{K: 9}},
		{"grid-ties-tol", grid, KMeansConfig{K: 16, Tol: 1e-12, MaxIter: 100}},
		{"duplicates", dups, KMeansConfig{K: 4}},
		{"duplicates-k-over-distinct", dups, KMeansConfig{K: 10}},
		{"all-zero", zeros, KMeansConfig{K: 5}},
		{"zeros-and-points", mixed, KMeansConfig{K: 12}},
		{"maxiter-1", grid, KMeansConfig{K: 7, MaxIter: 1}},
	} {
		for seed := int64(1); seed <= 5; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", tc.name, seed), func(t *testing.T) {
				checkBoundedIdentical(t, tc.points, tc.cfg, seed)
			})
		}
	}
	// The all-zero case must really reseed: replay the seeding draws alone
	// (one Intn, then K-1 zero-weight choices) and require that the fit
	// drew more — the empty clusters' Intn calls.
	fit, seeding := rng.New(1), rng.New(1)
	kmeansReference(zeros, KMeansConfig{K: 5, MaxIter: 1}, fit)
	seeding.Intn(len(zeros))
	for c := 1; c < 5; c++ {
		seeding.WeightedChoice(make([]float64, len(zeros)))
	}
	if fit.Int63() == seeding.Int63() {
		t.Fatal("all-zero case drew no empty-cluster reseed; it does not test what it claims")
	}
}

// fuzzCoords is the handful of values FuzzKMeansBounded draws coordinates
// from: exact ties are the common case, 1+2⁻³⁰ sits inside the bound
// margin of 1, and the two extremes underflow and overflow SqDist's squares.
var fuzzCoords = [8]float64{0, 1, -1, 2, 0.5, 1 + 0x1p-30, 1e-160, 1e160}

// fuzzPoints decodes up to 64 points of dim coordinates, one byte each.
func fuzzPoints(data []byte, dim int) [][]float64 {
	points := make([][]float64, min(len(data)/dim, 64))
	for i := range points {
		points[i] = make([]float64, dim)
		for d := range points[i] {
			points[i][d] = fuzzCoords[data[i*dim+d]%8]
		}
	}
	return points
}

func FuzzKMeansBounded(f *testing.F) {
	f.Add([]byte("\x00\x01\x02\x03\x01\x01\x00\x00\x03\x03\x01\x00"), uint8(2), uint8(1), int64(1))
	f.Add([]byte("\x01\x05\x05\x01\x01\x01\x05\x05\x00\x00\x01\x05"), uint8(3), uint8(2), int64(2))
	f.Fuzz(func(t *testing.T, data []byte, kRaw, dimRaw uint8, seed int64) {
		points := fuzzPoints(data, int(dimRaw%8)+1)
		if len(points) == 0 {
			return
		}
		checkBoundedIdentical(t, points, KMeansConfig{K: int(kRaw)%len(points) + 1, MaxIter: 1 + int(kRaw>>4)}, seed)
	})
}

// TestBelow32NeverHigh: the rounding every stored bound goes through is
// never above its (non-negative) argument and never more than 4 ulps below.
func TestBelow32NeverHigh(t *testing.T) {
	r := rng.New(92)
	xs := []float64{0, -1, 1, 2, 0x1p-126, 0x1p-127, 0x1p-149, math.MaxFloat32, 1e300, math.Inf(1), 1 - 0x1p-53, 1 + 0x1p-52, 2 - 0x1p-52}
	for i := 0; i < 200000; i++ {
		xs = append(xs, math.Ldexp(1+r.Float64(), r.Intn(280)-140), float64(math.Float32frombits(r.Uint32()&0x7f7fffff)))
	}
	for _, x := range xs {
		got := float64(below32(x))
		if got > max(x, 0) || got < 0 || (x >= 0x1p-126 && x <= math.MaxFloat32 && got < x*(1-0x1p-22)) {
			t.Fatalf("below32(%g) = %g", x, got)
		}
	}
}
