package index

import (
	"testing"

	"zombie/internal/corpus"
	"zombie/internal/rng"
)

// benchPoints generates n dense Gaussian points in dim dimensions
// scattered around k well-separated centers. It is the easy shape — the
// bounds prune almost every evaluation here — so BenchmarkKMeans tracks
// the pass's fixed costs; BenchmarkKMeansHashedText is the shape the
// workloads index.
func benchPoints(n, dim, k int) [][]float64 {
	r := rng.New(1234)
	points := make([][]float64, n)
	for i := range points {
		c := i % k
		p := make([]float64, dim)
		for d := range p {
			p[d] = r.NormFloat64() + float64((c+d)%k)
		}
		points[i] = p
	}
	return points
}

// benchKMeans times KMeans and reports how many point-to-centroid
// distances it evaluated per point per assignment pass (seeding's K
// included): an unbounded Lloyd evaluates K, so evals/point/pass over K is
// the fraction the bounds fail to prune.
func benchKMeans(b *testing.B, points [][]float64, cfg KMeansConfig) {
	var res *KMeansResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = KMeans(points, cfg, rng.New(42)); err != nil {
			b.Fatal(err)
		}
	}
	// Iters Lloyd passes (the first answered by seeding) + the final one.
	b.ReportMetric(float64(res.distEvals)/float64(len(points))/float64(res.Iters+1), "evals/point/pass")
}

func BenchmarkKMeans(b *testing.B) {
	benchKMeans(b, benchPoints(4000, 64, 32), KMeansConfig{K: 32, MaxIter: 10, Workers: 1})
}

func BenchmarkKMeansParallel(b *testing.B) {
	benchKMeans(b, benchPoints(4000, 64, 32), KMeansConfig{K: 32, MaxIter: 10})
}

// BenchmarkKMeansHashedText clusters what workload.Build indexes:
// generated wiki pages through HashedText(256), K = 32, MaxIter 25.
func BenchmarkKMeansHashedText(b *testing.B) {
	cfg := corpus.DefaultWikiConfig()
	cfg.N = 4000
	ins, err := corpus.GenerateWiki(cfg, rng.New(1234))
	if err != nil {
		b.Fatal(err)
	}
	points := vectorizeAll(corpus.NewMemStore(ins), NewHashedText(256))
	benchKMeans(b, points, KMeansConfig{K: 32, MaxIter: 25, Workers: 1})
}
