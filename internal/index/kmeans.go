package index

import (
	"fmt"
	"math"
	"sync/atomic"

	"zombie/internal/linalg"
	"zombie/internal/parallel"
	"zombie/internal/rng"
)

// KMeansConfig controls Lloyd's algorithm. Zero values get sane defaults
// from normalize().
type KMeansConfig struct {
	// K is the number of clusters; required.
	K int
	// MaxIter bounds the number of Lloyd iterations (default 50).
	MaxIter int
	// Tol stops early when the relative inertia improvement falls below
	// it (default 1e-4).
	Tol float64
	// MiniBatch > 0 switches to mini-batch k-means with that batch size,
	// trading exactness for speed on large corpora (the paper's indexer
	// must scale to full crawls).
	MiniBatch int
	// MiniBatchIters is the number of mini-batch steps (default 100·K).
	MiniBatchIters int
	// Workers bounds the goroutines used for the assignment passes (the
	// hot path) and the k-means++ distance updates: <= 0 means GOMAXPROCS,
	// 1 runs sequentially. Results are bit-identical for any worker count:
	// assignments are pure per-point computations and inertia partials
	// accumulate over fixed-size chunks merged in chunk order (see
	// internal/parallel). Mini-batch updates always run sequentially —
	// they consume a single RNG stream.
	Workers int
}

func (c KMeansConfig) normalize(n int) (KMeansConfig, error) {
	if c.K <= 0 {
		return c, fmt.Errorf("index: KMeans requires K > 0, got %d", c.K)
	}
	if n < c.K {
		return c, fmt.Errorf("index: KMeans with K=%d needs at least K points, got %d", c.K, n)
	}
	if c.MaxIter <= 0 {
		c.MaxIter = 50
	}
	if c.Tol <= 0 {
		c.Tol = 1e-4
	}
	if c.MiniBatch > 0 && c.MiniBatchIters <= 0 {
		c.MiniBatchIters = 100 * c.K
	}
	c.Workers = parallel.Workers(c.Workers)
	return c, nil
}

// KMeansResult holds a fitted clustering.
type KMeansResult struct {
	// Centroids are the K cluster centers.
	Centroids [][]float64
	// Assign maps each point index to its cluster.
	Assign []int
	// Inertia is the total within-cluster squared distance.
	Inertia float64
	// Iters is the number of Lloyd iterations performed (0 for pure
	// mini-batch runs, which report batch steps in BatchSteps).
	Iters int
	// BatchSteps is the number of mini-batch updates performed.
	BatchSteps int
	distEvals  int // point-to-centroid SqDist calls made (benchmarks report it)
}

// KMeans clusters points with k-means++ initialization followed by
// Lloyd's algorithm (or mini-batch updates when configured). Points must
// all share one dimensionality. The result is deterministic given r.
func KMeans(points [][]float64, cfg KMeansConfig, r *rng.RNG) (*KMeansResult, error) {
	cfg, err := cfg.normalize(len(points))
	if err != nil {
		return nil, err
	}
	dim := len(points[0])
	for i, p := range points {
		if len(p) != dim {
			return nil, fmt.Errorf("index: KMeans point %d has dim %d, want %d", i, len(p), dim)
		}
	}
	b := &bounds{k: cfg.K, lb: make([]float32, len(points)*cfg.K), move: make([]float64, cfg.K)}
	res := &KMeansResult{Assign: make([]int, len(points))}
	res.Centroids = kmeansPlusPlus(points, cfg.K, cfg.Workers, r, b, res.Assign)
	if cfg.MiniBatch > 0 {
		miniBatch(points, res, cfg, r)
		// The centroids moved arbitrarily: no seeding bound survives.
		b.seed = nil
		clear(b.lb)
	} else {
		lloyd(points, res, cfg, b, r)
	}
	// Final assignment + inertia against the last centroid update.
	res.Inertia = b.assign(points, res.Centroids, res.Assign, cfg.Workers)
	res.distEvals = int(b.evals.Load())
	return res, nil
}

// bounds is the per-point state that lets an assignment pass skip the
// distance evaluations that cannot change an argmin (Elkan's bounds held
// exact; DESIGN.md §8 has the argument). It lives for one KMeans call.
type bounds struct {
	k int
	// lb[i*k+c] <= d(points[i], centroid c): the distance when last
	// evaluated, less every movement of c since, as a float32 that is
	// always rounded down — a bound may be loose, never high.
	lb []float32
	// move[c] >= how far the last update moved centroid c; the next pass
	// takes it off every lb[·][c] it does not re-evaluate.
	move []float64
	// seed is non-nil between k-means++ and the first pass: each point's
	// squared distance to its nearest seed, which is that pass's answer.
	seed  []float64
	evals atomic.Int64 // SqDist calls against points
}

// boundMargin is the relative slack on every bound comparison. SqDist
// sums non-negative terms, so its relative error is at most (dim+2)·2⁻⁵³
// (3e-14 at 256 dims); the margin dwarfs that, the square roots' rounding
// and the 2⁻⁵³ each movement update adds.
const boundMargin = 1e-9

// lowerBound turns an evaluated squared distance into a storable bound.
func lowerBound(d2 float64) float32 { return below32(math.Sqrt(d2) * (1 - boundMargin)) }

// below32 returns a float32 at most x, within an ulp of it, without a
// data-dependent branch: x·2⁻²⁴ is at least half a float32 ulp of x, so
// x·(1-2⁻²⁴) rounds to nearest at or below x. Subnormal float32s have no
// such relative slack and flush to 0, as does anything negative.
func below32(x float64) float32 {
	if x < 0x1p-126 {
		return 0
	}
	return float32(min(x, math.MaxFloat32) * (1 - 0x1p-24))
}

// kmeansPlusPlus seeds centroids with D² weighting. The distance-update
// sweeps fan out over workers goroutines; each point's slots are written
// independently, so the seeding is identical for any worker count (the
// weighted draws consume r sequentially either way). The sweeps evaluate
// every distance Lloyd's first pass would, so they leave its outcome in b
// and assign — the argmin by the same strict < in the same order.
func kmeansPlusPlus(points [][]float64, k, workers int, r *rng.RNG, b *bounds, assign []int) [][]float64 {
	centroids := make([][]float64, k)
	d2 := make([]float64, len(points))
	for i := range d2 {
		d2[i] = math.Inf(1)
	}
	for c := range centroids {
		var idx int
		if c == 0 {
			idx = r.Intn(len(points))
		} else {
			idx = r.WeightedChoice(d2)
		}
		last := linalg.Clone(points[idx])
		centroids[c] = last
		parallel.ForEach(workers, parallel.NumChunks(len(points), assignChunkSize), func(chunk int) {
			lo, hi := parallel.ChunkBounds(len(points), assignChunkSize, chunk)
			for i := lo; i < hi; i++ {
				d := linalg.SqDist(points[i], last)
				b.lb[i*k+c] = lowerBound(d)
				if d < d2[i] {
					d2[i], assign[i] = d, c
				}
			}
		})
	}
	b.seed = d2
	b.evals.Store(int64(len(points) * k))
	return centroids
}

// assignChunkSize fixes the reduction granularity of the assignment pass.
// Inertia partials always accumulate per chunk and merge in chunk order —
// in the sequential path too — so the reported inertia is bit-identical
// for any worker count.
const assignChunkSize = 512

// assign moves every point to its nearest centroid — the lowest index on
// exact ties, as a strict < sweep over all K picks — and returns the
// inertia, fanning out over up to workers goroutines. assign[i] must hold
// a valid centroid on entry: its distance is evaluated first, then only
// the centroids that neither the point's lower bound nor half the
// centroid-to-centroid distance rules out.
func (b *bounds) assign(points, centroids [][]float64, assign []int, workers int) float64 {
	k := b.k
	// half[a*k+c] <= ½·d(centroid a, centroid c): √(d²/4), bounded like lb.
	half := make([]float32, k*k)
	for a := range centroids {
		for c := a + 1; c < k; c++ {
			h := lowerBound(linalg.SqDist(centroids[a], centroids[c]) / 4)
			half[a*k+c], half[c*k+a] = h, h
		}
	}
	seed := b.seed
	b.seed = nil
	partials := parallel.MapChunks(workers, len(points), assignChunkSize, func(lo, hi int) float64 {
		inertia := 0.0
		if seed != nil {
			for _, d := range seed[lo:hi] {
				inertia += d
			}
			return inertia
		}
		evals := hi - lo // every point's own centroid
		for i := lo; i < hi; i++ {
			p, lb, cur := points[i], b.lb[i*k:(i+1)*k], assign[i]
			best, bestD := cur, linalg.SqDist(p, centroids[cur])
			lb[cur] = lowerBound(bestD)
			u := math.Sqrt(bestD) * (1 + boundMargin)
			for c, cent := range centroids {
				if c == cur {
					continue
				}
				l := below32(float64(lb[c]) - b.move[c])
				lb[c] = l
				if u < float64(l) || u < float64(half[best*k+c]) {
					continue
				}
				d := linalg.SqDist(p, cent)
				lb[c] = lowerBound(d)
				evals++
				if d < bestD || (d == bestD && c < best) {
					best, bestD = c, d
					u = math.Sqrt(d) * (1 + boundMargin)
				}
			}
			assign[i] = best
			inertia += bestD
		}
		b.evals.Add(int64(evals))
		return inertia
	})
	inertia := 0.0
	for _, p := range partials {
		inertia += p
	}
	return inertia
}

func lloyd(points [][]float64, res *KMeansResult, cfg KMeansConfig, b *bounds, r *rng.RNG) {
	prev := math.Inf(1)
	counts := make([]int, cfg.K)
	// The update builds into a second buffer: measuring how far a centroid
	// moved needs the old one.
	next := make([][]float64, cfg.K)
	for c := range next {
		next[c] = make([]float64, len(points[0]))
	}
	for iter := 0; iter < cfg.MaxIter; iter++ {
		inertia := b.assign(points, res.Centroids, res.Assign, cfg.Workers)
		res.Iters = iter + 1
		// Recompute centroids.
		for c := range next {
			linalg.Zero(next[c])
			counts[c] = 0
		}
		for i, p := range points {
			c := res.Assign[i]
			linalg.Add(p, next[c])
			counts[c]++
		}
		for c := range next {
			if counts[c] == 0 {
				// Empty cluster: reseed at a random point so K is
				// preserved (matters because K is the bandit arm count).
				copy(next[c], points[r.Intn(len(points))])
			} else {
				linalg.Scale(1/float64(counts[c]), next[c])
			}
			b.move[c] = math.Sqrt(linalg.SqDist(res.Centroids[c], next[c])) * (1 + boundMargin)
			res.Centroids[c], next[c] = next[c], res.Centroids[c]
		}
		if prev-inertia < cfg.Tol*prev {
			break
		}
		prev = inertia
	}
}

func miniBatch(points [][]float64, res *KMeansResult, cfg KMeansConfig, r *rng.RNG) {
	counts := make([]float64, cfg.K)
	for step := 0; step < cfg.MiniBatchIters; step++ {
		for b := 0; b < cfg.MiniBatch; b++ {
			p := points[r.Intn(len(points))]
			best, bestD := 0, math.Inf(1)
			for c, cent := range res.Centroids {
				if d := linalg.SqDist(p, cent); d < bestD {
					best, bestD = c, d
				}
			}
			counts[best]++
			eta := 1 / counts[best]
			cent := res.Centroids[best]
			for d := range cent {
				cent[d] += eta * (p[d] - cent[d])
			}
		}
		res.BatchSteps++
	}
}
