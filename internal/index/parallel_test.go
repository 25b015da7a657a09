package index

import (
	"testing"

	"zombie/internal/rng"
)

// TestKMeansParallelBitIdentical: worker count is a latency knob only —
// centroids, assignments, inertia, and iteration counts must be
// bit-identical to the sequential run for any worker count.
func TestKMeansParallelBitIdentical(t *testing.T) {
	points, _ := blobs(3000, 5, rng.New(80).Split("data"))
	base, err := KMeans(points, KMeansConfig{K: 5}, rng.New(81))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8} {
		res, err := KMeans(points, KMeansConfig{K: 5, Workers: workers}, rng.New(81))
		if err != nil {
			t.Fatal(err)
		}
		if res.Inertia != base.Inertia {
			t.Fatalf("workers=%d: inertia %v != sequential %v", workers, res.Inertia, base.Inertia)
		}
		if res.Iters != base.Iters {
			t.Fatalf("workers=%d: iters %d != sequential %d", workers, res.Iters, base.Iters)
		}
		for i := range res.Assign {
			if res.Assign[i] != base.Assign[i] {
				t.Fatalf("workers=%d: point %d assigned %d vs sequential %d",
					workers, i, res.Assign[i], base.Assign[i])
			}
		}
		for c := range res.Centroids {
			for d := range res.Centroids[c] {
				if res.Centroids[c][d] != base.Centroids[c][d] {
					t.Fatalf("workers=%d: centroid %d dim %d differs", workers, c, d)
				}
			}
		}
	}
}

// TestTFIDFFitParallelBitIdentical: document frequencies are integers, so
// the parallel fit must reproduce the sequential idf weights exactly (and
// with them the document count every weight is computed from).
func TestTFIDFFitParallelBitIdentical(t *testing.T) {
	store := wikiStore(t, 1500, 82)
	seq := NewTFIDF(256)
	seq.Fit(store)
	for _, workers := range []int{2, 4, 16} {
		par := NewTFIDF(256)
		par.FitParallel(store, workers)
		for b := range par.idf {
			if par.idf[b] != seq.idf[b] {
				t.Fatalf("workers=%d: idf bucket %d: %v != %v", workers, b, par.idf[b], seq.idf[b])
			}
		}
	}
}

// TestKMeansGrouperParallelBitIdentical exercises the full grouper path —
// parallel vectorization plus parallel clustering — against the
// sequential build.
func TestKMeansGrouperParallelBitIdentical(t *testing.T) {
	store := wikiStore(t, 1200, 83)
	seqG := &KMeansGrouper{Vectorizer: NewHashedText(64), Config: KMeansConfig{MaxIter: 10}}
	base, err := seqG.Group(store, 8, rng.New(84))
	if err != nil {
		t.Fatal(err)
	}
	parG := &KMeansGrouper{Vectorizer: NewHashedText(64), Config: KMeansConfig{MaxIter: 10, Workers: 8}}
	par, err := parG.Group(store, 8, rng.New(84))
	if err != nil {
		t.Fatal(err)
	}
	if par.K() != base.K() || par.Len() != base.Len() {
		t.Fatalf("shape differs: %d/%d vs %d/%d", par.K(), par.Len(), base.K(), base.Len())
	}
	for i := range par.Assign {
		if par.Assign[i] != base.Assign[i] {
			t.Fatalf("input %d grouped %d vs sequential %d", i, par.Assign[i], base.Assign[i])
		}
	}
}
