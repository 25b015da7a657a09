package linalg

import "testing"

// benchVecs builds two deterministic dense vectors at the dimensionality
// of hashed wiki text (wiki-v4 feature code, 4096 buckets).
func benchVecs(dim int) ([]float64, []float64) {
	a := make([]float64, dim)
	b := make([]float64, dim)
	for i := range a {
		a[i] = float64(i%17) * 0.25
		b[i] = float64((i+5)%13) * 0.5
	}
	return a, b
}

var sinkFloat float64

func BenchmarkDot(b *testing.B) {
	x, y := benchVecs(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkFloat = Dot(x, y)
	}
}

func BenchmarkAxpy(b *testing.B) {
	x, y := benchVecs(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Axpy(0.001, x, y)
	}
}

func BenchmarkSqDist(b *testing.B) {
	x, y := benchVecs(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkFloat = SqDist(x, y)
	}
}
