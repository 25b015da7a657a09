package featurepipe

import (
	"fmt"

	"zombie/internal/corpus"
	"zombie/internal/learner"
	"zombie/internal/linalg"
)

// CompositeFeature concatenates the feature vectors of several feature
// functions into one — the "add a new signal to the existing code" step of
// an engineering session, without rewriting the earlier extractors. The
// composite produces an example only when every part produces one (each
// part sees the same raw input); labels are taken from the first part, and
// the input counts as useful if any part marks it useful.
type CompositeFeature struct {
	FuncCore
	parts []FeatureFunc
}

// NewCompositeFeature builds a composite over the given parts. It returns
// an error when fewer than two parts are supplied or the parts disagree on
// class count.
func NewCompositeFeature(name string, parts ...FeatureFunc) (*CompositeFeature, error) {
	if len(parts) < 2 {
		return nil, fmt.Errorf("featurepipe: composite %s needs at least two parts", name)
	}
	dim := 0
	classes := parts[0].NumClasses()
	for i, p := range parts {
		if p == nil {
			return nil, fmt.Errorf("featurepipe: composite %s: part %d is nil", name, i)
		}
		if p.NumClasses() != classes {
			return nil, fmt.Errorf("featurepipe: composite %s: part %s has %d classes, want %d",
				name, p.Name(), p.NumClasses(), classes)
		}
		dim += p.Dim()
	}
	c := &CompositeFeature{
		FuncCore: FuncCore{FuncName: name, FuncDim: dim, Classes: classes},
		parts:    parts,
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// Extract implements FeatureFunc.
func (c *CompositeFeature) Extract(in *corpus.Input) (Result, error) {
	// Extract every part first (a part that errors or produces nothing
	// ends the composite before later parts run), then assemble into
	// slices sized once to the parts' summed non-zeros. Parts emit
	// non-zeros in increasing index order and their offset ranges are
	// disjoint, so the concatenated coordinates arrive already sorted —
	// the assembly is a copy per part, with no map, sort or regrowth.
	var buf [4]Result // recipes of up to four parts keep their results on the stack
	results := buf[:0]
	nnz := 0
	for _, p := range c.parts {
		res, err := p.Extract(in)
		if err != nil {
			return Result{}, fmt.Errorf("featurepipe: composite %s: part %s: %w", c.FuncName, p.Name(), err)
		}
		if !res.Produced {
			return Result{}, nil
		}
		if got := res.Example.Features.Dim(); got != p.Dim() {
			return Result{}, fmt.Errorf("featurepipe: composite %s: part %s produced dim %d, declared %d",
				c.FuncName, p.Name(), got, p.Dim())
		}
		results = append(results, res)
		nnz += res.Example.Features.NNZ()
	}
	var idx []int
	var val []float64
	if nnz > 0 {
		idx, val = make([]int, 0, nnz), make([]float64, 0, nnz)
	}
	offset := 0
	useful := false
	for k, res := range results {
		idx, val = res.Example.Features.AppendNonZeros(idx, val, offset)
		offset += c.parts[k].Dim()
		useful = useful || res.Useful
	}
	ex := learner.Example{
		Features: learner.SparseVec(linalg.SparseFromOrdered(c.FuncDim, idx, val)),
		Class:    results[0].Example.Class,
		Target:   results[0].Example.Target,
	}
	return Result{Example: ex, Produced: true, Useful: useful}, nil
}
