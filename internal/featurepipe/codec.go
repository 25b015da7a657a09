package featurepipe

import (
	"encoding/binary"
	"fmt"
	"math"

	"zombie/internal/learner"
	"zombie/internal/linalg"
)

// ResultCodec serializes extraction Results for the disk half of the
// extraction cache (featcache.Codec). The format is a compact
// little-endian binary layout — versioned so a future change invalidates
// old records by failing to decode rather than silently misreading them:
//
//	u8 version (1)
//	u8 flags: bit0 produced, bit1 useful, bit2 sparse features
//	-- remaining fields only when produced --
//	i32 class | f64 target | u32 dim
//	sparse: u32 nnz, then nnz × (u32 idx, f64 val)
//	dense:  u32 n,   then n × f64
type ResultCodec struct{}

const resultCodecVersion = 1

// resultHeaderBytes is a produced record's fixed prefix: version, flags,
// class, target, dim and the entry count.
const resultHeaderBytes = 2 + 4 + 8 + 4 + 4

// Encode implements featcache.Codec.
func (ResultCodec) Encode(v any) ([]byte, error) {
	res, ok := v.(Result)
	if !ok {
		return nil, fmt.Errorf("featurepipe: ResultCodec.Encode: not a Result: %T", v)
	}
	var flags byte
	if res.Produced {
		flags |= 1
	}
	if res.Useful {
		flags |= 2
	}
	if !res.Produced {
		return []byte{resultCodecVersion, flags}, nil
	}
	fv := res.Example.Features
	if fv.IsSparse() {
		flags |= 4
	}
	b := make([]byte, 0, resultSize(res))
	b = append(b, resultCodecVersion, flags)
	b = binary.LittleEndian.AppendUint32(b, uint32(int32(res.Example.Class)))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(res.Example.Target))
	b = binary.LittleEndian.AppendUint32(b, uint32(fv.Dim()))
	if fv.IsSparse() {
		b = binary.LittleEndian.AppendUint32(b, uint32(fv.NNZ()))
		fv.ForEachNonZero(func(i int, x float64) {
			b = binary.LittleEndian.AppendUint32(b, uint32(i))
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		})
	} else {
		b = binary.LittleEndian.AppendUint32(b, uint32(fv.Dim()))
		for i := range fv.Dim() {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(fv.At(i)))
		}
	}
	return b, nil
}

// Size implements featcache.Codec: len(Encode(v)), computed from the
// layout without encoding — 2 bytes for a result that produced nothing,
// else the 22-byte header plus 12 per stored sparse entry or 8 per dense
// coordinate. A value Encode rejects has size 0.
func (ResultCodec) Size(v any) int {
	if res, ok := v.(Result); ok {
		return resultSize(res)
	}
	return 0
}

// resultSize is the length of res's encoding.
func resultSize(res Result) int {
	switch {
	case !res.Produced:
		return 2
	case res.Example.Features.IsSparse():
		return resultHeaderBytes + 12*res.Example.Features.NNZ()
	default:
		return resultHeaderBytes + 8*res.Example.Features.Dim()
	}
}

// Decode implements featcache.Codec.
func (ResultCodec) Decode(b []byte) (any, error) {
	if len(b) < 2 {
		return nil, fmt.Errorf("featurepipe: ResultCodec.Decode: record too short (%d bytes)", len(b))
	}
	if b[0] != resultCodecVersion {
		return nil, fmt.Errorf("featurepipe: ResultCodec.Decode: version %d, want %d", b[0], resultCodecVersion)
	}
	flags := b[1]
	res := Result{Produced: flags&1 != 0, Useful: flags&2 != 0}
	if !res.Produced {
		return res, nil
	}
	b = b[2:]
	if len(b) < 4+8+4+4 {
		return nil, fmt.Errorf("featurepipe: ResultCodec.Decode: truncated header")
	}
	res.Example.Class = int(int32(binary.LittleEndian.Uint32(b)))
	res.Example.Target = math.Float64frombits(binary.LittleEndian.Uint64(b[4:]))
	dim := int(binary.LittleEndian.Uint32(b[12:]))
	n := int(binary.LittleEndian.Uint32(b[16:]))
	b = b[20:]
	if flags&4 != 0 {
		if len(b) != 12*n {
			return nil, fmt.Errorf("featurepipe: ResultCodec.Decode: sparse body %d bytes, want %d", len(b), 12*n)
		}
		// Rebuild the vector directly (Encode wrote entries in the strictly
		// increasing, non-zero order linalg.Sparse guarantees), validating
		// the invariant so a corrupt record surfaces as an error, not a
		// panic inside vector arithmetic.
		sp := &linalg.Sparse{Dim: dim, Idx: make([]int, n), Val: make([]float64, n)}
		prev := -1
		for k := 0; k < n; k++ {
			i := int(binary.LittleEndian.Uint32(b[12*k:]))
			x := math.Float64frombits(binary.LittleEndian.Uint64(b[12*k+4:]))
			if i <= prev || i >= dim || x == 0 {
				return nil, fmt.Errorf("featurepipe: ResultCodec.Decode: invalid sparse entry %d (idx %d)", k, i)
			}
			sp.Idx[k], sp.Val[k] = i, x
			prev = i
		}
		res.Example.Features = learner.SparseVec(sp)
	} else {
		if len(b) != 8*n {
			return nil, fmt.Errorf("featurepipe: ResultCodec.Decode: dense body %d bytes, want %d", len(b), 8*n)
		}
		dense := make([]float64, n)
		for k := range dense {
			dense[k] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*k:]))
		}
		res.Example.Features = learner.DenseVec(dense)
	}
	return res, nil
}
