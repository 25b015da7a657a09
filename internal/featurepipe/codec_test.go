package featurepipe

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"testing"

	"zombie/internal/corpus"
	"zombie/internal/learner"
	"zombie/internal/rng"
)

func codecRoundTrip(t *testing.T, res Result) Result {
	t.Helper()
	b, err := ResultCodec{}.Encode(res)
	if err != nil {
		t.Fatal(err)
	}
	v, err := ResultCodec{}.Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	return v.(Result)
}

func TestResultCodecRoundTrip(t *testing.T) {
	// Sparse results (wiki) and dense results (songs) through real feature
	// code, plus the not-produced case.
	wiki := NewWikiFeature(5)
	wcfg := corpus.DefaultWikiConfig()
	wcfg.N = 120
	wins, _ := corpus.GenerateWiki(wcfg, rng.New(200))
	sparseSeen, skippedSeen := false, false
	for _, in := range wins {
		res, err := wiki.Extract(in)
		if err != nil {
			t.Fatal(err)
		}
		got := codecRoundTrip(t, res)
		if !sameResult(res, got) {
			t.Fatalf("wiki round trip drifted on %s", in.ID)
		}
		if res.Produced && res.Example.Features.IsSparse() {
			if !got.Example.Features.IsSparse() {
				t.Fatal("sparse vector decoded dense")
			}
			sparseSeen = true
		}
		skippedSeen = skippedSeen || !res.Produced
	}
	if !sparseSeen || !skippedSeen {
		t.Fatalf("coverage: sparse=%v skipped=%v", sparseSeen, skippedSeen)
	}

	scfg := corpus.DefaultSongConfig()
	scfg.N = 40
	sins, _ := corpus.GenerateSongs(scfg, rng.New(201))
	song := NewSongFeature(2, scfg)
	for _, in := range sins {
		res, err := song.Extract(in)
		if err != nil {
			t.Fatal(err)
		}
		got := codecRoundTrip(t, res)
		if !sameResult(res, got) {
			t.Fatal("song round trip drifted")
		}
		if got.Example.Features.IsSparse() {
			t.Fatal("dense vector decoded sparse")
		}
		if got.Example.Target != in.Truth.Target {
			t.Fatal("regression target lost")
		}
	}
}

// TestResultCodecDenseLayout pins a dense record's bytes to the layout
// documented on ResultCodec: header, then every coordinate in order.
func TestResultCodecDenseLayout(t *testing.T) {
	res := Result{Produced: true, Useful: true, Example: learner.Example{
		Class: 3, Target: -0.5, Features: learner.DenseVec([]float64{1.5, 0, -2}),
	}}
	want := []byte{resultCodecVersion, 1 | 2}
	want = binary.LittleEndian.AppendUint32(want, 3)
	want = binary.LittleEndian.AppendUint64(want, math.Float64bits(-0.5))
	want = binary.LittleEndian.AppendUint32(want, 3)
	want = binary.LittleEndian.AppendUint32(want, 3)
	for _, x := range []float64{1.5, 0, -2} {
		want = binary.LittleEndian.AppendUint64(want, math.Float64bits(x))
	}
	got, err := ResultCodec{}.Encode(res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("dense record\n got %x\nwant %x", got, want)
	}
}

func TestResultCodecRejectsCorruptRecords(t *testing.T) {
	res, err := NewWikiFeature(2).Extract(markerInput("c"))
	if err != nil || !res.Produced {
		t.Fatal("fixture extraction failed")
	}
	good, err := ResultCodec{}.Encode(res)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (ResultCodec{}).Decode(nil); err == nil {
		t.Fatal("empty record accepted")
	}
	if _, err := (ResultCodec{}).Decode([]byte{99, 0}); err == nil {
		t.Fatal("unknown version accepted")
	}
	if _, err := (ResultCodec{}).Decode(good[:len(good)-3]); err == nil {
		t.Fatal("truncated body accepted")
	}
	if _, err := (ResultCodec{}).Decode(good[:5]); err == nil {
		t.Fatal("truncated header accepted")
	}
	// Zero out a sparse value: the strictly-nonzero invariant must reject
	// it rather than hand linalg a malformed vector.
	bad := append([]byte(nil), good...)
	for i := len(bad) - 8; i < len(bad); i++ {
		bad[i] = 0
	}
	if _, err := (ResultCodec{}).Decode(bad); err == nil {
		t.Fatal("zero sparse value accepted")
	}
	if _, err := (ResultCodec{}).Encode("not a result"); err == nil {
		t.Fatal("foreign type accepted")
	}
}

// sameBits reports whether two results are equal with every float
// compared by its bits, so a NaN a record carries equals itself.
func sameBits(a, b Result) bool {
	if a.Produced != b.Produced || a.Useful != b.Useful || a.Example.Class != b.Example.Class ||
		math.Float64bits(a.Example.Target) != math.Float64bits(b.Example.Target) {
		return false
	}
	fa, fb := a.Example.Features, b.Example.Features
	if fa.IsZero() || fb.IsZero() {
		return fa.IsZero() && fb.IsZero()
	}
	if fa.IsSparse() != fb.IsSparse() || fa.Dim() != fb.Dim() || fa.NNZ() != fb.NNZ() {
		return false
	}
	var ia, ib []int
	var xa, xb []uint64
	collect := func(idx *[]int, bits *[]uint64) func(int, float64) {
		return func(i int, x float64) { *idx, *bits = append(*idx, i), append(*bits, math.Float64bits(x)) }
	}
	fa.ForEachNonZero(collect(&ia, &xa))
	fb.ForEachNonZero(collect(&ib, &xb))
	return reflect.DeepEqual(ia, ib) && reflect.DeepEqual(xa, xb)
}

// FuzzResultCodec: Decode never panics on arbitrary bytes, and a record
// it accepts re-encodes to one that decodes to the same result, with
// Size equal to the encoded length.
func FuzzResultCodec(f *testing.F) {
	var codec ResultCodec
	wiki := NewWikiFeature(4)
	scfg := corpus.DefaultSongConfig()
	scfg.N = 3
	songs, err := corpus.GenerateSongs(scfg, rng.New(202))
	if err != nil {
		f.Fatal(err)
	}
	seeds := []Result{{}, {Useful: true}}
	for _, r := range []struct {
		feat FeatureFunc
		in   *corpus.Input
	}{{wiki, markerInput("s")}, {NewSongFeature(2, scfg), songs[0]}} {
		res, err := r.feat.Extract(r.in)
		if err != nil || !res.Produced {
			f.Fatalf("seed extraction: produced=%v err=%v", res.Produced, err)
		}
		seeds = append(seeds, res)
	}
	for _, res := range seeds {
		b, err := codec.Encode(res)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		v, err := codec.Decode(b)
		if err != nil {
			return
		}
		res := v.(Result)
		enc, err := codec.Encode(res)
		if err != nil {
			t.Fatalf("decoded result does not encode: %v", err)
		}
		if n := codec.Size(res); n != len(enc) {
			t.Fatalf("Size = %d, Encode wrote %d bytes", n, len(enc))
		}
		back, err := codec.Decode(enc)
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v", err)
		}
		if !sameBits(back.(Result), res) {
			t.Fatalf("round trip drifted: %+v, want %+v", back, res)
		}
	})
}
