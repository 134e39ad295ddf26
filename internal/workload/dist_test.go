package workload

import (
	"math"
	"testing"
)

// drawCounts draws n keys from the generator with a seeded splitmix64
// stream and histograms them.
func drawCounts(t *testing.T, spec Spec, draws int) map[uint64]int {
	t.Helper()
	gen := spec.KeyGen()
	state := uint64(12345)
	counts := make(map[uint64]int)
	for i := 0; i < draws; i++ {
		k := gen(splitmix64(&state))
		if k < 1 || k > spec.KeyRange {
			t.Fatalf("dist %q: key %d out of [1, %d]", spec.Dist, k, spec.KeyRange)
		}
		counts[k]++
	}
	return counts
}

func hottestFrac(counts map[uint64]int, draws int) float64 {
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	return float64(max) / float64(draws)
}

func TestKeyGenDeterministic(t *testing.T) {
	for _, dist := range []string{DistUniform, DistZipfian, DistHotspot} {
		spec := Spec{KeyRange: 1000, Dist: dist, Skew: 0.9}
		gen1, gen2 := spec.KeyGen(), spec.KeyGen()
		state1, state2 := uint64(7), uint64(7)
		for i := 0; i < 5000; i++ {
			a, b := gen1(splitmix64(&state1)), gen2(splitmix64(&state2))
			if a != b {
				t.Fatalf("dist %q: draw %d diverged (%d vs %d)", dist, i, a, b)
			}
		}
	}
}

func TestZipfianSkew(t *testing.T) {
	const n, draws = 1000, 200000
	uni := drawCounts(t, Spec{KeyRange: n, Dist: DistUniform}, draws)
	zipf := drawCounts(t, Spec{KeyRange: n, Dist: DistZipfian, Skew: 0.99}, draws)
	uf, zf := hottestFrac(uni, draws), hottestFrac(zipf, draws)
	// Uniform: hottest key ≈ 1/n ≈ 0.1%. Zipfian theta=0.99 over 1000
	// keys: hottest ≈ 1/zetan ≈ 12–13%. A wide margin keeps the test
	// robust while still catching a generator that degenerated to uniform.
	if uf > 0.01 {
		t.Errorf("uniform hottest key holds %.2f%% of draws, want < 1%%", 100*uf)
	}
	if zf < 0.05 {
		t.Errorf("zipfian hottest key holds %.2f%% of draws, want > 5%%", 100*zf)
	}
	// The scramble must spread the hot ranks across the keyspace, not pin
	// them to the low keys: the hottest key should rarely be key 1.
	if len(zipf) < n/4 {
		t.Errorf("zipfian touched only %d of %d keys", len(zipf), n)
	}
}

func TestHotspotFraction(t *testing.T) {
	const n, draws = 1000, 200000
	frac := 0.8
	counts := drawCounts(t, Spec{KeyRange: n, Dist: DistHotspot, Skew: frac}, draws)
	// Reconstruct the hot set exactly as the generator does: the image of
	// ranks [0, n/10) under the scramble.
	hot := make(map[uint64]bool)
	for r := uint64(0); r < n/10; r++ {
		hot[mixKey(r)%n+1] = true
	}
	hotDraws := 0
	for k, c := range counts {
		if hot[k] {
			hotDraws += c
		}
	}
	got := float64(hotDraws) / float64(draws)
	// The cold path can also land in the hot set by chance (~10%), so the
	// observed hot fraction is frac + (1-frac)*|hot|/n ≈ 0.82.
	want := frac + (1-frac)*float64(len(hot))/float64(n)
	if math.Abs(got-want) > 0.02 {
		t.Errorf("hot-set fraction = %.3f, want ≈ %.3f", got, want)
	}
}

func TestKeyGenUnknownDistPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown distribution should panic")
		}
	}()
	Spec{KeyRange: 10, Dist: "bogus"}.KeyGen()
}
