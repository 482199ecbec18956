package sim

import (
	"math"
	"testing"
)

// checkBinomialMoments draws `draws` samples of Binomial(n, p) and checks
// the sample mean and variance against np and np(1−p). The mean tolerance
// is 6 standard errors; the variance tolerance is a generous relative band
// (the approximation branches are moment-matched, not exact).
func checkBinomialMoments(t *testing.T, rng Stream, n int, p float64, draws int) {
	t.Helper()
	mean := float64(n) * p
	variance := mean * (1 - p)
	var sum, sumSq float64
	for i := 0; i < draws; i++ {
		k := Binomial(rng, n, p)
		if k < 0 || k > n {
			t.Fatalf("Binomial(%d, %v) = %d outside [0, n]", n, p, k)
		}
		sum += float64(k)
		sumSq += float64(k) * float64(k)
	}
	m := sum / float64(draws)
	v := sumSq/float64(draws) - m*m
	if tol := 6 * math.Sqrt(variance/float64(draws)); math.Abs(m-mean) > tol+1e-9 {
		t.Errorf("Binomial(%d, %v): sample mean %v, want %v ± %v", n, p, m, mean, tol)
	}
	// Var(sample variance) ≈ 2σ⁴/draws for near-normal k, plus slack for
	// the clamped tails of the approximations.
	if tol := 6*variance*math.Sqrt(2/float64(draws)) + 0.05*variance + 0.5; math.Abs(v-variance) > tol {
		t.Errorf("Binomial(%d, %v): sample variance %v, want %v ± %v", n, p, v, variance, tol)
	}
}

// TestBinomialMomentsAcrossBranches straddles every crossover of the
// sampler: the exact-Bernoulli/approximation boundary at n = 1024↔1025,
// the variance ≈ 30 normal/Poisson split, and the p > 0.5 reflection.
func TestBinomialMomentsAcrossBranches(t *testing.T) {
	rng := NewStream(424242)
	const draws = 20000
	cases := []struct {
		name string
		n    int
		p    float64
	}{
		{"exact boundary n=1024", 1024, 0.3},
		{"approx boundary n=1025 normal branch", 1025, 0.3},   // variance ≈ 215 ≥ 30
		{"approx boundary n=1025 poisson branch", 1025, 0.02}, // variance ≈ 20 < 30
		{"variance just below 30", 100000, 0.00029},           // variance ≈ 29 → Poisson
		{"variance just above 30", 100000, 0.00031},           // variance ≈ 31 → normal
		{"reflection p=0.85", 2000, 0.85},                     // reflects to Binomial(n, 0.15)
		{"reflection large n p=0.999", 100000, 0.999},         // reflects into the Poisson branch
		{"exact small n high p", 64, 0.9},                     // reflection then exact loop
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkBinomialMoments(t, rng, tc.n, tc.p, draws)
		})
	}
}

// TestBinomialClampAboveOne: p past 1 clamps to "everyone fires" (the
// remaining edge cases live in aggregate_test.go's TestBinomialEdgeCases).
func TestBinomialClampAboveOne(t *testing.T) {
	rng := NewStream(7)
	if got := Binomial(rng, 100000, 1.5); got != 100000 {
		t.Errorf("Binomial(100000, 1.5) = %d", got)
	}
}

// TestPoissonMomentsAcrossCrossover straddles the Knuth/normal switch at
// mean = 64 (the Binomial sampler can only reach the Knuth side, so the
// normal side is exercised directly).
func TestPoissonMomentsAcrossCrossover(t *testing.T) {
	rng := NewStream(99)
	const draws = 20000
	for _, mean := range []float64{0.5, 63.9, 64.1, 200} {
		var sum, sumSq float64
		for i := 0; i < draws; i++ {
			k := Poisson(rng, mean)
			if k < 0 {
				t.Fatalf("Poisson(%v) = %d negative", mean, k)
			}
			sum += float64(k)
			sumSq += float64(k) * float64(k)
		}
		m := sum / float64(draws)
		v := sumSq/float64(draws) - m*m
		if tol := 6 * math.Sqrt(mean/float64(draws)); math.Abs(m-mean) > tol+1e-9 {
			t.Errorf("Poisson(%v): sample mean %v, want ± %v", mean, m, tol)
		}
		if tol := 6*mean*math.Sqrt(2/float64(draws)) + 0.05*mean + 0.5; math.Abs(v-mean) > tol {
			t.Errorf("Poisson(%v): sample variance %v, want %v ± %v", mean, v, mean, tol)
		}
	}
	if got := Poisson(rng, 0); got != 0 {
		t.Errorf("Poisson(0) = %d", got)
	}
}
