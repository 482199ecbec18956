package sim

import (
	"math"
	"math/rand"

	"odeproto/internal/mt19937"
)

// Stream is the aggregate engine's random stream: one Mersenne Twister read
// two ways. Bernoulli counts and Knuth's products are drawn straight off the
// generator (CountBelow, RandFloat64: the values rand.(*Rand).Float64 would
// return, in its order); normal deviates come from a rand.Rand over the same
// generator. The two interleave on one stream only because rand.Rand
// buffers nothing for Float64, Int63, Intn or NormFloat64, so nothing may
// call its Read.
type Stream struct {
	mt  *mt19937.MT19937
	rng *rand.Rand
}

// NewStream returns the stream seeded with seed; its values are those of
// rand.New(mt19937.New(seed)).
func NewStream(seed int64) Stream {
	mt := mt19937.New(seed)
	return Stream{mt: mt, rng: rand.New(mt)}
}

// Binomial draws from Binomial(n, p), reflecting p > 0.5 to n −
// Binomial(n, 1−p). The branches, and what one call costs:
//
//	n ≤ 1024              exact: n Bernoulli draws, O(n)
//	np(1−p) ≥ 30          normal approximation, rounded and clamped, O(1)
//	otherwise             Poisson(np) clamped to n, O(np) (Knuth)
//
// so an aggregate period costs O(#actions) only once every action's
// population exceeds 1024; below that it costs a draw per process. The
// Poisson branch overstates the variance by 1/(1−p), at most about 3 %
// there. The approximations are standard for population simulation
// (tau-leaping).
func Binomial(s Stream, n int, p float64) int {
	if n <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	if p > 0.5 {
		return n - Binomial(s, n, 1-p)
	}
	if n <= 1024 {
		return s.mt.CountBelow(n, p)
	}
	mean := float64(n) * p
	variance := mean * (1 - p)
	if variance >= 30 {
		k := int(math.Round(s.rng.NormFloat64()*math.Sqrt(variance) + mean))
		if k < 0 {
			return 0
		}
		if k > n {
			return n
		}
		return k
	}
	// Small mean: Poisson approximation, clamped to n.
	k := Poisson(s, mean)
	if k > n {
		return n
	}
	return k
}

// Poisson draws from Poisson(mean) using Knuth's product method for small
// means and a normal approximation for large means.
func Poisson(s Stream, mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 64 {
		k := int(math.Round(s.rng.NormFloat64()*math.Sqrt(mean) + mean))
		if k < 0 {
			return 0
		}
		return k
	}
	limit := math.Exp(-mean)
	k := 0
	prod := s.mt.RandFloat64()
	for prod > limit {
		k++
		prod *= s.mt.RandFloat64()
	}
	return k
}
