// Package mt19937 implements the MT19937-64 Mersenne Twister pseudorandom
// number generator.
//
// The paper's evaluation (§5) states that "the Mersenne Twister pseudorandom
// generator is used for random number generation"; this package reproduces
// that choice from scratch so every engine in the repository can be driven by
// the same generator family the paper used. The implementation follows the
// reference algorithm by Matsumoto and Nishimura (2004, 64-bit variant).
//
// The generator satisfies math/rand's Source and Source64 interfaces, so it
// can back a *rand.Rand:
//
//	rng := rand.New(mt19937.New(42))
//
// Float64 is the generator's own 53-bit uniform, not rng.Float64; that one
// is RandFloat64, and CountBelow counts a run of them against a threshold
// without a call per value. Swapping one kind for the other moves every
// stream drawn through it (the aggregate engine's goldens among them).
package mt19937

import "math"

const (
	nn        = 312
	mm        = 156
	matrixA   = 0xB5026F5AA96619E9
	upperMask = 0xFFFFFFFF80000000
	lowerMask = 0x7FFFFFFF
)

// MT19937 is a 64-bit Mersenne Twister generator. It is not safe for
// concurrent use; give each goroutine its own instance (see Split).
type MT19937 struct {
	state [nn]uint64
	index int
}

// New returns a generator seeded with seed.
func New(seed int64) *MT19937 {
	m := &MT19937{}
	m.Seed(seed)
	return m
}

// Seed reinitializes the generator state from seed.
func (m *MT19937) Seed(seed int64) {
	m.state[0] = uint64(seed)
	for i := 1; i < nn; i++ {
		m.state[i] = 6364136223846793005*(m.state[i-1]^(m.state[i-1]>>62)) + uint64(i)
	}
	m.index = nn
}

// SeedBySlice initializes the state from a key array, following the
// reference init_by_array64 routine. Useful for seeding from multiple
// independent quantities (e.g. experiment ID and host ID).
func (m *MT19937) SeedBySlice(key []uint64) {
	m.Seed(19650218)
	i, j := 1, 0
	k := len(key)
	if nn > k {
		k = nn
	}
	for ; k > 0; k-- {
		m.state[i] = (m.state[i] ^ ((m.state[i-1] ^ (m.state[i-1] >> 62)) * 3935559000370003845)) + key[j] + uint64(j)
		i++
		j++
		if i >= nn {
			m.state[0] = m.state[nn-1]
			i = 1
		}
		if j >= len(key) {
			j = 0
		}
	}
	for k = nn - 1; k > 0; k-- {
		m.state[i] = (m.state[i] ^ ((m.state[i-1] ^ (m.state[i-1] >> 62)) * 2862933555777941757)) - uint64(i)
		i++
		if i >= nn {
			m.state[0] = m.state[nn-1]
			i = 1
		}
	}
	m.state[0] = 1 << 63
	m.index = nn
}

// Uint64 returns the next 64 bits from the generator.
func (m *MT19937) Uint64() uint64 {
	if m.index >= nn {
		m.generate()
	}
	x := m.state[m.index]
	m.index++
	return temper(x)
}

func temper(x uint64) uint64 {
	x ^= (x >> 29) & 0x5555555555555555
	x ^= (x << 17) & 0x71D67FFFEDA60000
	x ^= (x << 37) & 0xFFF7EEE000000000
	return x ^ x>>43
}

func (m *MT19937) generate() {
	for i := 0; i < nn-mm; i++ {
		x := (m.state[i] & upperMask) | (m.state[i+1] & lowerMask)
		m.state[i] = m.state[i+mm] ^ (x >> 1) ^ ((x & 1) * matrixA)
	}
	for i := nn - mm; i < nn-1; i++ {
		x := (m.state[i] & upperMask) | (m.state[i+1] & lowerMask)
		m.state[i] = m.state[i+mm-nn] ^ (x >> 1) ^ ((x & 1) * matrixA)
	}
	x := (m.state[nn-1] & upperMask) | (m.state[0] & lowerMask)
	m.state[nn-1] = m.state[mm-1] ^ (x >> 1) ^ ((x & 1) * matrixA)
	m.index = 0
}

// Int63 returns a non-negative 63-bit integer, satisfying rand.Source.
func (m *MT19937) Int63() int64 {
	return int64(m.Uint64() >> 1)
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
// It is not rand.(*Rand).Float64 over this source (that is RandFloat64):
// the two map the same word to different values, and swapping one for the
// other moves every stream drawn through it.
func (m *MT19937) Float64() float64 {
	return float64(m.Uint64()>>11) / (1 << 53)
}

// RandFloat64 returns the value rand.New(m).Float64() would: Int63 over
// 2⁶³, drawn again when that rounds to 1. It reads the same words in the
// same order, so the two calls may interleave on one generator.
func (m *MT19937) RandFloat64() float64 {
	for {
		if f := float64(m.Uint64() >> 1); f != 1<<63 {
			return f / (1 << 63)
		}
	}
}

// CountBelow draws the next n RandFloat64 values and returns how many are
// below p, for p in [0, 1]. It consumes exactly the words n calls of
// rand.New(m).Float64() would and reaches the same count, reading the state
// in place without a call or a division per value: it skips the Int63
// values v that math/rand redraws and counts those below threshold(p·2⁶³),
// as float64(v)/2⁶³ < p is float64(v) < p·2⁶³ (both sides scaled by a
// power of two).
func (m *MT19937) CountBelow(n int, p float64) int {
	below := threshold(p * (1 << 63))
	k := 0
	for n > 0 {
		if m.index >= nn {
			m.generate()
		}
		block := m.state[m.index:]
		j := 0
		for ; j < len(block) && n > 0; j++ {
			v := temper(block[j]) >> 1
			if v >= redraw {
				continue
			}
			if v < below {
				k++
			}
			n--
		}
		m.index += j
	}
	return k
}

// redraw is the least Int63 value whose float64 rounds to 2⁶³ (the tie at
// 2⁶³−512 goes to the even 2⁶³), the values math/rand's Float64 draws again.
const redraw = 1<<63 - 512

// threshold returns the least v whose float64 is at least t, for t in
// [0, 2⁶³]. Below 2⁵³ every integer is exact, so it is ⌈t⌉. From 2⁵³ on, t
// and its predecessor are integers, and v rounds to t or above from their
// midpoint on: from the midpoint itself only when that is an integer and
// t's mantissa is even (ties round to even).
func threshold(t float64) uint64 {
	if t < 1<<53 {
		return uint64(math.Ceil(t))
	}
	sum := uint64(math.Nextafter(t, 0)) + uint64(t)
	if sum%2 == 0 && math.Float64bits(t)%2 == 0 {
		return sum / 2
	}
	return sum/2 + 1
}

// Split derives an independent generator from this one, suitable for
// handing to another goroutine or simulated process. The child is seeded
// from the parent's stream plus the supplied stream identifier so that
// (seed, id) pairs give reproducible, decorrelated streams.
func (m *MT19937) Split(id uint64) *MT19937 {
	child := &MT19937{}
	child.SeedBySlice([]uint64{m.Uint64(), id, 0x9E3779B97F4A7C15})
	return child
}

// DeriveSeed deterministically derives the idx-th seed from a base seed:
// output idx of the splitmix64 generator started at base, so consecutive
// indices yield decorrelated streams. It is the one derivation behind
// harness job seeds, the agent engine's shard streams, asyncnet segment
// seeds and the virtual scheduler's tie-break sequence; it depends only on
// (base, idx), never on scheduling order, which is what keeps parallel
// execution reproducible.
func DeriveSeed(base int64, idx int) int64 {
	z := uint64(base) + uint64(idx+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}
