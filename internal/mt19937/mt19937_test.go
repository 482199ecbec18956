package mt19937

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestReferenceVector checks the first outputs against the canonical
// mt19937-64.out published with the reference C implementation, which is
// produced by init_by_array64({0x12345, 0x23456, 0x34567, 0x45678}).
func TestReferenceVector(t *testing.T) {
	m := &MT19937{}
	m.SeedBySlice([]uint64{0x12345, 0x23456, 0x34567, 0x45678})

	want := []uint64{
		7266447313870364031,
		4946485549665804864,
		16945909448695747420,
		16394063075524226720,
		4873882236456199058,
		14877448043947020171,
		6740343660852211943,
		13857871200353263164,
		5249110015610582907,
		10205081126064480383,
	}
	for i, w := range want {
		if got := m.Uint64(); got != w {
			t.Fatalf("output %d: got %d, want %d", i, got, w)
		}
	}
}

func TestSeedDeterminism(t *testing.T) {
	a, b := New(12345), New(12345)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs", same)
	}
}

func TestFloat64Range(t *testing.T) {
	m := New(7)
	for i := 0; i < 100000; i++ {
		f := m.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	m := New(99)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += m.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("mean of %d uniforms = %v, want ~0.5", n, mean)
	}
}

func TestInt63NonNegative(t *testing.T) {
	m := New(3)
	for i := 0; i < 10000; i++ {
		if v := m.Int63(); v < 0 {
			t.Fatalf("Int63 returned negative %d", v)
		}
	}
}

// TestRandSourceCompat verifies the generator plugs into math/rand.
func TestRandSourceCompat(t *testing.T) {
	r := rand.New(New(42))
	counts := make([]int, 10)
	const draws = 100000
	for i := 0; i < draws; i++ {
		counts[r.Intn(10)]++
	}
	for d, c := range counts {
		frac := float64(c) / draws
		if math.Abs(frac-0.1) > 0.01 {
			t.Fatalf("digit %d frequency %v, want ~0.1", d, frac)
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(5)
	c1 := parent.Split(1)
	c2 := parent.Split(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("split streams collided %d times", same)
	}
}

func TestSplitReproducible(t *testing.T) {
	a := New(5).Split(7)
	b := New(5).Split(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("split with same lineage diverged at %d", i)
		}
	}
}

// Property: uint64 outputs should have roughly half their bits set on
// average (equidistribution sanity, not a strict PRNG test).
func TestBitBalance(t *testing.T) {
	f := func(seed int64) bool {
		m := New(seed)
		ones := 0
		const draws = 2000
		for i := 0; i < draws; i++ {
			v := m.Uint64()
			for v != 0 {
				ones += int(v & 1)
				v >>= 1
			}
		}
		frac := float64(ones) / float64(draws*64)
		return math.Abs(frac-0.5) < 0.02
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// untemper inverts temper, so a test can choose the words a generator
// returns next.
func untemper(y uint64) uint64 {
	y ^= y >> 43
	y ^= (y << 37) & 0xFFF7EEE000000000
	x := y
	for range 4 {
		x = y ^ ((x << 17) & 0x71D67FFFEDA60000)
	}
	y = x
	for range 3 {
		x = y ^ ((x >> 29) & 0x5555555555555555)
	}
	return x
}

// plant makes at[j] the word the (j+1)-th next m.Uint64 returns, by writing
// it untempered into the rest of the current state block.
func plant(t *testing.T, m *MT19937, at map[int]uint64) {
	t.Helper()
	if m.index >= nn {
		m.generate()
	}
	for j, w := range at {
		if m.index+j >= nn {
			t.Fatalf("word %d lies past the state block", j)
		}
		m.state[m.index+j] = untemper(w)
	}
}

// boundary is the least Int63 value v with float64(v)/2⁶³ >= p: the first
// rand.Float64 value not below p, found by bisection on the definition.
func boundary(p float64) uint64 {
	lo, hi := uint64(0), uint64(1<<63)
	for lo < hi {
		mid := lo + (hi-lo)/2
		if float64(mid)/(1<<63) < p {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// randomP draws a probability in (0, 0.5], often 0.5, a power of two or a
// neighbour of one, where p·2⁶³ is exact or nearly so.
func randomP(pick *rand.Rand) float64 {
	switch pick.Intn(4) {
	case 0:
		return 0.5
	case 1:
		return math.Ldexp(1, -1-pick.Intn(62))
	case 2:
		return math.Nextafter(math.Ldexp(1, -2-pick.Intn(61)), float64(pick.Intn(2)))
	default:
		return 0.5 * (1 - pick.Float64())
	}
}

func TestUntemperInvertsTemper(t *testing.T) {
	m := New(11)
	for range 10000 {
		if w := m.Uint64(); temper(untemper(w)) != w {
			t.Fatalf("temper(untemper(%#x)) = %#x", w, temper(untemper(w)))
		}
	}
}

// TestCountBelowMatchesRandFloat64 runs CountBelow and RandFloat64 on one
// generator and rand.New(...).Float64 on a copy of it, interleaved with
// NormFloat64 and Intn on both, and asserts equal counts, equal values and
// the same next word. The state block is salted with the words where a
// slip would show: Int63 values that round to 2⁶³ (math/rand redraws them),
// the largest that do not, and the values either side of the first one not
// below p.
func TestCountBelowMatchesRandFloat64(t *testing.T) {
	pick := rand.New(rand.NewSource(2024))
	for trial := range 3000 {
		p := randomP(pick)
		first := boundary(p)
		m := New(pick.Int63())
		if pick.Intn(4) > 0 {
			m.index = pick.Intn(nn + 1)
		}
		if m.index >= nn {
			m.generate()
		}
		at := make(map[int]uint64)
		for j := range nn - m.index {
			switch pick.Intn(24) {
			case 0:
				at[j] = (redraw + uint64(pick.Intn(512))) << 1
			case 1:
				at[j] = (redraw - 1 - uint64(pick.Intn(512))) << 1
			case 2:
				at[j] = first << 1
			case 3:
				at[j] = (first - 1) << 1
			}
		}
		plant(t, m, at)
		ref := *m
		mr, rr := rand.New(m), rand.New(&ref)
		for step := range 4 {
			n := pick.Intn(1025)
			want := 0
			for range n {
				if rr.Float64() < p {
					want++
				}
			}
			if got := m.CountBelow(n, p); got != want {
				t.Fatalf("trial %d step %d: CountBelow(%d, %v) = %d, rand.Float64 counts %d", trial, step, n, p, got, want)
			}
			switch pick.Intn(3) {
			case 0:
				if a, b := mr.NormFloat64(), rr.NormFloat64(); a != b {
					t.Fatalf("trial %d step %d: NormFloat64 %v != %v", trial, step, a, b)
				}
			case 1:
				if a, b := mr.Intn(1000), rr.Intn(1000); a != b {
					t.Fatalf("trial %d step %d: Intn %d != %d", trial, step, a, b)
				}
			default:
				if a, b := m.RandFloat64(), rr.Float64(); a != b {
					t.Fatalf("trial %d step %d: RandFloat64 %v != rand.Float64 %v", trial, step, a, b)
				}
			}
		}
		if a, b := m.Uint64(), ref.Uint64(); a != b {
			t.Fatalf("trial %d: next words differ: %#x != %#x", trial, a, b)
		}
	}
}

// TestCountBelowBoundaries walks single Int63 values v, each followed by
// the value 0, through CountBelow(1, p) and RandFloat64, against
// rand.Float64 on a copy and against the rule itself:
//   - every v in [2⁶³−1024, 2⁶³) at p just below 1, where p·2⁶³ is 2⁶³−1024:
//     a v that is kept counts 0, and a v that is redrawn is replaced by the
//     0, which counts 1. The count is the redraw rule, float64(v)/2⁶³ == 1.
//   - the 16 values either side of the first one not below p, for 2 000
//     values of p: the count is float64(v)/2⁶³ < p.
func TestCountBelowBoundaries(t *testing.T) {
	var base MT19937
	base.Seed(3)
	base.generate()
	check := func(v uint64, p float64, want int) {
		t.Helper()
		m := base
		plant(t, &m, map[int]uint64{0: v << 1, 1: 0})
		ref, one := m, m
		randCount := 0
		if rand.New(&ref).Float64() < p {
			randCount = 1
		}
		if got := m.CountBelow(1, p); got != want || got != randCount {
			t.Fatalf("p = %v, v = %d: CountBelow = %d, rand.Float64 counts %d, the rule %d", p, v, got, randCount, want)
		}
		if m.Uint64() != ref.Uint64() {
			t.Fatalf("p = %v, v = %d: CountBelow consumed other words than rand.Float64", p, v)
		}
		wantF := float64(v) / (1 << 63)
		if wantF == 1 {
			wantF = 0
		}
		if f := one.RandFloat64(); f != wantF {
			t.Fatalf("v = %d: RandFloat64 = %v, want %v", v, f, wantF)
		}
	}

	p := math.Nextafter(1, 0)
	for v := uint64(1<<63 - 1024); v < 1<<63; v++ {
		want := 0
		if float64(v)/(1<<63) == 1 {
			want = 1
		}
		check(v, p, want)
	}

	pick := rand.New(rand.NewSource(7))
	for range 2000 {
		p := randomP(pick)
		first := boundary(p)
		for v := max(first, 16) - 16; v < first+16; v++ {
			want := 0
			if float64(v)/(1<<63) < p {
				want = 1
			}
			check(v, p, want)
		}
	}
}
