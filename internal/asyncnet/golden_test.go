package asyncnet

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"runtime"
	"slices"
	"testing"

	"odeproto/internal/core"
	"odeproto/internal/ode"
	"odeproto/internal/sim"
)

// The digests below pin the absolute output of the virtual-time scheduler
// — the stream internal/service caches asyncnet jobs under. They were
// generated from the code as it stood before asyncnet took its compiled
// protocol table from internal/sim and must never be edited to make a
// change pass: a mismatch means every persisted asyncnet result is stale.
// The overlapping-instances case and TestGoldenRunnerSweepSim were added
// later, generated from the code as it stood while processes still kept
// their in-flight instances, query routes and transitions in maps.

// hashOutcome folds a run's observable output into h: counts in state
// order, the nonzero transition tallies sorted by edge name, and the
// message total.
func hashOutcome(h hash.Hash, states []ode.Var, counts map[ode.Var]int, trans sim.Transitions, sent int) {
	for _, s := range states {
		fmt.Fprintf(h, "%s=%d ", s, counts[s])
	}
	names := slices.Sorted(slices.Values(trans.States))
	for _, from := range names {
		for _, to := range names {
			if n := trans.Edge(from, to); n != 0 {
				fmt.Fprintf(h, "%s>%s:%d ", from, to, n)
			}
		}
	}
	fmt.Fprintf(h, "sent=%d\n", sent)
}

// atGOMAXPROCS runs digest at GOMAXPROCS 1 and 4 and asserts both equal
// want: a virtual run is a pure function of its Config.
func atGOMAXPROCS(t *testing.T, want string, digest func(t *testing.T) string) {
	t.Helper()
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		got := digest(t)
		runtime.GOMAXPROCS(prev)
		if got != want {
			t.Errorf("GOMAXPROCS=%d: digest %s, want %s", procs, got, want)
		}
	}
}

func TestGoldenVirtualRun(t *testing.T) {
	cases := []struct {
		name string
		cfg  func(t *testing.T) Config
		want string
	}{
		{
			// Every message kind but tokens: SampleAny queries and replies,
			// timeouts, Push converts, with drift, loss and delay on.
			name: "sample-any+push",
			cfg:  endemicConfig,
			want: "2b459b86ad8feb0ea0f50908aed1641613520641c395dd9fd99ae0d313b9cd71",
		},
		{
			name: "sample+flip",
			cfg: func(t *testing.T) Config {
				return Config{
					N: 400,
					Protocol: mustTranslate(t, "x' = -4*x*y + 0.5*z\ny' = 4*x*y - 0.5*y\nz' = 0.5*y - 0.5*z",
						core.Options{}),
					Initial: map[ode.Var]int{"x": 300, "y": 80, "z": 20},
					Seed:    2004,
					Periods: 40,
				}
			},
			want: "238272c1c5431c402881029cba4dd4453ee866ba3a0ca478e6fa70e3f5a52bba",
		},
		{
			// Token hops forwarded until the TTL expires, over a lossy net.
			name: "token",
			cfg: func(t *testing.T) Config {
				return Config{
					N:        500,
					Protocol: mustTranslate(t, "x' = -y^2\ny' = y^2", core.Options{}),
					Initial:  map[ode.Var]int{"x": 450, "y": 50},
					Seed:     17,
					Periods:  30,
					DropProb: 0.1,
					TokenTTL: 4,
				}
			},
			want: "3d5cd3269aebac9d394719c10b9c4eff611819ba56475ced916c8d28dd048351",
		},
		{
			// A two-sample Sample action under Drift 0.9: a period can be
			// shorter than the BasePeriod/2 timeout, so one process holds
			// instances from two periods at once, and 30 % loss leaves many
			// of them to time out with some samples missing.
			name: "overlapping-instances",
			cfg: func(t *testing.T) Config {
				return Config{
					N:        400,
					Protocol: mustTranslate(t, "x' = -3*x*y^2 + y\ny' = 3*x*y^2 - y", core.Options{}),
					Initial:  map[ode.Var]int{"x": 100, "y": 300},
					Seed:     77,
					Periods:  20,
					Drift:    0.9,
					DropProb: 0.3,
				}
			},
			want: "5168e7023b90022581d91a4bd69469d89b62f345420908e3aa395b1057779838",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			atGOMAXPROCS(t, tc.want, func(t *testing.T) string {
				cfg := tc.cfg(t)
				res, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				h := sha256.New()
				hashOutcome(h, cfg.Protocol.States, res.Counts, res.Transitions, res.MessagesSent)
				return fmt.Sprintf("%x", h.Sum(nil))
			})
		})
	}
}

// TestGoldenRunnerSegments pins the harness adapter's segment chain: each
// segment's seed derives from (base seed, segment index) and its initial
// population is the previous segment's final one, hashed after every
// segment.
func TestGoldenRunnerSegments(t *testing.T) {
	const want = "2d7a7233e8dd21cbebfe09c44e301454798ecde5b7408aeceaa6ad572a4274e0"
	atGOMAXPROCS(t, want, func(t *testing.T) string {
		cfg := endemicConfig(t)
		r, err := NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for _, periods := range []int{5, 3, 1} {
			r.Run(periods)
			if err := r.Err(); err != nil {
				t.Fatal(err)
			}
			hashOutcome(h, cfg.Protocol.States, r.Counts(), r.TransitionsTotal(), r.MessagesSent())
		}
		return fmt.Sprintf("%x", h.Sum(nil))
	})
}

// TestGoldenRunnerSweepSim pins the asyncnet job of the sweep-sim
// benchmark workload exactly as the service runs it: the endemic protocol
// (β = 4, γ = 1, α = 0.01) at N = 5 000 from 4 500 / 500 / 0, one Step per
// recorded period for 12 periods, hashed after every segment.
func TestGoldenRunnerSweepSim(t *testing.T) {
	const want = "511733b0011935d11fdd63cddb6955479b4702741687ab49c05e9ff9eec60113"
	atGOMAXPROCS(t, want, func(t *testing.T) string {
		cfg := sweepSimConfig(t)
		r, err := NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for range 12 {
			r.Step()
			if err := r.Err(); err != nil {
				t.Fatal(err)
			}
			hashOutcome(h, cfg.Protocol.States, r.Counts(), r.TransitionsTotal(), r.MessagesSent())
		}
		return fmt.Sprintf("%x", h.Sum(nil))
	})
}

// sweepSimConfig is the sweep-sim workload's asyncnet job as a Runner
// config (Periods is supplied per segment).
func sweepSimConfig(t testing.TB) Config {
	t.Helper()
	sys, err := ode.Parse("x' = -beta*x*y + alpha*z\ny' = beta*x*y - gamma*y\nz' = gamma*y - alpha*z",
		map[string]float64{"beta": 4, "gamma": 1, "alpha": 0.01})
	if err != nil {
		t.Fatal(err)
	}
	proto, err := core.Translate(sys, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		N:        5000,
		Protocol: proto,
		Initial:  map[ode.Var]int{"x": 4500, "y": 500, "z": 0},
		Seed:     2_000_000_003,
	}
}
