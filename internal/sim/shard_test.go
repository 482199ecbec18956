package sim

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"odeproto/internal/core"
	"odeproto/internal/ode"
)

// shardTrajectory runs the endemic protocol for `periods` periods at the
// given shard count and returns the per-period count vectors (in state
// order) — the byte-comparable execution trace.
func shardTrajectory(t *testing.T, shards, periods int) [][]int {
	t.Helper()
	e, err := New(Config{
		N:        1200,
		Protocol: endemicProto(t, 4, 0.5, 0.5), // equilibrium keeps every state populated
		Initial:  map[ode.Var]int{"x": 1000, "y": 150, "z": 50},
		Seed:     2004,
		Shards:   shards,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]int, periods)
	for i := 0; i < periods; i++ {
		e.Step()
		row := make([]int, 0, 3)
		for _, s := range []ode.Var{"x", "y", "z"} {
			row = append(row, e.Count(s))
		}
		out[i] = row
	}
	return out
}

func TestShardValidation(t *testing.T) {
	proto := epidemicProto(t)
	if _, err := New(Config{N: 10, Protocol: proto, Initial: map[ode.Var]int{"x": 9, "y": 1}, Shards: -1}); err == nil {
		t.Fatal("negative shard count accepted")
	}
	if _, err := New(Config{N: 10, Protocol: proto, Initial: map[ode.Var]int{"x": 9, "y": 1}, Shards: 11}); err == nil {
		t.Fatal("shard count above N accepted")
	}
}

// TestShardedK1IsSerial: Shards = 1 must be bit-identical to the default
// (Shards = 0) single-stream engine — the pinned-figure compatibility
// contract.
func TestShardedK1IsSerial(t *testing.T) {
	serial := shardTrajectory(t, 0, 60)
	k1 := shardTrajectory(t, 1, 60)
	if !reflect.DeepEqual(serial, k1) {
		t.Fatal("Shards = 1 diverged from the serial engine")
	}
}

// TestShardedWorkerCountIndependence: for a fixed K the trajectory must be
// byte-identical at every worker-pool size, which GOMAXPROCS sets — the
// determinism contract the harness Sweep gives jobs, extended into the
// engine.
func TestShardedWorkerCountIndependence(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	reference := shardTrajectory(t, 4, 60)
	for _, procs := range []int{2, 3, 4, prev} {
		runtime.GOMAXPROCS(procs)
		if got := shardTrajectory(t, 4, 60); !reflect.DeepEqual(got, reference) {
			t.Fatalf("K=4 trajectory differs at GOMAXPROCS=%d", procs)
		}
	}
}

// TestShardedGoldenK4 pins the K = 4 stream so accidental changes to the
// shard seed derivation, partitioning, or barrier order are caught — the
// sharded analogue of the pinned Figure-2 determinism tests.
func TestShardedGoldenK4(t *testing.T) {
	got := shardTrajectory(t, 4, 60)
	want := map[int][]int{ // period -> {x, y, z} counts
		0:  {874, 260, 66},
		29: {151, 539, 510},
		59: {152, 528, 520},
	}
	for period, counts := range want {
		if !reflect.DeepEqual(got[period], counts) {
			t.Fatalf("K=4 golden mismatch at period %d: got %v, want %v", period, got[period], counts)
		}
	}
}

// TestShardedDriftMatchesMeanField: the sharded engine simulates the same
// protocol — one-period transition counts from a fixed configuration still
// match N·(expected flow) within sampling noise at K = 8.
func TestShardedDriftMatchesMeanField(t *testing.T) {
	const n = 200000
	proto := endemicProto(t, 4, 1.0, 0.01)
	initial := map[ode.Var]int{"x": n / 2, "y": n * 3 / 10, "z": n / 5}
	e, err := New(Config{N: n, Protocol: proto, Initial: initial, Seed: 99, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	point := e.Fractions()
	e.Step()
	trans := e.TransitionsLastPeriod()
	for _, a := range proto.Actions {
		want := float64(n) * point[a.Owner] * a.FireProbability(point)
		got := float64(trans[[2]ode.Var{a.From, a.To}])
		sigma := math.Sqrt(want * (1 - a.FireProbability(point)))
		if math.Abs(got-want) > 6*sigma+1 {
			t.Fatalf("edge %s->%s: got %v transitions, want %v ± %v", a.From, a.To, got, want, 6*sigma)
		}
	}
}

// TestShardedConservationUnderStress: counts always sum to alive across
// sharded periods interleaved with kills, revives, pushes, and the
// cross-shard intent machinery.
func TestShardedConservationUnderStress(t *testing.T) {
	proto := endemicProto(t, 4, 1, 0.01)
	proto.Actions = append(proto.Actions, core.Action{
		Kind: core.Push, Owner: "y", From: "x", To: "y", Coin: 1,
		Samples: []ode.Var{"x", "x"},
	})
	e, err := New(Config{
		N:        5000,
		Protocol: proto,
		Initial:  map[ode.Var]int{"x": 4000, "y": 900, "z": 100},
		Seed:     8,
		Shards:   4,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := e.Rand()
	for i := 0; i < 100; i++ {
		e.Step()
		if i%10 == 3 {
			e.KillFraction(0.05)
		}
		if i%10 == 7 {
			for p := 0; p < e.N(); p++ {
				if e.StateOf(p) == Down && rng.Float64() < 0.5 {
					if err := e.Revive(p, "x"); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		total := 0
		for _, c := range e.Counts() {
			total += c
		}
		if total != e.Alive() {
			t.Fatalf("period %d: counts sum %d != alive %d", i, total, e.Alive())
		}
	}
}

// TestShardedCrossShardPush: with the pushing state confined to one shard
// and its targets to another (the engine lays processes out in state
// order), every landing push crosses a shard boundary through the barrier
// intent queue.
func TestShardedCrossShardPush(t *testing.T) {
	proto := epidemicProto(t)
	// Strip the sampling action and push from y into x instead, so all
	// conversions go through Push.
	proto.Actions = []core.Action{{
		Kind: core.Push, Owner: "y", From: "x", To: "y", Coin: 1,
		Samples: []ode.Var{"x"},
	}}
	e, err := New(Config{
		N:        1000,
		Protocol: proto,
		Initial:  map[ode.Var]int{"x": 500, "y": 500}, // x = procs 0..499, y = 500..999
		Seed:     13,
		Shards:   2, // shard 0 owns all of x, shard 1 all of y
	})
	if err != nil {
		t.Fatal(err)
	}
	var hooked int
	e.cfg.OnTransition = func(proc int, from, to ode.Var, period int) {
		if proc >= 500 {
			t.Errorf("push moved process %d, which never held state x", proc)
		}
		hooked++
	}
	e.Step()
	moved := e.TransitionsLastPeriod()[[2]ode.Var{"x", "y"}]
	if moved == 0 {
		t.Fatal("no cross-shard pushes landed")
	}
	if hooked != moved {
		t.Fatalf("hooks fired %d times, transitions %d", hooked, moved)
	}
	if e.Count("x")+e.Count("y") != 1000 {
		t.Fatalf("conservation broken: %v", e.Counts())
	}
}

// TestShardedTokenDelivery: tokens resolve at the barrier from a dedicated
// stream; drift still matches the mean field and nothing is lost while
// targets are plentiful.
func TestShardedTokenDelivery(t *testing.T) {
	const n = 100000
	proto := mustTranslate(t, "x' = -y^2\ny' = y^2", nil, core.Options{})
	e, err := New(Config{
		N:        n,
		Protocol: proto,
		Initial:  map[ode.Var]int{"x": n / 2, "y": n / 2},
		Seed:     17,
		Shards:   4,
	})
	if err != nil {
		t.Fatal(err)
	}
	point := e.Fractions()
	e.Step()
	got := float64(e.TransitionsLastPeriod()[[2]ode.Var{"x", "y"}])
	want := float64(n) * proto.P * point["y"] * point["y"]
	sigma := math.Sqrt(want)
	if math.Abs(got-want) > 8*sigma+1 {
		t.Fatalf("sharded token drift %v, want %v", got, want)
	}
	if e.TokensLostLastPeriod() != 0 {
		t.Fatalf("tokens lost with plentiful targets: %d", e.TokensLostLastPeriod())
	}
}

// TestShardedMillionProcessSmoke drives the sharded engine at the paper's
// beyond-evaluation scale (the §5 evaluation tops out at 100,000 hosts):
// one million processes, four shards, conserving counts every period.
func TestShardedMillionProcessSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("million-process smoke test skipped in -short mode")
	}
	const n = 1_000_000
	proto := endemicProto(t, 2, 0.1, 0.001)
	e, err := New(Config{
		N:        n,
		Protocol: proto,
		Initial:  map[ode.Var]int{"x": n - n/10, "y": n / 10, "z": 0},
		Seed:     1,
		Shards:   4,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		e.Step()
		total := 0
		for _, c := range e.Counts() {
			total += c
		}
		if total != e.Alive() || total != n {
			t.Fatalf("period %d: counts sum %d, alive %d, want %d", i, total, e.Alive(), n)
		}
	}
	if len(e.TransitionsLastPeriod()) == 0 {
		t.Fatal("no transitions at million-process scale")
	}
}
