package sim_test

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"runtime"
	"sort"
	"testing"

	"odeproto/internal/core"
	"odeproto/internal/endemic"
	"odeproto/internal/ode"
	"odeproto/internal/sim"
)

// The digests below pin the absolute output stream of every synchronous
// engine configuration results are cached under: a draw-order slip in the
// interpreter would pass every self-comparing determinism test and stale
// every content-addressed blob in an existing -data directory. They were
// generated from the code as it stood before the serial and sharded
// interpreters were merged and must never be edited to make a change
// pass — a mismatch means the engine's stream moved.

func goldenProto(t *testing.T, src string, params map[string]float64) *core.Protocol {
	t.Helper()
	sys, err := ode.Parse(src, params)
	if err != nil {
		t.Fatal(err)
	}
	proto, err := core.Translate(sys, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return proto
}

// hashPeriod folds one period's observable output into h: counts in state
// order, the message and lost-token counters, and the transition tallies
// sorted by edge.
func hashPeriod(h hash.Hash, states []ode.Var, e *sim.Engine) {
	for _, s := range states {
		fmt.Fprintf(h, "%s=%d ", s, e.Count(s))
	}
	fmt.Fprintf(h, "msgs=%d lost=%d", e.MessagesLastPeriod(), e.TokensLostLastPeriod())
	trans := e.TransitionsLastPeriod()
	edges := make([][2]ode.Var, 0, len(trans))
	for k := range trans {
		edges = append(edges, k)
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i][0] != edges[j][0] {
			return edges[i][0] < edges[j][0]
		}
		return edges[i][1] < edges[j][1]
	})
	for _, k := range edges {
		if trans[k] != 0 {
			fmt.Fprintf(h, " %s>%s:%d", k[0], k[1], trans[k])
		}
	}
	fmt.Fprintln(h)
}

// atGOMAXPROCS runs digest at GOMAXPROCS 1 and 4 and asserts both equal
// want: the streams are scheduler-independent by contract.
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

const endemicSrc = `
x' = -beta*x*y + alpha*z
y' = beta*x*y - gamma*y
z' = gamma*y - alpha*z
`

var endemicParams = map[string]float64{"beta": 4, "gamma": 0.5, "alpha": 0.5}

const tokenSrc = "x' = -y^2\ny' = y^2"

func figure1Proto(t *testing.T) *core.Protocol {
	t.Helper()
	proto, err := endemic.NewFigure1Protocol(endemic.Params{B: 2, Gamma: 0.2, Alpha: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	return proto
}

// pushCoinProto is the endemic system plus a Push whose coin is below one,
// so the push path draws a coin per landing contact (Figure 1's push has
// coin 1 and draws none).
func pushCoinProto(t *testing.T) *core.Protocol {
	t.Helper()
	proto := goldenProto(t, endemicSrc, endemicParams)
	proto.Actions = append(proto.Actions, core.Action{
		Kind: core.Push, Owner: "y", From: "x", To: "y", Coin: 0.6,
		Samples: []ode.Var{"x", "x"},
	})
	return proto
}

func figure1Initial() map[ode.Var]int {
	return map[ode.Var]int{endemic.Receptive: 1400, endemic.Stash: 500, endemic.Averse: 100}
}

func TestGoldenAgentStreams(t *testing.T) {
	cases := []struct {
		name    string
		cfg     func(t *testing.T) sim.Config
		periods int
		// between runs after the period with the given index completes.
		between func(t *testing.T, e *sim.Engine, period int)
		hooks   bool // fold the OnTransition call sequence into the digest
		want    string
	}{
		{
			name: "serial/sample+flip",
			cfg: func(t *testing.T) sim.Config {
				return sim.Config{N: 1200, Protocol: goldenProto(t, endemicSrc, endemicParams),
					Initial: map[ode.Var]int{"x": 1000, "y": 150, "z": 50}, Seed: 2004}
			},
			periods: 60,
			want:    "94af4819256c33c608ec88215008f89da23f21e3077f020a9c8682d663546c06",
		},
		{
			name: "serial/sample-any+push",
			cfg: func(t *testing.T) sim.Config {
				return sim.Config{N: 2000, Protocol: figure1Proto(t), Initial: figure1Initial(), Seed: 7}
			},
			periods: 80,
			want:    "2d1736721db50599171a2d1297e485d5cb457cd34fc870e094b23ed250f98bcd",
		},
		{
			name: "serial/push-coin",
			cfg: func(t *testing.T) sim.Config {
				return sim.Config{N: 1200, Protocol: pushCoinProto(t),
					Initial: map[ode.Var]int{"x": 1000, "y": 150, "z": 50}, Seed: 3}
			},
			periods: 60,
			want:    "68052f6a7aec911befa6312135d120d680015371714cf88e96c149fa17dca50f",
		},
		{
			name: "serial/token-directed",
			cfg: func(t *testing.T) sim.Config {
				return sim.Config{N: 3000, Protocol: goldenProto(t, tokenSrc, nil),
					Initial: map[ode.Var]int{"x": 2800, "y": 200}, Seed: 17}
			},
			periods: 40,
			want:    "3d8c508a4ea5649b166a86711922389512ef85b3f9b90258ef0262e667ac9ff8",
		},
		{
			name: "serial/token-ttl4",
			cfg: func(t *testing.T) sim.Config {
				return sim.Config{N: 3000, Protocol: goldenProto(t, tokenSrc, nil),
					Initial: map[ode.Var]int{"x": 2800, "y": 200}, Seed: 23, TokenTTL: 4}
			},
			periods: 40,
			want:    "a71e08dd587cd0bcedb5d7f0b4a37a9d79a1055c3aa08156eec218ec2d861682",
		},
		{
			name: "serial/message-loss",
			cfg: func(t *testing.T) sim.Config {
				return sim.Config{N: 2000, Protocol: figure1Proto(t), Initial: figure1Initial(), Seed: 11,
					MessageLoss: 0.1}
			},
			periods: 60,
			want:    "025dad62eb4e87b96d84784c115241898f59ccdeb19d6209613a93b68264b1b2",
		},
		{
			name: "serial/token-ttl4+message-loss",
			cfg: func(t *testing.T) sim.Config {
				return sim.Config{N: 3000, Protocol: goldenProto(t, tokenSrc, nil),
					Initial: map[ode.Var]int{"x": 2800, "y": 200}, Seed: 29, TokenTTL: 4, MessageLoss: 0.1}
			},
			periods: 40,
			want:    "6fde89422a245bf74196294a360e37be5a26e6243ab9218daf5ad21ea2bdbad7",
		},
		{
			name: "serial/view-size-8",
			cfg: func(t *testing.T) sim.Config {
				return sim.Config{N: 2000, Protocol: figure1Proto(t), Initial: figure1Initial(), Seed: 13,
					ViewSize: 8}
			},
			periods: 60,
			want:    "281c0bff554c9ff7393b7e4516b8b26d75206e3aaf2e799d2ff801aa3cdcd187",
		},
		{
			name: "serial/initially-down+kill+revive",
			cfg: func(t *testing.T) sim.Config {
				return sim.Config{N: 1500, Protocol: goldenProto(t, endemicSrc, endemicParams),
					Initial: map[ode.Var]int{"x": 1000, "y": 150, "z": 50}, Seed: 31, InitiallyDown: 300}
			},
			periods: 60,
			between: func(t *testing.T, e *sim.Engine, period int) {
				switch period {
				case 19:
					if killed := e.KillFraction(0.5); killed != 600 {
						t.Fatalf("KillFraction(0.5) of 1200 alive killed %d", killed)
					}
				case 39:
					// The open-group join: the initially-down tail comes up.
					for p := 1200; p < 1500; p++ {
						if err := e.Revive(p, "x"); err != nil {
							t.Fatal(err)
						}
					}
				}
			},
			want: "29d2c48ec03a244ca40bc83c5092eed0cb04b4a849de08a365b0e6d3cb7fbd3c",
		},
		{
			name: "serial/hook-order",
			cfg: func(t *testing.T) sim.Config {
				return sim.Config{N: 1000, Protocol: figure1Proto(t),
					Initial: map[ode.Var]int{endemic.Receptive: 700, endemic.Stash: 250, endemic.Averse: 50}, Seed: 5}
			},
			periods: 30,
			hooks:   true,
			want:    "dbd0fa3ef6d4c8424ac28fd152ba793599094d71832345ab46605585275bdd15",
		},
		{
			name: "shards4/sample-any+push",
			cfg: func(t *testing.T) sim.Config {
				return sim.Config{N: 2000, Protocol: figure1Proto(t), Initial: figure1Initial(), Seed: 7, Shards: 4}
			},
			periods: 80,
			want:    "3ef215d6dbe9188af87be2561f3e240d49fe7883a79a6b49ec3a872e2953e0dc",
		},
		{
			name: "shards4/push-coin",
			cfg: func(t *testing.T) sim.Config {
				return sim.Config{N: 1200, Protocol: pushCoinProto(t),
					Initial: map[ode.Var]int{"x": 1000, "y": 150, "z": 50}, Seed: 3, Shards: 4}
			},
			periods: 60,
			want:    "f5dac3350db8e984a8e6e572c68de1186f15b20a5a57c9bb23e331cfb0da4b94",
		},
		{
			name: "shards4/token-directed",
			cfg: func(t *testing.T) sim.Config {
				return sim.Config{N: 3000, Protocol: goldenProto(t, tokenSrc, nil),
					Initial: map[ode.Var]int{"x": 2800, "y": 200}, Seed: 17, Shards: 4}
			},
			periods: 40,
			want:    "9154a66f3d7f6f2f2ada6d7f78ce0ffc3f3b399da20bd992a78ddfdce5780dc2",
		},
		{
			name: "shards4/token-ttl4+message-loss",
			cfg: func(t *testing.T) sim.Config {
				return sim.Config{N: 3000, Protocol: goldenProto(t, tokenSrc, nil),
					Initial: map[ode.Var]int{"x": 2800, "y": 200}, Seed: 29, TokenTTL: 4, MessageLoss: 0.1, Shards: 4}
			},
			periods: 40,
			want:    "6d2f4cc898c18e2f88f07df868df69ad551640297cf9a68887e9a25a98f31543",
		},
		{
			name: "shards4/hook-order",
			cfg: func(t *testing.T) sim.Config {
				return sim.Config{N: 1000, Protocol: figure1Proto(t),
					Initial: map[ode.Var]int{endemic.Receptive: 700, endemic.Stash: 250, endemic.Averse: 50}, Seed: 5, Shards: 4}
			},
			periods: 30,
			hooks:   true,
			want:    "601ff12fe95024ed357659b921a88bdb9421ee152c8425f881d758b3cc7cc50b",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			atGOMAXPROCS(t, tc.want, func(t *testing.T) string {
				h := sha256.New()
				cfg := tc.cfg(t)
				if tc.hooks {
					cfg.OnTransition = func(proc int, from, to ode.Var, period int) {
						fmt.Fprintf(h, "hook %d %s>%s @%d\n", proc, from, to, period)
					}
				}
				e, err := sim.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < tc.periods; i++ {
					e.Step()
					hashPeriod(h, cfg.Protocol.States, e)
					if tc.between != nil {
						tc.between(t, e, i)
					}
				}
				return fmt.Sprintf("%x", h.Sum(nil))
			})
		})
	}
}

// TestGoldenAggregateStream pins the count-based engine's stream through a
// massive failure (the binomial draws of KillFraction share the stream
// with the period draws), once per action kind the engine draws for:
// SampleAny, Push and Flip from Figure 1, Sample from the endemic system,
// and Token (whose inflows over-drain x, so the clamp runs) from tokenSrc.
func TestGoldenAggregateStream(t *testing.T) {
	cases := []struct {
		name    string
		proto   func(t *testing.T) *core.Protocol
		initial map[ode.Var]int
		seed    int64
		loss    float64
		want    string
	}{
		{
			name:  "sample-any+push+flip",
			proto: figure1Proto,
			initial: map[ode.Var]int{
				endemic.Receptive: 70000, endemic.Stash: 25000, endemic.Averse: 5000,
			},
			seed: 19, loss: 0.05,
			want: "2e9cfe86eba52812fc0798d03ad4c7c0c1bc72130d991ee3724e3c2a0897ed41",
		},
		{
			name:    "sample+flip",
			proto:   func(t *testing.T) *core.Protocol { return goldenProto(t, endemicSrc, endemicParams) },
			initial: map[ode.Var]int{"x": 80000, "y": 15000, "z": 5000},
			seed:    23, loss: 0.05,
			want: "f71a98b2de559b69c8b598d1653828f536cf2f5dd9e845cd10fbcff1ac10ae30",
		},
		{
			name:    "token",
			proto:   func(t *testing.T) *core.Protocol { return goldenProto(t, tokenSrc, nil) },
			initial: map[ode.Var]int{"x": 98000, "y": 2000},
			seed:    29, loss: 0.05,
			want: "c95f8ddd67ab7c1394766fed5040b1e51b3241f5cf9227d8f958b29032f54b9e",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			atGOMAXPROCS(t, tc.want, func(t *testing.T) string {
				proto := tc.proto(t)
				a, err := sim.NewAggregate(proto, tc.initial, tc.seed, tc.loss)
				if err != nil {
					t.Fatal(err)
				}
				h := sha256.New()
				for i := 0; i < 200; i++ {
					a.Step()
					if i == 99 {
						fmt.Fprintf(h, "killed=%d ", a.KillFraction(0.5))
					}
					for _, s := range proto.States {
						fmt.Fprintf(h, "%s=%d ", s, a.Count(s))
					}
					fmt.Fprintf(h, "alive=%d\n", a.Alive())
				}
				return fmt.Sprintf("%x", h.Sum(nil))
			})
		})
	}
}
