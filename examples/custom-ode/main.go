// Custom ODE: design a brand-new protocol from your own differential
// equations, exactly the workflow the paper proposes for "transforming, in
// a very systematic manner, well-known natural phenomena into protocols".
//
// The example models a service pool with a target recruitment rate: the
// group should convert available processes (a) into workers (w) at a
// constant system-wide rate 0.15 per period, while workers retire back at
// rate 0.1 per worker:
//
//	ȧ = −0.15 + 0.1·w
//	ẇ = +0.15 − 0.1·w
//
// The constant term −0.15 contains no variable at all, so §6's recipe
// applies: rewrite −c as −c·(a + w), using Σ fractions = 1 (rewrite.Needed
// says so, and rewrite.MakeMappable does it). After combining like terms
// the −0.15·a part maps to Flipping, and a residual −0.05·w in a's
// equation — a term without a — maps to Tokenizing: a worker flips a coin
// and, on heads, sends a token that converts some available process to a
// worker.
//
// Because demand (0.15) exceeds retirement (0.1·w ≤ 0.1), the pool
// saturates: every process ends up a worker and further recruitment
// tokens find no available target. The run prints the dropped-token rate,
// exercising exactly the §6 rule "if no processes in the system are in the
// state x, the token is dropped".
//
// Run with:
//
//	go run ./examples/custom-ode
package main

import (
	"fmt"
	"log"

	"odeproto/internal/core"
	"odeproto/internal/ode"
	"odeproto/internal/rewrite"
	"odeproto/internal/sim"
)

func main() {
	src := `
a' = -0.15 + 0.1*w
w' = 0.15 - 0.1*w
`
	system, err := ode.Parse(src, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("source equations:")
	fmt.Println(system)
	cls := system.Classify()
	fmt.Println("taxonomy:", cls)

	// The system is already complete; its constant term is what needs the
	// rewrite (−c → −c·Σv), which is also the general path for raw equations.
	if rewrite.Needed(system) {
		system, err = rewrite.MakeMappable(system, "s")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("after rewriting:")
		fmt.Println(system)
	}
	if cls.NeedsTokenizing() {
		fmt.Println("note: translation will use Tokenizing (§6)")
	}

	protocol, err := core.Translate(system, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ngenerated protocol:")
	fmt.Print(protocol)

	// Verify Theorem 5 numerically at one point before running: the
	// protocol's expected drift must be p·f̄(X̄).
	point := map[ode.Var]float64{"a": 0.7, "w": 0.3}
	drift := protocol.ExpectedFlow(point)
	rhs := system.PointFromVec(system.Eval(point))
	fmt.Println("\nTheorem 5 check at (a,w) = (0.7,0.3):")
	for _, v := range system.Vars() {
		fmt.Printf("  drift[%s] = %+.6f, p·f_%s = %+.6f\n", v, drift[v], v, protocol.P*rhs[v])
	}

	// Simulate 20,000 processes starting with almost no workers; the pool
	// fills up and then saturates, dropping surplus tokens.
	const n = 20000
	engine, err := sim.New(sim.Config{
		N:        n,
		Protocol: protocol,
		Initial:  map[ode.Var]int{"a": n - 100, "w": 100},
		Seed:     5,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nperiod  available  workers  tokens dropped/period")
	for t := 0; t <= 120; t += 10 {
		fmt.Printf("%6d  %9d  %7d  %21d\n",
			t, engine.Count("a"), engine.Count("w"), engine.TokensLostLastPeriod())
		engine.Run(10)
	}
	fmt.Println("\nthe pool saturated; surplus recruitment tokens are dropped (§6)")
}
