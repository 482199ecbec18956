package main

import (
	"os"
	"path/filepath"
	"testing"

	"odeproto/internal/ode"
)

func TestParseKV(t *testing.T) {
	kv, err := parseKV("beta=4, gamma=0.5,alpha=1e-3")
	if err != nil {
		t.Fatal(err)
	}
	if kv["beta"] != 4 || kv["gamma"] != 0.5 || kv["alpha"] != 1e-3 {
		t.Fatalf("parseKV = %v", kv)
	}
	if m, err := parseKV("  "); err != nil || len(m) != 0 {
		t.Fatalf("empty spec: %v %v", m, err)
	}
	if _, err := parseKV("beta"); err == nil {
		t.Fatal("missing '=' accepted")
	}
	if _, err := parseKV("beta=x"); err == nil {
		t.Fatal("non-numeric value accepted")
	}
}

func TestSimplexSeedsSumToOne(t *testing.T) {
	seeds := simplexSeeds([]ode.Var{"a", "b", "c"})
	if len(seeds) == 0 {
		t.Fatal("no seeds")
	}
	for _, s := range seeds {
		var sum float64
		for _, v := range s {
			if v < 0 {
				t.Fatalf("negative seed coordinate in %v", s)
			}
			sum += v
		}
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("seed %v sums to %v", s, sum)
		}
	}
}

func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "epi.ode")
	if err := os.WriteFile(path, []byte("x' = -x*y\ny' = x*y\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-file", path, "-simulate", "500", "-periods", "30", "-every", "10"}); err != nil {
		t.Fatal(err)
	}
	// -shards goes to the agent engine as given: K ≤ N runs sharded, and
	// K > N is the engine's error, not a silent clamp.
	if err := run([]string{"-file", path, "-simulate", "500", "-periods", "30", "-shards", "4"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-file", path, "-simulate", "500", "-periods", "30", "-shards", "501"}); err == nil {
		t.Fatal("-shards above -simulate accepted")
	}
}

func TestRunRewritePath(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "lv6.ode")
	src := "x' = 3*x - 3*x^2 - 6*x*y\ny' = 3*y - 3*y^2 - 6*x*y\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-file", path, "-p", "0.01", "-analyze"}); err != nil {
		t.Fatal(err)
	}
	// With rewriting disabled the same file must fail.
	if err := run([]string{"-file", path, "-rewrite=false"}); err == nil {
		t.Fatal("non-mappable system accepted with -rewrite=false")
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{}); err == nil {
		t.Fatal("missing -file accepted")
	}
	if err := run([]string{"-file", "/nonexistent/x.ode"}); err == nil {
		t.Fatal("missing file accepted")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.ode")
	if err := os.WriteFile(bad, []byte("x' = -k*x\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-file", bad}); err == nil {
		t.Fatal("unknown identifier accepted")
	}
}
