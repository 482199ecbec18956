package lint

import "testing"

func TestDeterminismFixture(t *testing.T) {
	runFixture(t, AnalyzerDeterminism, "determinism", "odeproto/internal/sim")
}

// TestDeterminismAllScopedPaths pins the scope list: the contract covers
// exactly the packages whose output must be a pure function of
// (spec, seed).
func TestDeterminismAllScopedPaths(t *testing.T) {
	want := map[string]bool{
		"odeproto/internal/sim":      true,
		"odeproto/internal/harness":  true,
		"odeproto/internal/asyncnet": true,
		"odeproto/internal/mt19937":  true,
		"odeproto/internal/stats":    true,
		"odeproto/internal/ode":      true,
	}
	if len(determinismPaths) != len(want) {
		t.Fatalf("determinismPaths has %d entries, want %d", len(determinismPaths), len(want))
	}
	for _, p := range determinismPaths {
		if !want[p] {
			t.Errorf("unexpected scoped path %q", p)
		}
	}
}
