package lint

import (
	"path/filepath"
	"testing"
)

// runFixture checks one analyzer against a testdata fixture presented
// under the given production import path.
func runFixture(t *testing.T, a *Analyzer, dir, importPath string) {
	t.Helper()
	for _, err := range CheckFixture(a, filepath.Join("testdata", "src", dir), importPath) {
		t.Error(err)
	}
}

// TestLoadModulePackage exercises the export-data loader against a real
// package of this module.
func TestLoadModulePackage(t *testing.T) {
	pkgs, err := Load("../..", "./internal/mt19937")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	if pkgs[0].ImportPath != "odeproto/internal/mt19937" {
		t.Fatalf("import path = %q", pkgs[0].ImportPath)
	}
	if pkgs[0].Pkg == nil || pkgs[0].Info == nil {
		t.Fatal("package not type-checked")
	}
}

// TestScopeByImportPath pins that the path-scoped analyzers stay silent
// when the same source sits outside the contract-bearing packages.
func TestScopeByImportPath(t *testing.T) {
	scoped := []struct {
		a   *Analyzer
		dir string
	}{
		{AnalyzerDeterminism, "determinism"},
		{AnalyzerClosecheck, "closecheck"},
		{AnalyzerNoblocklock, "noblocklock"},
	}
	for _, tc := range scoped {
		pkg, err := LoadFixture(filepath.Join("testdata", "src", tc.dir), "example.com/elsewhere")
		if err != nil {
			t.Fatalf("%s: %v", tc.a.Name, err)
		}
		diags, err := RunAnalyzers(pkg, []*Analyzer{tc.a})
		if err != nil {
			t.Fatalf("%s: %v", tc.a.Name, err)
		}
		for _, d := range diags {
			// closecheck's writable-file rules are deliberately unscoped;
			// only its ResponseWriter rule is path-gated.
			if tc.a.Name == "closecheck" && d.Analyzer == "closecheck" &&
				!contains(d.Message, "ResponseWriter") {
				continue
			}
			t.Errorf("%s out of scope still reported: %s", tc.a.Name, d)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestByName(t *testing.T) {
	all, err := ByName("")
	if err != nil || len(all) != 3 {
		t.Fatalf("ByName(\"\") = %d analyzers, err %v; want 3, nil", len(all), err)
	}
	subset, err := ByName("determinism,noblocklock")
	if err != nil || len(subset) != 2 {
		t.Fatalf("ByName subset = %d, err %v; want 2, nil", len(subset), err)
	}
	_, err = ByName("nonsense")
	if err == nil {
		t.Fatal("ByName(nonsense) did not fail")
	}
	for _, a := range all {
		if !contains(err.Error(), a.Name) {
			t.Errorf("the unknown-analyzer error %q does not name %s", err, a.Name)
		}
	}
}
