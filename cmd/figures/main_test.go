package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// The figure functions take the output directory and a quick flag, so the
// fast ones can run under `go test` directly; the expensive ones are
// covered by the bench harness and `cmd/figures -quick`.

// fastFigureDigests pins the SHA-256 of every .dat the fast figures write
// at -quick. fig5/fig6 and fig9/fig10 read the agent engine's transition
// table every period and fig8 lists processes by state, so a digest moves
// when an engine stream or an experiment's reading of it does. The digests
// were taken from the code as it stood before the transition table
// replaced per-period maps and must never be edited to make a change pass.
// r4_convergence.dat is not pinned: its RK4 solve multiplies each term's
// variable powers in map order, so its last digits vary from run to run.
var fastFigureDigests = map[string]string{
	"r2_longevity.dat":     "71c4763c573af11815d5e69a54e8952d09e9d3d8e4cafdab3d4f2a51e203bb85",
	"r3_reality_check.dat": "65cdb9b0ca3c462b1fc501d145300a876f9e0695f72c4b5df055bdfbc156601e",
	"fig5.dat":             "ffa8b672a2bfb55729fcd2ce66c2d13bc0cce532493d7207cf532a5a00c9ee1e",
	"fig6.dat":             "b3859191551b76183385697f7464bdea3f02d8d1adad46c2bcfad5204e1c1e50",
	"fig8.dat":             "8f30e5103e47f1aa01c9b6e20d61bb0b4b9160caf74004186c789d1be37f511c",
	"fig9.dat":             "a66e02f3d249aa73b5fcf3ce0b65bd3b8b6837b53fb813b3d06f0e54d8b8efec",
	"fig10.dat":            "087108437f3bbb88a2156eab298e8d02b819289929e751481d2a913229cc81f1",
}

func TestFastFigures(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name string
		fn   figureFunc
		want []string // artifacts that must exist afterwards
	}{
		{"r2", r2, []string{"r2_longevity.dat"}},
		{"r3", r3, []string{"r3_reality_check.dat"}},
		{"r4", r4, []string{"r4_convergence.dat", "r4_convergence.svg"}},
		{"fig5", fig5and6, []string{"fig5.dat", "fig5.svg", "fig6.dat", "fig6.svg"}},
		{"fig8", fig8, []string{"fig8.dat", "fig8.svg"}},
		{"fig9", fig9and10, []string{"fig9.dat", "fig9.svg", "fig10.dat", "fig10.svg"}},
	}
	for _, tc := range cases {
		if err := tc.fn(dir, true); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, f := range tc.want {
			b, err := os.ReadFile(filepath.Join(dir, f))
			if err != nil {
				t.Fatalf("%s: missing artifact %s", tc.name, f)
			}
			if want, ok := fastFigureDigests[f]; ok {
				if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != want {
					t.Errorf("%s: %s digest %s, want %s", tc.name, f, got, want)
				}
			}
		}
	}
}

func TestFigureRegistryNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, f := range figures {
		if seen[f.name] {
			t.Fatalf("duplicate figure name %q", f.name)
		}
		seen[f.name] = true
		if f.desc == "" || f.fn == nil {
			t.Fatalf("figure %q incomplete", f.name)
		}
	}
	// Every figure of the paper's evaluation must be present.
	for _, want := range []string{"fig2", "fig4", "fig5", "fig7", "fig8", "fig9", "fig11", "fig12", "r1", "r2", "r3", "r4"} {
		if !seen[want] {
			t.Fatalf("figure registry missing %q", want)
		}
	}
}

func TestRepeatValue(t *testing.T) {
	v := repeatValue(2.5, 3)
	if len(v) != 3 || v[0] != 2.5 || v[2] != 2.5 {
		t.Fatalf("repeatValue = %v", v)
	}
}
