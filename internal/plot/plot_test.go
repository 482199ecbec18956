package plot

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"odeproto/internal/stats"
)

func TestWriteDAT(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sub", "series.dat")
	err := WriteDAT(path, []string{"t", "x", "y"},
		[]float64{0, 1, 2},
		[]float64{10, 11, 12},
		[]float64{20, 21, 22})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	if !strings.HasPrefix(text, "# t x y\n") {
		t.Fatalf("missing header: %q", text)
	}
	if !strings.Contains(text, "1 11 21") {
		t.Fatalf("missing row: %q", text)
	}
}

func TestWriteDATValidation(t *testing.T) {
	dir := t.TempDir()
	if err := WriteDAT(filepath.Join(dir, "x.dat"), nil); err == nil {
		t.Fatal("no columns accepted")
	}
	if err := WriteDAT(filepath.Join(dir, "x.dat"), nil, []float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("ragged columns accepted")
	}
}

func TestChartSVG(t *testing.T) {
	c := NewChart("Endemic Protocol", "Time", "Count")
	c.AddLine("stash", []float64{0, 1, 2}, []float64{5, 8, 7})
	c.AddScatter("hosts", []float64{0.5, 1.5}, []float64{6, 6})
	svg := c.SVG()
	for _, want := range []string{"<svg", "polyline", "circle", "Endemic Protocol", "stash"} {
		if !strings.Contains(svg, want) {
			t.Fatalf("SVG missing %q", want)
		}
	}
}

func TestChartSVGEmpty(t *testing.T) {
	c := NewChart("empty", "x", "y")
	svg := c.SVG()
	if !strings.Contains(svg, "<svg") {
		t.Fatal("empty chart should still render axes")
	}
}

func TestChartEscapesTitle(t *testing.T) {
	c := NewChart("a<b & c>d", "x", "y")
	svg := c.SVG()
	if strings.Contains(svg, "a<b") {
		t.Fatal("title not escaped")
	}
	if !strings.Contains(svg, "a&lt;b &amp; c&gt;d") {
		t.Fatal("escaped title missing")
	}
}

func TestWriteSVG(t *testing.T) {
	dir := t.TempDir()
	c := NewChart("t", "x", "y")
	c.AddLine("s", []float64{0, 1}, []float64{0, 1})
	path := filepath.Join(dir, "figs", "out.svg")
	if err := c.WriteSVG(path); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
}

func TestAddSeries(t *testing.T) {
	s := stats.NewSeries("pop")
	s.Add(0, 1)
	s.Add(1, 2)
	c := NewChart("t", "x", "y")
	c.AddSeries(s)
	if !strings.Contains(c.SVG(), "pop") {
		t.Fatal("series name missing from legend")
	}
}
