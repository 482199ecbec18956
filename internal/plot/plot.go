// Package plot writes experiment artifacts: gnuplot-style .dat series
// files, self-contained SVG renderings (line charts and scatter plots),
// and terminal sparklines. Every figure of the paper is regenerated as a
// .dat + .svg pair by cmd/figures.
package plot

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"

	"odeproto/internal/stats"
)

// WriteDAT writes aligned columns to a whitespace-separated .dat file with
// a '#'-prefixed header row, creating parent directories as needed. All
// columns must share one length.
func WriteDAT(path string, header []string, cols ...[]float64) error {
	if len(cols) == 0 {
		return fmt.Errorf("plot: no columns")
	}
	n := len(cols[0])
	for i, c := range cols {
		if len(c) != n {
			return fmt.Errorf("plot: column %d has %d rows, want %d", i, len(c), n)
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("plot: %w", err)
	}
	var sb strings.Builder
	if len(header) > 0 {
		sb.WriteString("# ")
		sb.WriteString(strings.Join(header, " "))
		sb.WriteByte('\n')
	}
	for r := 0; r < n; r++ {
		for c := range cols {
			if c > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%g", cols[c][r])
		}
		sb.WriteByte('\n')
	}
	return os.WriteFile(path, []byte(sb.String()), 0o644)
}

// Chart is a simple 2D chart that renders to SVG.
type Chart struct {
	Title  string
	XLabel string
	YLabel string
	Width  int
	Height int

	lines    []chartSeries
	scatters []chartSeries
}

type chartSeries struct {
	name   string
	xs, ys []float64
	color  string
}

var palette = []string{
	"#1f77b4", "#d62728", "#2ca02c", "#9467bd",
	"#ff7f0e", "#8c564b", "#17becf", "#7f7f7f",
}

// NewChart returns a chart with default dimensions.
func NewChart(title, xlabel, ylabel string) *Chart {
	return &Chart{Title: title, XLabel: xlabel, YLabel: ylabel, Width: 720, Height: 480}
}

// AddLine adds a polyline series.
func (c *Chart) AddLine(name string, xs, ys []float64) {
	c.lines = append(c.lines, chartSeries{
		name: name, xs: xs, ys: ys,
		color: palette[(len(c.lines)+len(c.scatters))%len(palette)],
	})
}

// AddSeries adds a stats.Series as a line.
func (c *Chart) AddSeries(s *stats.Series) {
	c.AddLine(s.Name, s.Times, s.Values)
}

// AddScatter adds a point-cloud series.
func (c *Chart) AddScatter(name string, xs, ys []float64) {
	c.scatters = append(c.scatters, chartSeries{
		name: name, xs: xs, ys: ys,
		color: palette[(len(c.lines)+len(c.scatters))%len(palette)],
	})
}

func (c *Chart) bounds() (xmin, xmax, ymin, ymax float64) {
	xmin, ymin = math.Inf(1), math.Inf(1)
	xmax, ymax = math.Inf(-1), math.Inf(-1)
	scan := func(s chartSeries) {
		for i := range s.xs {
			xmin = math.Min(xmin, s.xs[i])
			xmax = math.Max(xmax, s.xs[i])
			ymin = math.Min(ymin, s.ys[i])
			ymax = math.Max(ymax, s.ys[i])
		}
	}
	for _, s := range c.lines {
		scan(s)
	}
	for _, s := range c.scatters {
		scan(s)
	}
	if math.IsInf(xmin, 1) {
		return 0, 1, 0, 1
	}
	if xmax == xmin {
		xmax = xmin + 1
	}
	if ymax == ymin {
		ymax = ymin + 1
	}
	return xmin, xmax, ymin, ymax
}

// SVG renders the chart as a standalone SVG document.
func (c *Chart) SVG() string {
	const margin = 60.0
	w, h := float64(c.Width), float64(c.Height)
	xmin, xmax, ymin, ymax := c.bounds()
	// Pad y range 5%.
	pad := (ymax - ymin) * 0.05
	ymin -= pad
	ymax += pad
	px := func(x float64) float64 { return margin + (x-xmin)/(xmax-xmin)*(w-2*margin) }
	py := func(y float64) float64 { return h - margin - (y-ymin)/(ymax-ymin)*(h-2*margin) }

	var sb strings.Builder
	fmt.Fprintf(&sb, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n", c.Width, c.Height, c.Width, c.Height)
	sb.WriteString(`<rect width="100%" height="100%" fill="white"/>` + "\n")
	// Axes.
	fmt.Fprintf(&sb, `<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="black"/>`+"\n", margin, h-margin, w-margin, h-margin)
	fmt.Fprintf(&sb, `<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="black"/>`+"\n", margin, margin, margin, h-margin)
	// Ticks: 5 per axis.
	for i := 0; i <= 5; i++ {
		fx := xmin + (xmax-xmin)*float64(i)/5
		fy := ymin + (ymax-ymin)*float64(i)/5
		fmt.Fprintf(&sb, `<text x="%g" y="%g" font-size="11" text-anchor="middle">%.4g</text>`+"\n", px(fx), h-margin+18, fx)
		fmt.Fprintf(&sb, `<text x="%g" y="%g" font-size="11" text-anchor="end">%.4g</text>`+"\n", margin-6, py(fy)+4, fy)
		fmt.Fprintf(&sb, `<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="#ddd"/>`+"\n", px(fx), margin, px(fx), h-margin)
		fmt.Fprintf(&sb, `<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="#ddd"/>`+"\n", margin, py(fy), w-margin, py(fy))
	}
	// Labels.
	fmt.Fprintf(&sb, `<text x="%g" y="24" font-size="15" text-anchor="middle" font-weight="bold">%s</text>`+"\n", w/2, escape(c.Title))
	fmt.Fprintf(&sb, `<text x="%g" y="%g" font-size="12" text-anchor="middle">%s</text>`+"\n", w/2, h-12, escape(c.XLabel))
	fmt.Fprintf(&sb, `<text x="16" y="%g" font-size="12" text-anchor="middle" transform="rotate(-90 16 %g)">%s</text>`+"\n", h/2, h/2, escape(c.YLabel))
	// Series.
	for _, s := range c.lines {
		if len(s.xs) == 0 {
			continue
		}
		sb.WriteString(`<polyline fill="none" stroke="` + s.color + `" stroke-width="1.5" points="`)
		for i := range s.xs {
			fmt.Fprintf(&sb, "%.2f,%.2f ", px(s.xs[i]), py(s.ys[i]))
		}
		sb.WriteString(`"/>` + "\n")
	}
	for _, s := range c.scatters {
		for i := range s.xs {
			fmt.Fprintf(&sb, `<circle cx="%.2f" cy="%.2f" r="1.6" fill="%s"/>`+"\n", px(s.xs[i]), py(s.ys[i]), s.color)
		}
	}
	// Legend.
	ly := margin + 4
	all := append(append([]chartSeries(nil), c.lines...), c.scatters...)
	for _, s := range all {
		if s.name == "" {
			continue
		}
		fmt.Fprintf(&sb, `<rect x="%g" y="%g" width="12" height="12" fill="%s"/>`+"\n", w-margin-150, ly, s.color)
		fmt.Fprintf(&sb, `<text x="%g" y="%g" font-size="12">%s</text>`+"\n", w-margin-132, ly+10, escape(s.name))
		ly += 18
	}
	sb.WriteString("</svg>\n")
	return sb.String()
}

// WriteSVG renders the chart to path, creating parent directories.
func (c *Chart) WriteSVG(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("plot: %w", err)
	}
	return os.WriteFile(path, []byte(c.SVG()), 0o644)
}

func escape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")
	return r.Replace(s)
}
