package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// quartiles returns the three cut points of values as Python's
// statistics.quantiles(values, n=4) computes them (the exclusive method),
// which is what the acceptance rule for the benchmark's spread uses.
func quartiles(values []float64) (q1, q2, q3 float64) {
	x := append([]float64(nil), values...)
	sort.Float64s(x)
	m := len(x)
	cut := func(k int) float64 {
		j := min(max(k*(m+1)/4, 1), m-1)
		delta := float64(k*(m+1) - j*4)
		return (x[j-1]*(4-delta) + x[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spreadRow is one (metric, workload) line of a calibration file.
type spreadRow struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Median   float64   `json:"median"`
	Q1       float64   `json:"q1"`
	Q3       float64   `json:"q3"`
	Spread   float64   `json:"spread"` // (q3 − q1) / median
	Values   []float64 `json:"values"`
}

// calibration is one file of bench/calibration/: every workload run
// Repeats times on one commit, one seed each. The files together are the
// committed baseline of the reference machine and the evidence the bounds
// in BENCHMARK.json are derived from.
type calibration struct {
	When    string      `json:"when"`
	Note    string      `json:"note,omitempty"`
	Seconds int         `json:"seconds"`
	Repeats int         `json:"repeats"`
	CPUs    int         `json:"cpus"`
	GoVer   string      `json:"go"`
	Rows    []spreadRow `json:"rows"`
}

var calibrationDir = filepath.Join("bench", "calibration")

// gateable lists the metrics that are end-to-end by nature — what a
// client, an operator or the machine's owner sees — with the tightest
// bound each is ever given: 10 % for a timing, less for counts and ratios
// that (nearly) repeat. Whether one is gated is decided by derive, from
// the calibration files, never by hand.
var gateable = []struct {
	name  string
	floor float64
}{
	{"setup_s", maxBound},
	{"ops_per_s", 0.10},
	{"lat_p50_ms", 0.10},
	{"lat_p90_ms", 0.10},
	{"cpu_ms_per_op", 0.10},
	{"within_limit_ratio", 0.02},
	{"rss_peak_mb", 0.10},
	{"disk_bytes_per_op", 0.01},
	{"fsyncs_per_op", 0.001},
}

// maxBound is the contract's ceiling on a bound.
const maxBound = 0.25

// decision is one line of bench/calibration/bounds.json: what the
// calibration files say about a gateable metric and what follows.
type decision struct {
	Metric string  `json:"metric"`
	Gated  bool    `json:"gated"`
	Bound  float64 `json:"bound,omitempty"`
	// Spread is the widest interquartile distance over median of any
	// (file, workload); Drift the largest amount by which the median of
	// one file is worse than that of another, on one workload.
	Spread   float64 `json:"worst_spread"`
	SpreadAt string  `json:"worst_spread_at"`
	Drift    float64 `json:"worst_drift"`
	DriftAt  string  `json:"worst_drift_at"`
	Why      string  `json:"why"`
}

// derive sorts the gateable metrics into the two lists of bf. The rule
// mirrors how the benchmark itself is accepted — two sets of runs of one
// commit must each have a spread within the bound, and the second median
// may not be worse than the first by more than the bound — with a margin:
// a metric needs a bound of 3 × its worst spread and 2 × its worst drift
// between two files. One that needs more than the 25 % ceiling cannot be
// gated without rejecting innocent changes and becomes a per-layer
// diagnostic: measured and printed on every run, compared in interleaved
// pairs, not gated. setup_s alone is exempt: the contract wants it gated
// whatever its spread, with the largest bound.
func derive(bf *benchFile, cals map[string]calibration) []decision {
	decls := map[string]metricDecl{}
	for _, d := range append(append([]metricDecl(nil), bf.EndToEnd...), bf.PerLayer...) {
		decls[d.Name] = d
	}
	files := make([]string, 0, len(cals))
	for f := range cals {
		files = append(files, f)
	}
	sort.Strings(files)

	var out []decision
	for _, g := range gateable {
		dec := decision{Metric: g.name}
		medians := map[string]map[string]float64{} // workload → file → median
		for _, f := range files {
			for _, row := range cals[f].Rows {
				if row.Metric != g.name {
					continue
				}
				if row.Spread > dec.Spread {
					dec.Spread, dec.SpreadAt = row.Spread, f+" "+row.Workload
				}
				if medians[row.Workload] == nil {
					medians[row.Workload] = map[string]float64{}
				}
				medians[row.Workload][f] = row.Median
			}
		}
		for _, w := range workloads {
			for _, a := range files {
				for _, b := range files {
					ma, oka := medians[w.name][a]
					mb, okb := medians[w.name][b]
					if !oka || !okb || ma == 0 {
						continue
					}
					// b measured after a: how much worse did it read?
					worse := (mb - ma) / ma
					if decls[g.name].Better == "higher" {
						worse = (ma - mb) / ma
					}
					if worse > dec.Drift {
						dec.Drift, dec.DriftAt = worse, fmt.Sprintf("%s %s→%s", w.name, a, b)
					}
				}
			}
		}
		need := max(g.floor, 3*dec.Spread, 2*dec.Drift)
		switch {
		case g.name == "setup_s":
			dec.Gated, dec.Bound = true, maxBound
			dec.Why = "the contract gates set-up time whatever its spread, with the largest bound"
		case need > maxBound:
			dec.Why = fmt.Sprintf("needs a bound of %.0f %% (3 × spread, 2 × drift), above the %.0f %% ceiling: reported, not gated", 100*need, 100*maxBound)
		default:
			dec.Gated, dec.Bound = true, math.Ceil(need*1000-1e-9)/1000
			dec.Why = "max(floor, 3 × spread, 2 × drift)"
		}
		out = append(out, dec)
	}

	var e2e, perLayer []metricDecl
	for _, d := range bf.PerLayer {
		if _, moved := decisionFor(out, d.Name); !moved {
			perLayer = append(perLayer, d)
		}
	}
	for _, dec := range out {
		d := decls[dec.Metric]
		d.Bound = nil
		if dec.Gated {
			bound := dec.Bound
			d.Bound = &bound
			e2e = append(e2e, d)
		} else {
			perLayer = append(perLayer, d)
		}
	}
	bf.EndToEnd, bf.PerLayer = e2e, perLayer
	return out
}

func decisionFor(decs []decision, name string) (decision, bool) {
	for _, d := range decs {
		if d.Metric == name {
			return d, true
		}
	}
	return decision{}, false
}

// calibrate runs every workload repeats times on this commit, each run
// with another seed, writes median, quartiles and spread per (metric,
// workload) to the next numbered file of bench/calibration/, and then
// derives the two metric lists and the bounds of BENCHMARK.json from all
// the files there (bounds.json records each decision). With -repeats 0 it
// only derives, which is how BENCHMARK.json is reproduced from the
// committed files.
func (cfg *config) calibrate(ctx context.Context, stdout io.Writer, bf *benchFile, seconds, repeats int) error {
	if repeats == 1 || repeats < 0 {
		return fmt.Errorf("-repeats must be 0 (derive only) or at least 2")
	}
	cals, err := readCalibrations()
	if err != nil {
		return err
	}
	if repeats > 0 {
		cal, err := cfg.measureCalibration(ctx, stdout, bf, seconds, repeats)
		if err != nil {
			return err
		}
		name := fmt.Sprintf("%02d.json", len(cals)+1)
		if err := writeJSON(filepath.Join(calibrationDir, name), cal); err != nil {
			return err
		}
		cals[name] = *cal
	}
	if len(cals) == 0 {
		return fmt.Errorf("no calibration files in %s", calibrationDir)
	}
	decs := derive(bf, cals)
	for _, d := range decs {
		fmt.Fprintf(stdout, "%-20s gated %-5v bound %5.3f  spread %5.1f %% (%s)  drift %5.1f %% (%s)\n",
			d.Metric, d.Gated, d.Bound, 100*d.Spread, d.SpreadAt, 100*d.Drift, d.DriftAt)
	}
	if err := writeJSON(filepath.Join(calibrationDir, "bounds.json"), decs); err != nil {
		return err
	}
	return writeJSON(benchFileName, bf)
}

func readCalibrations() (map[string]calibration, error) {
	paths, err := filepath.Glob(filepath.Join(calibrationDir, "[0-9]*.json"))
	if err != nil {
		return nil, err
	}
	cals := make(map[string]calibration, len(paths))
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var cal calibration
		if err := json.Unmarshal(data, &cal); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		cals[filepath.Base(p)] = cal
	}
	return cals, nil
}

func (cfg *config) measureCalibration(ctx context.Context, stdout io.Writer, bf *benchFile, seconds, repeats int) (*calibration, error) {
	cal := &calibration{When: time.Now().UTC().Format(time.RFC3339), Seconds: seconds, Repeats: repeats,
		CPUs: runtime.NumCPU(), GoVer: runtime.Version()}
	// Every declared metric an untraced run produces gets a row, gated or
	// not: the files are also the committed baseline of the diagnostics.
	declared := append(append([]metricDecl(nil), bf.EndToEnd...), bf.PerLayer...)
	for k := range workloads {
		w := &workloads[k]
		values := map[string][]float64{}
		for rep := 1; rep <= repeats; rep++ {
			res, err := cfg.runWorkload(ctx, w, int64(rep), seconds, false)
			if err == nil {
				err = res.err()
			}
			if err != nil {
				return nil, fmt.Errorf("%s seed %d: %w", w.name, rep, err)
			}
			for name, v := range res.metrics {
				values[name] = append(values[name], v)
			}
			fmt.Fprintf(stdout, "%s seed %d done\n", w.name, rep)
		}
		for _, d := range declared {
			if len(values[d.Name]) == 0 {
				continue // measured only by a traced run
			}
			q1, q2, q3 := quartiles(values[d.Name])
			row := spreadRow{Workload: w.name, Metric: d.Name, Unit: d.Unit, Median: q2, Q1: q1, Q3: q3,
				Spread: ratio(q3-q1, q2), Values: values[d.Name]}
			cal.Rows = append(cal.Rows, row)
			fmt.Fprintf(stdout, "%-14s %-36s median %12.6g %-6s spread %6.2f %%\n", w.name, d.Name, q2, d.Unit, 100*row.Spread)
		}
	}
	return cal, nil
}

func writeJSON(path string, v any) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false) // the why lines contain '>'
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
