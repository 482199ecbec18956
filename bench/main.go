// Command bench (odebench) measures odeprotod from the outside: it builds
// cmd/odeprotod, boots a real daemon process per run on a loopback port
// with default flags plus -data, drives it over TCP with one of four
// named workloads, verifies every response, and prints every metric by
// name with its unit. Layers are measured without touching them — by
// scraping the daemon's public endpoints and by timing each package's
// exported functions from this process. See README.md for the metric
// catalogue and BENCHMARK.json (repo root) for the contract: the metric
// lists and units this program prints are read from that file.
//
//	go run ./bench                                  every workload, untraced then traced
//	go run ./bench -workload read-mix -seed 7       one run; last stdout line is the result JSON
//	go run ./bench -workload read-mix -trace 1      per-layer metrics + bench/out/read-mix.trace.json
//	go run ./bench -calibrate                       ten runs per workload → bench/calibration/NN.json; bounds derived from all files
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := realMain(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// metricDecl is one metric of BENCHMARK.json; per-layer metrics carry no
// bound.
type metricDecl struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// benchFile is BENCHMARK.json, with exactly the keys the contract names.
type benchFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

const benchFileName = "BENCHMARK.json"

func readBenchFile(path string) (*benchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%w (run from the repository root)", err)
	}
	var bf benchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// metricValue and runJSON are the result object a single run prints as
// the last line of its standard output.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type runJSON struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints what a run measured, by name with units — after an
// untraced run the end-to-end metrics and then every diagnostic the
// untraced phase yields (the client-observed ones that are not gated
// among them); after a traced run the per-layer list — then what the
// numbers rest on. It returns the metrics the result object owes: the
// end-to-end list or the per-layer list, each complete.
func report(w io.Writer, bf *benchFile, wl *workload, res *result, traced bool) (map[string]metricValue, error) {
	title, owed, also := wl.name+" — end to end (untraced)", bf.EndToEnd, bf.PerLayer
	if traced {
		title, owed, also = wl.name+" — per layer (traced run; client-observed numbers from its untraced half)", bf.PerLayer, nil
	}
	fmt.Fprintf(w, "## %s\n", title)
	out := make(map[string]metricValue, len(owed))
	for _, d := range owed {
		v, ok := res.metrics[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s was not measured (have it: %v, value %v)", d.Name, ok, v)
		}
		fmt.Fprintf(w, "%-44s %16.6g %s\n", d.Name, v, d.Unit)
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if also != nil {
		fmt.Fprintf(w, "## %s — not gated, same untraced phase\n", wl.name)
	}
	for _, d := range also {
		if v, ok := res.metrics[d.Name]; ok {
			fmt.Fprintf(w, "%-44s %16.6g %s\n", d.Name, v, d.Unit)
		}
	}
	fmt.Fprintf(w, "%-44s %16d verified ops behind the percentiles (%d attempted in the run); they support up to p%g\n",
		"samples", res.samples, res.attempted, supportedTail(res.samples))
	if traced {
		fmt.Fprintf(w, "%-44s %16.4f median share of an op span that its child spans explain\n", "trace coverage", res.coverage)
	}
	return out, nil
}

func realMain(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		workloadName = fs.String("workload", "", "run one workload and print its result object as the last line (empty: every workload, untraced then traced)")
		seed         = fs.Int64("seed", 1, "workload seed: the same seed generates the same requests")
		seconds      = fs.Int("seconds", 0, "length of the measured phase in seconds (0: run_seconds of BENCHMARK.json)")
		trace        = fs.Int("trace", 0, "0: end-to-end metrics from an untraced phase; 1: per-layer metrics from a traced run, which also writes bench/out/<workload>.trace.json")
		calibrate    = fs.Bool("calibrate", false, "run every workload -repeats times, add the spreads to bench/calibration/ and derive the bounds of BENCHMARK.json from all files there")
		repeats      = fs.Int("repeats", 10, "runs per workload under -calibrate, each with another seed (0: only derive BENCHMARK.json from the committed files)")
		dataRoot     = fs.String("data-root", "", "parent directory of the daemons' -data directories (default bench/out, inside the checkout)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	bf, err := readBenchFile(benchFileName)
	if err != nil {
		return err
	}
	if *seconds == 0 {
		*seconds = bf.RunSeconds
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("-seconds must be at least 1 and -trace 0 or 1")
	}

	outDir, err := filepath.Abs(filepath.Join("bench", "out"))
	if err != nil {
		return err
	}
	cfg := &config{outDir: outDir, dataRoot: outDir}
	if *dataRoot != "" {
		if cfg.dataRoot, err = filepath.Abs(*dataRoot); err != nil {
			return err
		}
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	if cfg.bin, err = buildDaemon(ctx, cfg.outDir); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "data_root %s\n", cfg.dataRoot)

	if *calibrate {
		return cfg.calibrate(ctx, stdout, bf, *seconds, *repeats)
	}

	if *workloadName != "" {
		w := findWorkload(*workloadName)
		if w == nil {
			return fmt.Errorf("unknown workload %q", *workloadName)
		}
		res, err := cfg.runWorkload(ctx, w, *seed, *seconds, *trace == 1)
		if err != nil {
			return err
		}
		metrics, err := report(stdout, bf, w, res, *trace == 1)
		if err != nil {
			return err
		}
		line, err := json.Marshal(runJSON{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: metrics})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s\n", line)
		return res.err()
	}

	// Everything: each workload untraced for the end-to-end metrics, then
	// traced for the per-layer ones.
	var failures []error
	for k := range workloads {
		w := &workloads[k]
		for _, traced := range []bool{false, true} {
			res, err := cfg.runWorkload(ctx, w, *seed, *seconds, traced)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			if _, err := report(stdout, bf, w, res, traced); err != nil {
				return err
			}
			if err := res.err(); err != nil {
				failures = append(failures, fmt.Errorf("%s: %w", w.name, err))
			}
		}
	}
	return errors.Join(failures...)
}

// err is non-nil when any op of the run failed verification, was refused,
// or could not be sent: the command then exits non-zero. (A run whose
// generator ran late is an error of runWorkload itself.)
func (res *result) err() error {
	if res.failed == 0 {
		return nil
	}
	return fmt.Errorf("%d of %d ops failed; first: %w", res.failed, res.attempted, res.firstErr)
}
