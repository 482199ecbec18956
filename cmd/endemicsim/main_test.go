package main

import (
	"strings"
	"testing"

	"odeproto/internal/harness"
)

// The CLI runs tiny configurations in tests; keep the process-wide
// harness knobs pristine afterwards so sibling tests are unaffected.
func resetHarnessDefaults() {
	harness.SetDefaultShards(0)
}

func TestRunSingleWithFailure(t *testing.T) {
	defer resetHarnessDefaults()
	err := run([]string{
		"-n", "500", "-periods", "60", "-fail-at", "30", "-fail-frac", "0.5",
		"-gamma", "0.05", "-alpha", "0.005", "-every", "20",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunSeedsSweep(t *testing.T) {
	defer resetHarnessDefaults()
	err := run([]string{
		"-n", "300", "-periods", "30", "-seeds", "3",
		"-gamma", "0.05", "-alpha", "0.005",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunChurnTrace(t *testing.T) {
	defer resetHarnessDefaults()
	err := run([]string{
		"-churn", "-n", "300", "-hours", "2", "-every", "1",
		"-gamma", "0.1", "-alpha", "0.005", "-b", "32",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunSharded(t *testing.T) {
	defer resetHarnessDefaults()
	err := run([]string{
		"-n", "400", "-periods", "30", "-shards", "4",
		"-gamma", "0.05", "-alpha", "0.005",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunFlagAndParamErrors(t *testing.T) {
	defer resetHarnessDefaults()
	if err := run([]string{"-bogus"}); err == nil {
		t.Fatal("unknown flag accepted")
	}
	// -h prints usage and succeeds (exit 0), like the pre-FlagSet CLI.
	if err := run([]string{"-h"}); err != nil {
		t.Fatalf("-h returned an error: %v", err)
	}
	// b = 0 violates the §4.1.2 parameter constraints.
	err := run([]string{"-n", "100", "-b", "0", "-periods", "10"})
	if err == nil {
		t.Fatal("invalid endemic params accepted")
	}
	// An event at or past the horizon must fail loudly (harness contract).
	err = run([]string{"-n", "100", "-periods", "10", "-fail-at", "10"})
	if err == nil || !strings.Contains(err.Error(), "horizon") {
		t.Fatalf("out-of-horizon failure accepted: %v", err)
	}
}
