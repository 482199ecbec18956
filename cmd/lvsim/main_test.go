package main

import (
	"testing"
)

func TestRunSingleElection(t *testing.T) {
	err := run([]string{
		"-n", "400", "-x", "240", "-y", "160", "-periods", "80", "-every", "20",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunWithMassiveFailure(t *testing.T) {
	err := run([]string{
		"-n", "400", "-x", "240", "-y", "160",
		"-periods", "120", "-fail-at", "20", "-fail-frac", "0.5", "-every", "40",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunTrialsSweep(t *testing.T) {
	err := run([]string{
		"-n", "300", "-x", "200", "-y", "100",
		"-periods", "60", "-trials", "3",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunFlagAndConfigErrors(t *testing.T) {
	if err := run([]string{"-bogus"}); err == nil {
		t.Fatal("unknown flag accepted")
	}
	// -h prints usage and succeeds (exit 0), like the pre-FlagSet CLI.
	if err := run([]string{"-h"}); err != nil {
		t.Fatalf("-h returned an error: %v", err)
	}
	// Initial proposals exceeding the group size are invalid.
	if err := run([]string{"-n", "100", "-x", "90", "-y", "20", "-periods", "10"}); err == nil {
		t.Fatal("x + y > n accepted")
	}
}
