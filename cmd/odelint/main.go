// Command odelint runs the repo's invariant analyzers (package
// internal/lint) over Go packages and exits nonzero on findings.
//
// Usage:
//
//	odelint [-json] [-analyzers determinism,closecheck] [-C dir] [packages...]
//
// Packages default to ./... . Findings print one per line as
// file:line:col: [analyzer] message, or as a JSON array with -json.
// Individual findings are waived in-source with a justified
// //lint:ignore <analyzer> <reason> directive; a directive without a
// reason is itself a finding.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"odeproto/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the multichecker: exit 0 on a clean tree, 1 on findings,
// 2 on usage or load errors.
func run(args []string, stdout, stderr io.Writer) int {
	var (
		jsonOut  bool
		names    string
		dir      = "."
		patterns []string
	)
	for i := 0; i < len(args); i++ {
		switch arg := args[i]; {
		case arg == "-json" || arg == "--json":
			jsonOut = true
		case arg == "-analyzers" || arg == "--analyzers":
			if i+1 >= len(args) {
				fmt.Fprintln(stderr, "odelint: -analyzers needs a value")
				return 2
			}
			i++
			names = args[i]
		case arg == "-C":
			if i+1 >= len(args) {
				fmt.Fprintln(stderr, "odelint: -C needs a directory")
				return 2
			}
			i++
			dir = args[i]
		case arg == "-h" || arg == "-help" || arg == "--help":
			fmt.Fprintln(stderr, "usage: odelint [-json] [-analyzers a,b,...] [-C dir] [packages...]")
			return 2
		case len(arg) > 1 && arg[0] == '-':
			fmt.Fprintf(stderr, "odelint: unknown flag %s\n", arg)
			return 2
		default:
			patterns = append(patterns, arg)
		}
	}

	analyzers, err := lint.ByName(names)
	if err != nil {
		fmt.Fprintf(stderr, "odelint: %v\n", err)
		return 2
	}
	pkgs, err := lint.Load(dir, patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "odelint: %v\n", err)
		return 2
	}

	diags := []lint.Diagnostic{}
	for _, pkg := range pkgs {
		ds, err := lint.RunAnalyzers(pkg, analyzers)
		if err != nil {
			fmt.Fprintf(stderr, "odelint: %v\n", err)
			return 2
		}
		diags = append(diags, ds...)
	}

	if jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintf(stderr, "odelint: %v\n", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		if !jsonOut {
			fmt.Fprintf(stderr, "odelint: %d finding(s)\n", len(diags))
		}
		return 1
	}
	return 0
}
