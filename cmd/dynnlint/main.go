// Command dynnlint runs the project's static-analysis suite (internal/lint)
// over module packages: the four AST passes (determinism, floatcmp,
// errdiscipline, panicfree) plus the units-of-measure dataflow pass
// (clockunits). Lock copies are go vet's copylocks check. It is pure
// stdlib — no analysis frameworks, no network.
//
// Every run type-checks the matched packages and their module dependencies
// afresh; packages type-check and analyze on a GOMAXPROCS-wide worker pool.
//
// Usage:
//
//	dynnlint ./...                  # whole module
//	dynnlint ./internal/core        # one package
//	dynnlint -json ./...            # machine-readable findings
//	dynnlint -sarif lint.sarif ./...  # SARIF 2.1.0 for code scanning
//	dynnlint -analyzers determinism,clockunits ./...
//	dynnlint -list                  # describe the analyzers
//
// Exit status: 0 clean, 1 findings, 2 usage or load failure. Findings are
// suppressed in source with `//dynnlint:ignore <analyzer> <reason>` on the
// offending line or the line above; the reason is mandatory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"dynnoffload/internal/lint"
)

func main() {
	var (
		jsonOut   = flag.Bool("json", false, "emit findings as a JSON array")
		sarifOut  = flag.String("sarif", "", "write findings as SARIF 2.1.0 to this file (\"-\" for stdout)")
		analyzers = flag.String("analyzers", "", "comma-separated analyzer subset (default: all)")
		list      = flag.Bool("list", false, "list analyzers and exit")
	)
	flag.Parse()

	if *list {
		for _, an := range lint.All() {
			fmt.Printf("%-14s %s\n", an.Name, an.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	root, err := findModuleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "dynnlint:", err)
		os.Exit(2)
	}

	var names []string
	if *analyzers != "" {
		names = strings.Split(*analyzers, ",")
	}
	selected := lint.ByName(names)
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "dynnlint: no analyzers match %q\n", *analyzers)
		os.Exit(2)
	}

	findings, err := lint.Analyze(root, patterns, selected)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dynnlint:", err)
		os.Exit(2)
	}

	if *sarifOut != "" {
		out := os.Stdout
		if *sarifOut != "-" {
			f, err := os.Create(*sarifOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, "dynnlint:", err)
				os.Exit(2)
			}
			defer f.Close()
			out = f
		}
		if err := lint.WriteSARIF(out, root, selected, findings); err != nil {
			fmt.Fprintln(os.Stderr, "dynnlint:", err)
			os.Exit(2)
		}
	}

	// Findings print with paths relative to the working directory.
	cwd, _ := os.Getwd()
	for i := range findings {
		if rel, err := filepath.Rel(cwd, findings[i].File); err == nil && !strings.HasPrefix(rel, "..") {
			findings[i].File = rel
		}
	}

	switch {
	case *jsonOut:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []lint.Finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(os.Stderr, "dynnlint:", err)
			os.Exit(2)
		}
	case *sarifOut == "-":
		// SARIF already went to stdout; keep it valid JSON.
	default:
		for _, f := range findings {
			fmt.Printf("%s:%d:%d: %s: %s\n", f.File, f.Line, f.Col, f.Analyzer, f.Message)
		}
	}
	if len(findings) > 0 {
		if !*jsonOut && *sarifOut != "-" {
			fmt.Fprintf(os.Stderr, "dynnlint: %d finding(s)\n", len(findings))
		}
		os.Exit(1)
	}
}

// findModuleRoot walks up from the working directory to the go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above working directory")
		}
		dir = parent
	}
}
