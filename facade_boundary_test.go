package dynnoffload

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// toolingImports whitelists the internal packages each harness/tooling binary
// may reach past the facade. Binaries absent from this map are user-facing
// CLIs and must import only the public dynnoffload package.
var toolingImports = map[string][]string{
	// The bench harness IS the experiment layer; it drives internal/expt
	// directly and shares its recorder plumbing.
	"dynnbench": {
		"dynnoffload/internal/core",
		"dynnoffload/internal/expt",
		"dynnoffload/internal/faults",
		"dynnoffload/internal/obsv",
	},
	// The repo linter walks internal packages by construction.
	"dynnlint": {"dynnoffload/internal/lint"},
	// The trace viewer decodes internal/obsv's span schema.
	"dynntrace": {"dynnoffload/internal/obsv"},
	// The pilot training tool pokes at pilot internals on purpose.
	"pilottrain": {
		"dynnoffload/internal/dynn",
		"dynnoffload/internal/gpusim",
		"dynnoffload/internal/nn",
		"dynnoffload/internal/pilot",
	},
}

// TestCommandsStayBehindFacade parses every command's imports and fails if a
// user-facing binary (dynnserve, dynnoffload, tracegen, ...) reaches into
// dynnoffload/internal/..., or a tooling binary grows an unlisted internal
// dependency. It parses files directly rather than through a type-checking
// loader, so build-tagged files count too, and it also fails on whitelist
// entries for binaries that no longer exist.
func TestCommandsStayBehindFacade(t *testing.T) {
	entries, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no commands under cmd/")
	}
	fset := token.NewFileSet()
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		allowed := map[string]bool{}
		for _, p := range toolingImports[e.Name()] {
			allowed[p] = true
		}
		files, err := filepath.Glob(filepath.Join("cmd", e.Name(), "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		if len(files) == 0 {
			t.Errorf("cmd/%s has no Go files", e.Name())
		}
		for _, file := range files {
			f, err := parser.ParseFile(fset, file, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatalf("%s: %v", file, err)
			}
			for _, imp := range f.Imports {
				path, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					t.Fatalf("%s: %v", file, err)
				}
				if !strings.HasPrefix(path, "dynnoffload/internal") {
					continue
				}
				if !allowed[path] {
					t.Errorf("%s imports %s past the public facade; use a dynnoffload re-export or extend toolingImports with a rationale",
						file, path)
				}
			}
		}
	}
	// The whitelist must not carry stale binaries.
	for name := range toolingImports {
		if _, err := os.Stat(filepath.Join("cmd", name)); err != nil {
			t.Errorf("toolingImports lists %q but cmd/%s does not exist", name, name)
		}
	}
}
