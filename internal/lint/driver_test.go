package lint

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTempModule lays out a two-package module: b imports a, and a carries
// one errdiscipline violation (unscoped analyzer, fires anywhere).
func writeTempModule(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	files := map[string]string{
		"go.mod": "module tmpmod\n\ngo 1.21\n",
		"a/a.go": `package a

import "errors"

// ErrGone is a sentinel.
var ErrGone = errors.New("gone")

// IsGone compares errors with == (seeded errdiscipline violation).
func IsGone(err error) bool { return err == ErrGone }
`,
		"b/b.go": `package b

import "tmpmod/a"

// Check forwards to a.
func Check(err error) bool { return a.IsGone(err) }
`,
	}
	for rel, src := range files {
		fn := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(fn), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fn, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// TestAnalyzeRerunSeesEdits pins the driver's contract: every run analyzes
// the tree as it stands. The first run finds a's one violation; after an edit
// to a adds a second, the next run finds both.
func TestAnalyzeRerunSeesEdits(t *testing.T) {
	root := writeTempModule(t)
	first, err := Analyze(root, []string{"./..."}, All())
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 1 || first[0].Analyzer != "errdiscipline" {
		t.Fatalf("first run findings = %v, want 1 errdiscipline", first)
	}

	an := filepath.Join(root, "a", "a.go")
	src, err := os.ReadFile(an)
	if err != nil {
		t.Fatal(err)
	}
	edited := strings.Replace(string(src), "return err == ErrGone",
		"return err == ErrGone || err != ErrGone", 1)
	if edited == string(src) {
		t.Fatal("edit did not apply")
	}
	if err := os.WriteFile(an, []byte(edited), 0o644); err != nil {
		t.Fatal(err)
	}
	second, err := Analyze(root, []string{"./..."}, All())
	if err != nil {
		t.Fatal(err)
	}
	if len(second) != 2 {
		t.Fatalf("post-edit findings = %v, want 2", second)
	}
}

// TestAnalyzeHonorsBuildConstraints: a package that declares one name in
// per-architecture files, as internal/mathx does for its assembly kernel,
// type-checks. Only the files the go command builds for this GOARCH load:
// _GOARCH name suffixes and //go:build lines both apply, and a file the
// build ignores is never read, so its clashing declaration and its finding
// do not appear.
func TestAnalyzeHonorsBuildConstraints(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod":         "module tmpmod\n\ngo 1.21\n",
		"k/k.go":         "package k\n\n// Arch names the build's architecture family.\nfunc Arch() int { return arch }\n",
		"k/k_amd64.go":   "package k\n\nconst arch = 1\n",
		"k/k_arm64.go":   "package k\n\nconst arch = 2\n",
		"k/k_other.go":   "//go:build !amd64 && !arm64\n\npackage k\n\nconst arch = 3\n",
		"k/k_ignored.go": "//go:build ignore\n\npackage k\n\nimport \"errors\"\n\nconst arch = 4\n\nvar errGone = errors.New(\"gone\")\n\nfunc isGone(err error) bool { return err == errGone }\n",
	}
	for rel, src := range files {
		fn := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(fn), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fn, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	findings, err := Analyze(root, []string{"./..."}, All())
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Fatalf("findings from files the build excludes: %v", findings)
	}
}

// TestWriteSARIF pins the SARIF 2.1.0 shape GitHub code scanning consumes:
// schema/version headers, a rules table covering the analyzer set, and
// results with rule indices and %SRCROOT%-relative locations.
func TestWriteSARIF(t *testing.T) {
	findings := []Finding{
		{Analyzer: "clockunits", File: filepath.Join("/repo", "internal", "serve", "serve.go"),
			Line: 261, Col: 20, Message: "mixed units"},
		{Analyzer: "dynnlint", File: filepath.Join("/repo", "x.go"), Line: 3, Col: 1, Message: "bad directive"},
	}
	var buf bytes.Buffer
	if err := WriteSARIF(&buf, "/repo", All(), findings); err != nil {
		t.Fatal(err)
	}
	var log struct {
		Schema  string `json:"$schema"`
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				RuleIndex int    `json:"ruleIndex"`
				Level     string `json:"level"`
				Message   struct {
					Text string `json:"text"`
				} `json:"message"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI       string `json:"uri"`
							URIBaseID string `json:"uriBaseId"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine   int `json:"startLine"`
							StartColumn int `json:"startColumn"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("SARIF output is not valid JSON: %v", err)
	}
	if log.Schema != "https://json.schemastore.org/sarif-2.1.0.json" || log.Version != "2.1.0" {
		t.Fatalf("schema/version = %q/%q", log.Schema, log.Version)
	}
	if len(log.Runs) != 1 || log.Runs[0].Tool.Driver.Name != "dynnlint" {
		t.Fatalf("runs = %+v", log.Runs)
	}
	run := log.Runs[0]
	// Rules cover every analyzer plus the dynnlint pseudo-rule.
	if want := len(All()) + 1; len(run.Tool.Driver.Rules) != want {
		t.Fatalf("%d rules, want %d", len(run.Tool.Driver.Rules), want)
	}
	if len(run.Results) != 2 {
		t.Fatalf("%d results, want 2", len(run.Results))
	}
	r := run.Results[0]
	if r.RuleID != "clockunits" || r.Level != "error" || r.Message.Text != "mixed units" {
		t.Fatalf("result 0 = %+v", r)
	}
	if got := run.Tool.Driver.Rules[r.RuleIndex].ID; got != "clockunits" {
		t.Fatalf("ruleIndex %d resolves to %q, want clockunits", r.RuleIndex, got)
	}
	loc := r.Locations[0].PhysicalLocation
	if loc.ArtifactLocation.URI != "internal/serve/serve.go" || loc.ArtifactLocation.URIBaseID != "%SRCROOT%" {
		t.Fatalf("artifact location = %+v", loc.ArtifactLocation)
	}
	if loc.Region.StartLine != 261 || loc.Region.StartColumn != 20 {
		t.Fatalf("region = %+v", loc.Region)
	}
}
