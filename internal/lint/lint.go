// Package lint is the dynnlint static-analysis framework: a pure-stdlib
// (go/ast, go/parser, go/types) analyzer driver with project-specific passes
// that enforce the repo's determinism, float-comparison, error-discipline,
// panic and clock-unit contracts (lock copies are go vet's copylocks check).
// The parallel epoch runtime promises bit-identical aggregates at any worker
// count; these analyzers make that promise machine-checked instead of
// review-checked.
//
// Findings are suppressed with an inline directive on the offending line or
// the line directly above it:
//
//	//dynnlint:ignore <analyzer> <reason>
//
// The reason is mandatory; a directive without one is itself reported.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Finding is one analyzer hit.
type Finding struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"-"`
	File     string         `json:"file"`
	Line     int            `json:"line"`
	Col      int            `json:"col"`
	Message  string         `json:"message"`
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

// Pass hands one type-checked package to an analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// Path is the package's import path (scoping decisions key off it).
	Path string

	findings *[]Finding
}

// Report records a finding at pos.
func (p *Pass) Report(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	*p.findings = append(*p.findings, Finding{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzer is one named pass over a type-checked package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// runPackage applies the analyzers to one package and returns its surviving
// findings (suppression applied, malformed directives appended), unsorted.
// It touches only the package's own AST/types plus read-only imported type
// information, so distinct packages may run concurrently.
func runPackage(pkg *Package, analyzers []*Analyzer) []Finding {
	sup := collectDirectives(pkg.Fset, pkg.Files, analyzers)
	var raw []Finding
	for _, an := range analyzers {
		pass := &Pass{
			Analyzer: an,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			Path:     pkg.Path,
			findings: &raw,
		}
		an.Run(pass)
	}
	var out []Finding
	for _, f := range raw {
		if !sup.suppresses(f) {
			out = append(out, f)
		}
	}
	return append(out, sup.malformed...)
}

// sortFindings orders findings by file, line, column, analyzer.
func sortFindings(all []Finding) {
	sort.Slice(all, func(i, j int) bool {
		if all[i].File != all[j].File {
			return all[i].File < all[j].File
		}
		if all[i].Line != all[j].Line {
			return all[i].Line < all[j].Line
		}
		if all[i].Col != all[j].Col {
			return all[i].Col < all[j].Col
		}
		return all[i].Analyzer < all[j].Analyzer
	})
}
