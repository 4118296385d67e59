// peilint is the project's static-analysis gate: it enforces the
// simulator's determinism and hot-path invariants (see DESIGN.md §10
// and §15).
//
// Usage:
//
//	go run ./cmd/peilint ./...        # whole module (what CI runs)
//	go run ./cmd/peilint ./internal/sim ./internal/cache/...
//	go run ./cmd/peilint -json ./...  # machine-readable findings
//	go run ./cmd/peilint -list        # describe the analyzers
//
// Packages are analyzed in import topological order so that analyzers
// exporting facts (nondeterminism reachability, per-call string
// allocation, string-keyed counter updates) see their dependencies'
// facts; the checks are therefore inter-procedural across the whole
// module, not per package. A well-formed //peilint:allow directive
// that no longer suppresses anything is itself reported as a stale
// waiver.
//
// Each finding prints as "file:line:col: analyzer: message" (or as a
// JSON array with file/line/col/analyzer/message fields under -json).
// Exit status: 0 clean, 1 findings, 2 load or internal errors.
// Deliberate exceptions carry `//peilint:allow <analyzer> <reason>`
// directives, themselves validated by the waiver analyzer.
//
// The binary is standard-library only and works offline: module-local
// packages are type-checked from source and the standard library is
// imported through go/importer's source importer.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"pimsim/internal/lint"
)

// jsonFinding is the -json output schema, consumed by the CI lint job.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	listFlag := flag.Bool("list", false, "describe the analyzers and exit")
	verbose := flag.Bool("v", false, "log each package as it is analyzed")
	jsonFlag := flag.Bool("json", false, "emit findings as a JSON array on stdout")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: peilint [-list] [-json] [-v] [packages]\n\npackages are ./dir or ./dir/... patterns; default ./...\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *listFlag {
		for _, a := range lint.Analyzers() {
			scope := "all packages"
			if a.Packages != nil {
				scope = strings.Join(a.Packages, ", ")
			}
			fmt.Printf("%-12s %s\n%-12s scope: %s\n\n", a.Name, a.Doc, "", scope)
		}
		return
	}

	root, err := findModuleRoot()
	if err != nil {
		fatal(err)
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		fatal(err)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := loadPatterns(loader, root, patterns)
	if err != nil {
		fatal(err)
	}

	if *verbose {
		for _, pkg := range pkgs {
			fmt.Fprintf(os.Stderr, "peilint: %s\n", pkg.ImportPath)
		}
	}
	diags, err := lint.Analyze(loader, pkgs, lint.Analyzers())
	if err != nil {
		fatal(err)
	}

	// Print module-relative paths so output is stable across checkouts.
	for i := range diags {
		if rel, err := filepath.Rel(root, diags[i].Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			diags[i].Pos.Filename = rel
		}
	}
	if *jsonFlag {
		findings := make([]jsonFinding, 0, len(diags))
		for _, d := range diags {
			findings = append(findings, jsonFinding{
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Col:      d.Pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			fatal(err)
		}
	} else {
		for _, d := range diags {
			fmt.Printf("%s: %s: %s\n", d.Pos, d.Analyzer, d.Message)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "peilint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "peilint: %v\n", err)
	os.Exit(2)
}

// findModuleRoot walks up from the working directory to the nearest
// go.mod.
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
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// loadPatterns resolves ./dir and ./dir/... patterns (relative to the
// module root) into loaded packages, deduplicating by import path.
func loadPatterns(loader *lint.Loader, root string, patterns []string) ([]*lint.Package, error) {
	seen := make(map[string]bool)
	var out []*lint.Package
	add := func(ps ...*lint.Package) {
		for _, p := range ps {
			if !seen[p.ImportPath] {
				seen[p.ImportPath] = true
				out = append(out, p)
			}
		}
	}
	for _, pat := range patterns {
		recursive := false
		if strings.HasSuffix(pat, "/...") {
			recursive = true
			pat = strings.TrimSuffix(pat, "/...")
		}
		if pat == "." || pat == "./" {
			pat = ""
		}
		pat = strings.TrimPrefix(pat, "./")
		dir := filepath.Join(root, filepath.FromSlash(pat))
		if recursive {
			ps, err := loader.LoadUnder(dir)
			if err != nil {
				return nil, err
			}
			add(ps...)
			continue
		}
		importPath := loader.ModulePath
		if pat != "" {
			importPath = loader.ModulePath + "/" + filepath.ToSlash(pat)
		}
		p, err := loader.LoadDir(dir, importPath)
		if err != nil {
			return nil, err
		}
		add(p)
	}
	return out, nil
}
