// Command presslint runs the project-specific static-analysis suite
// over the given packages (default ./...) and exits nonzero on
// findings. It is part of the tier-1 check gate (see `make check`).
//
// Usage:
//
//	go run ./cmd/presslint [-analyzer a,b] [packages...]
//
// Package arguments are directories; a trailing /... walks
// recursively. All packages are parsed and type-checked ONCE into a
// whole-program view shared by every analyzer — the interprocedural
// analyzers (hotpath-alloc, lock-order, atomic-consistency) need the
// cross-package call graph, and the per-file analyzers reuse the same
// type information instead of re-checking per package.
//
// Findings print as
//
//	file:line: [analyzer] message
//
// -analyzer restricts the run to a comma-separated subset, e.g.
// -analyzer hotpath-alloc,lock-order.
//
// Suppress a finding with //presslint:ignore <analyzer> <justification>
// on the flagged line or the line directly above it.
package main

import (
	"flag"
	"fmt"
	"go/importer"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"press/lint"
)

func main() {
	analyzerFlag := flag.String("analyzer", "", "comma-separated analyzer names to run (default all)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: presslint [-analyzer a,b] [packages...]\n\nAnalyzers:\n")
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(os.Stderr, "  %-22s %s\n", a.Name, a.Doc)
		}
		for _, a := range lint.ProgramAnalyzers() {
			fmt.Fprintf(os.Stderr, "  %-22s %s\n", a.Name, a.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()

	only, err := parseAnalyzers(*analyzerFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "presslint: %v\n", err)
		os.Exit(2)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dirs, err := expand(patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "presslint: %v\n", err)
		os.Exit(2)
	}

	fset := token.NewFileSet()
	modPath := modulePath()
	var pkgs []*lint.Package
	for _, dir := range dirs {
		pkg, err := lint.LoadDir(fset, dir)
		if err != nil {
			// Unparseable code is the build gate's problem; report and
			// keep linting the rest.
			fmt.Fprintf(os.Stderr, "presslint: %v\n", err)
			continue
		}
		if len(pkg.Files) == 0 {
			continue
		}
		pkg.Path = importPathFor(modPath, dir)
		pkgs = append(pkgs, pkg)
	}

	// One program: every package type-checked once, in dependency order,
	// with intra-module imports resolved against each other and stdlib
	// imports through a shared source importer.
	prog := lint.LoadProgram(fset, pkgs, importer.ForCompiler(fset, "source", nil))
	findings := prog.CheckAnalyzers(only)

	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "presslint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// parseAnalyzers turns the -analyzer flag into a set, rejecting names
// the suite does not know so a typo fails loudly instead of silently
// running nothing.
func parseAnalyzers(s string) (map[string]bool, error) {
	if s == "" {
		return nil, nil
	}
	known := make(map[string]bool)
	for _, name := range lint.AnalyzerNames() {
		known[name] = true
	}
	only := make(map[string]bool)
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if !known[name] {
			return nil, fmt.Errorf("unknown analyzer %q (see -h for the list)", name)
		}
		only[name] = true
	}
	return only, nil
}

// modulePath reads the module path from go.mod in the working
// directory, so package directories map to import paths. Outside a
// module the directory itself serves as the path.
func modulePath() string {
	data, err := os.ReadFile("go.mod")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest)
		}
	}
	return ""
}

func importPathFor(modPath, dir string) string {
	dir = filepath.ToSlash(filepath.Clean(dir))
	if modPath == "" {
		return dir
	}
	if dir == "." {
		return modPath
	}
	return modPath + "/" + dir
}

// expand turns package patterns into the list of directories to lint.
func expand(patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var dirs []string
	add := func(d string) {
		d = filepath.Clean(d)
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		root, recursive := strings.CutSuffix(pat, "/...")
		if root == "" || root == "." {
			root = "."
		}
		if !recursive {
			info, err := os.Stat(root)
			if err != nil {
				return nil, err
			}
			if !info.IsDir() {
				return nil, fmt.Errorf("%s is not a directory", root)
			}
			add(root)
			continue
		}
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			add(path)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return dirs, nil
}
