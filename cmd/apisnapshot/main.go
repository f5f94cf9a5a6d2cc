// Command apisnapshot dumps the exported API surface of a package — the
// root dpi package, or with -dir the fpga package — as a sorted,
// deterministic text listing, one line per exported const, var, func,
// type, method and struct field. The golden copies live at api/dpi.txt and
// api/fpga.txt; CI regenerates the listings and fails on any drift, so an
// API change (adding a method counts, renaming a field counts) is always a
// reviewed, committed diff to the golden file rather than a silent
// compatibility break.
//
// Usage:
//
//	apisnapshot                    # print the current surface to stdout
//	apisnapshot -write api/dpi.txt # refresh the golden file
//	apisnapshot -check api/dpi.txt # exit 1 (with a diff) on drift
//	apisnapshot -dir fpga -check api/fpga.txt
//
// Only the standard library is used; the tool parses source, it does not
// type-check, so it runs before the package even compiles.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"sort"
	"strings"
)

func main() {
	var (
		dir   = flag.String("dir", ".", "package directory to snapshot")
		write = flag.String("write", "", "write the snapshot to this file")
		check = flag.String("check", "", "compare the snapshot against this golden file; exit 1 on drift")
	)
	flag.Parse()
	snap, err := snapshot(*dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "apisnapshot:", err)
		os.Exit(1)
	}
	switch {
	case *check != "":
		golden, err := os.ReadFile(*check)
		if err != nil {
			fmt.Fprintln(os.Stderr, "apisnapshot:", err)
			os.Exit(1)
		}
		if d := diff(string(golden), snap); d != "" {
			fmt.Fprintf(os.Stderr, "apisnapshot: exported API drifted from %s:\n%s", *check, d)
			fmt.Fprintf(os.Stderr, "apisnapshot: if the change is intended, refresh with: go run ./cmd/apisnapshot -write %s\n", *check)
			os.Exit(1)
		}
	case *write != "":
		if err := os.WriteFile(*write, []byte(snap), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "apisnapshot:", err)
			os.Exit(1)
		}
	default:
		fmt.Print(snap)
	}
}

// snapshot parses every non-test file of the package in dir and renders
// its exported surface, sorted line by line.
func snapshot(dir string) (string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		return "", err
	}
	if len(pkgs) != 1 {
		names := make([]string, 0, len(pkgs))
		for n := range pkgs {
			names = append(names, n)
		}
		return "", fmt.Errorf("%s holds %d packages (%s), want exactly 1", dir, len(pkgs), strings.Join(names, ", "))
	}
	var lines []string
	var pkgName string
	for name, pkg := range pkgs {
		pkgName = name
		for _, f := range pkg.Files {
			lines = append(lines, fileLines(fset, f)...)
		}
	}
	sort.Strings(lines)
	var b strings.Builder
	dirArg := ""
	if pkgName != "dpi" { // the root package is dpi in "."; every other lives in a directory of its name
		dirArg = "-dir " + pkgName + " "
	}
	fmt.Fprintf(&b, "# Exported API of package %s. Regenerate: go run ./cmd/apisnapshot %s-write api/%s.txt\n", pkgName, dirArg, pkgName)
	for _, l := range lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	return b.String(), nil
}

func fileLines(fset *token.FileSet, f *ast.File) []string {
	var lines []string
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if l, ok := funcLine(fset, d); ok {
				lines = append(lines, l)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.ValueSpec:
					kind := "const"
					if d.Tok == token.VAR {
						kind = "var"
					}
					for _, n := range s.Names {
						if !n.IsExported() {
							continue
						}
						l := kind + " " + n.Name
						if s.Type != nil {
							l += " " + render(fset, s.Type)
						}
						lines = append(lines, l)
					}
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						lines = append(lines, typeLines(fset, s)...)
					}
				}
			}
		}
	}
	return lines
}

// funcLine renders an exported function or an exported method on an
// exported receiver type as one line.
func funcLine(fset *token.FileSet, d *ast.FuncDecl) (string, bool) {
	if !d.Name.IsExported() {
		return "", false
	}
	sig := strings.TrimPrefix(render(fset, d.Type), "func")
	if d.Recv == nil {
		return "func " + d.Name.Name + sig, true
	}
	recv := render(fset, d.Recv.List[0].Type)
	if !ast.IsExported(strings.TrimLeft(recv, "*")) {
		return "", false
	}
	return "method (" + recv + ") " + d.Name.Name + sig, true
}

// typeLines renders an exported type: its kind line, plus one line per
// exported struct field or interface method, so a field rename or method
// signature change shows up as a minimal diff.
func typeLines(fset *token.FileSet, s *ast.TypeSpec) []string {
	name := s.Name.Name
	eq := ""
	if s.Assign != token.NoPos {
		eq = "= " // alias
	}
	switch t := s.Type.(type) {
	case *ast.StructType:
		lines := []string{"type " + name + " " + eq + "struct"}
		for _, f := range t.Fields.List {
			typ := render(fset, f.Type)
			if len(f.Names) == 0 { // embedded
				lines = append(lines, "field "+name+"."+strings.TrimLeft(typ, "*")+" "+typ)
				continue
			}
			for _, fn := range f.Names {
				if fn.IsExported() {
					lines = append(lines, "field "+name+"."+fn.Name+" "+typ)
				}
			}
		}
		return lines
	case *ast.InterfaceType:
		lines := []string{"type " + name + " " + eq + "interface"}
		for _, m := range t.Methods.List {
			if len(m.Names) == 0 { // embedded interface
				lines = append(lines, "ifacemethod "+name+"."+render(fset, m.Type))
				continue
			}
			for _, mn := range m.Names {
				if mn.IsExported() {
					sig := strings.TrimPrefix(render(fset, m.Type), "func")
					lines = append(lines, "ifacemethod "+name+"."+mn.Name+sig)
				}
			}
		}
		return lines
	default:
		return []string{"type " + name + " " + eq + render(fset, s.Type)}
	}
}

// render prints one AST node to a single normalized line.
func render(fset *token.FileSet, n ast.Node) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, n); err != nil {
		return fmt.Sprintf("<%v>", err)
	}
	return strings.Join(strings.Fields(buf.String()), " ")
}

// diff emits a minimal line diff (golden vs current) — enough to show in
// CI logs which symbols appeared or vanished, without pulling in a diff
// library.
func diff(golden, current string) string {
	g := strings.Split(strings.TrimRight(golden, "\n"), "\n")
	c := strings.Split(strings.TrimRight(current, "\n"), "\n")
	inG := map[string]bool{}
	for _, l := range g {
		inG[l] = true
	}
	inC := map[string]bool{}
	for _, l := range c {
		inC[l] = true
	}
	var b strings.Builder
	for _, l := range g {
		if !inC[l] {
			fmt.Fprintf(&b, "-%s\n", l)
		}
	}
	for _, l := range c {
		if !inG[l] {
			fmt.Fprintf(&b, "+%s\n", l)
		}
	}
	return b.String()
}
