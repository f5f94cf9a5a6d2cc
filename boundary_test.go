package dpi

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strconv"
	"strings"
	"testing"
)

// TestRootDoesNotImportHardwareModel keeps the sensor/hardware-model
// boundary open: the root package is the software sensor, and the paper's
// FPGA model (block memory images, device tables, power curves) is linked
// only by binaries that import repro/fpga. The same goes for the group split
// that fits a ruleset to block memories: software scans one core.Machine, so
// no file here may mention core.Grouped or core.BuildGrouped. It parses the
// package's non-test files, so it names the offending file; CI's lint job
// asserts the imports of the transitive closure with `go list -deps .` and
// the group split with grep.
func TestRootDoesNotImportHardwareModel(t *testing.T) {
	hardware := map[string]bool{
		"repro/fpga":             true,
		"repro/internal/hwsim":   true,
		"repro/internal/device":  true,
		"repro/internal/power":   true,
		"repro/internal/bitpack": true,
	}
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	files := 0
	for _, pkg := range pkgs {
		for name, f := range pkg.Files {
			files++
			for _, imp := range f.Imports {
				if path, _ := strconv.Unquote(imp.Path.Value); hardware[path] {
					t.Errorf("%s imports %s: the hardware model belongs behind package fpga", name, path)
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == "core" && (sel.Sel.Name == "Grouped" || sel.Sel.Name == "BuildGrouped") {
					t.Errorf("%s mentions core.%s: the group split is the hardware model's, behind fpga.New", name, sel.Sel.Name)
				}
				return true
			})
		}
	}
	if files == 0 {
		t.Fatal("parsed no source files (walker drift)")
	}
}
