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
// no file here may mention core.Grouped or core.BuildGrouped. Nor may it
// import internal/engine, the benchmark's layer harness: a stream or a flow
// record holds a bare core.Regs and scans with Machine.ScanAppend. It parses
// the package's non-test files, so it names the offending file; CI's lint
// job asserts the imports of the transitive closure with `go list -deps .`
// and the group split with grep.
func TestRootDoesNotImportHardwareModel(t *testing.T) {
	const hw = "the hardware model belongs behind package fpga"
	forbidden := map[string]string{
		"repro/fpga":             hw,
		"repro/internal/hwsim":   hw,
		"repro/internal/device":  hw,
		"repro/internal/power":   hw,
		"repro/internal/bitpack": hw,
		"repro/internal/engine":  "a flow's registers are a core.Regs; the engine package is the benchmark's harness",
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
				path, _ := strconv.Unquote(imp.Path.Value)
				if why, ok := forbidden[path]; ok {
					t.Errorf("%s imports %s: %s", name, path, why)
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
