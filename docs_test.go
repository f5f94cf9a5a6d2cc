package dpi

import (
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// lintedDocs is the authored documentation set. ISSUE.md, SNIPPETS.md and
// PAPERS.md are driver/reference material whose content this repository
// does not control, so they are deliberately excluded.
var lintedDocs = []string{
	"README.md",
	"ARCHITECTURE.md",
	"OPERATIONS.md",
	"ROADMAP.md",
	"PAPER.md",
	"CHANGES.md",
}

var goFence = regexp.MustCompile("(?s)```go\n(.*?)```")

// TestDocsGoBlocksFormatted holds every fenced Go block in the authored
// docs to the same standard as committed source: it must parse (as a file
// or as a statement/declaration fragment) and already be gofmt-clean, so
// examples in prose cannot rot into code that would not survive review.
func TestDocsGoBlocksFormatted(t *testing.T) {
	blocks := 0
	for _, name := range lintedDocs {
		raw, err := os.ReadFile(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, m := range goFence.FindAllStringSubmatch(string(raw), -1) {
			blocks++
			src := m[1]
			formatted, err := format.Source([]byte(src))
			if err != nil {
				t.Errorf("%s: go block %d does not parse: %v\n%s", name, i+1, err, src)
				continue
			}
			if got, want := strings.TrimRight(string(formatted), "\n"), strings.TrimRight(src, "\n"); got != want {
				t.Errorf("%s: go block %d is not gofmt-clean; want:\n%s", name, i+1, got)
			}
		}
	}
	if blocks == 0 {
		t.Error("no fenced Go blocks found in the authored docs (regex or docs drift)")
	}
}

var mdLink = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)

// TestDocsRelativeLinksResolve checks that every relative markdown link
// in the authored docs points at a file or directory that exists, so a
// rename or deletion cannot silently strand the documentation.
func TestDocsRelativeLinksResolve(t *testing.T) {
	links := 0
	for _, name := range lintedDocs {
		raw, err := os.ReadFile(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(raw), -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
				continue
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			links++
			if _, err := os.Stat(target); err != nil {
				t.Errorf("%s: link target %q does not exist", name, m[1])
			}
		}
	}
	if links == 0 {
		t.Error("no relative links found in the authored docs (regex or docs drift)")
	}
}

// definedTests maps the name of every Test and Fuzz function declared in
// the repository's _test.go files to the directories that declare it, each
// spelled as a package argument to go test ("." or "./internal/core").
func definedTests(t *testing.T) map[string][]string {
	t.Helper()
	defined := make(map[string][]string)
	var walk func(dir string)
	walk = func(dir string) {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			path := dir + "/" + e.Name()
			switch {
			case e.IsDir() && e.Name() != "testdata" && !strings.HasPrefix(e.Name(), "."):
				walk(path)
			case strings.HasSuffix(e.Name(), "_test.go"):
				src, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				for _, d := range regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)[A-Za-z0-9_]+)\(`).FindAllSubmatch(src, -1) {
					defined[string(d[1])] = append(defined[string(d[1])], dir)
				}
			}
		}
	}
	walk(".")
	if defined["TestDocsNamedTestsExist"] == nil {
		t.Fatalf("self-check failed: the walker did not see docs_test.go (%d tests found)", len(defined))
	}
	return defined
}

// TestDocsNamedTestsExist cross-checks ARCHITECTURE.md's enforcement
// table: every Test/Fuzz function it names must exist somewhere in the
// repository's _test.go files, so the table cannot refer to tests that
// were renamed or removed.
func TestDocsNamedTestsExist(t *testing.T) {
	raw, err := os.ReadFile("ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	named := regexp.MustCompile("`((?:Test|Fuzz)[A-Za-z0-9_]+)`").FindAllStringSubmatch(string(raw), -1)
	if len(named) == 0 {
		t.Fatal("ARCHITECTURE.md names no tests (regex or docs drift)")
	}
	defined := definedTests(t)
	for _, m := range named {
		if defined[m[1]] == nil {
			t.Errorf("ARCHITECTURE.md names %s, which is not defined in any _test.go file", m[1])
		}
	}
}

// TestDocsCIRunPatternsMatchTests reads every `-run '<re>'` but '^$' in the
// CI workflows, the per-change ci.yml and the nightly fuzz-long.yml, and
// requires each of its alternatives to match some Test or Fuzz function
// defined in the repository, so a renamed test cannot silently drop out of
// a race stress, a footprint gate or the nightly soak sweep. An alternative
// of the form Prefix(a|b|…)Suffix is expanded one level, textually, into
// Prefix a Suffix, Prefix b Suffix, … first. Every `fuzzer:` entry of the
// workflows' fuzz matrices must name a Fuzz function of its `pkg` (the
// root package when it gives none), so a renamed fuzzer cannot either.
func TestDocsCIRunPatternsMatchTests(t *testing.T) {
	defined := definedTests(t)
	fuzzEntry := regexp.MustCompile(`(?m)^\s*- fuzzer: (\S+)\n((?:\s+[a-z]+: .*\n)*)`)
	pkgField := regexp.MustCompile(`pkg: (\S+)`)
	for _, workflow := range []string{".github/workflows/ci.yml", ".github/workflows/fuzz-long.yml"} {
		raw, err := os.ReadFile(workflow)
		if err != nil {
			t.Fatal(err)
		}
		checked := 0
		for _, p := range regexp.MustCompile(`-run '([^']*)'`).FindAllStringSubmatch(string(raw), -1) {
			if p[1] == "^$" {
				continue
			}
			for _, alt := range expandRunPattern(p[1]) {
				checked++
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("%s -run '%s': alternative %q does not compile: %v", workflow, p[1], alt, err)
					continue
				}
				found := false
				for name := range defined {
					if found = re.MatchString(name); found {
						break
					}
				}
				if !found {
					t.Errorf("%s -run '%s': %q matches no Test or Fuzz function in the repository", workflow, p[1], alt)
				}
			}
		}
		if checked == 0 {
			t.Fatalf("%s has no -run pattern to check (regex or workflow drift)", workflow)
		}
		fuzzers := fuzzEntry.FindAllStringSubmatch(string(raw), -1)
		for _, f := range fuzzers {
			pkg := "."
			if m := pkgField.FindStringSubmatch(f[2]); m != nil {
				pkg = m[1]
			}
			if !strings.HasPrefix(f[1], "Fuzz") || !slices.Contains(defined[f[1]], pkg) {
				t.Errorf("%s fuzzes %s in %s, which declares no such Fuzz function", workflow, f[1], pkg)
			}
		}
		if len(fuzzers) == 0 {
			t.Fatalf("%s has no fuzzer: matrix entry to check (regex or workflow drift)", workflow)
		}
	}
}

// expandRunPattern splits a -run regexp into its top-level alternatives and
// expands the one parenthesised alternation an alternative may hold.
func expandRunPattern(re string) []string {
	var out []string
	for _, alt := range splitTopLevel(re) {
		lo, hi := strings.IndexByte(alt, '('), strings.LastIndexByte(alt, ')')
		if lo < 0 || hi < lo {
			out = append(out, alt)
			continue
		}
		for _, inner := range splitTopLevel(alt[lo+1 : hi]) {
			out = append(out, alt[:lo]+inner+alt[hi+1:])
		}
	}
	return out
}

// splitTopLevel splits re at every '|' outside parentheses.
func splitTopLevel(re string) []string {
	var parts []string
	depth, start := 0, 0
	for i, c := range re {
		switch c {
		case '(':
			depth++
		case ')':
			depth--
		case '|':
			if depth == 0 {
				parts = append(parts, re[start:i])
				start = i + 1
			}
		}
	}
	return append(parts, re[start:])
}

// TestDocsQuotedDpibenchFlagsExist checks every flag the runbook quotes on
// a dpibench command line (`dpibench -x ...`, `./cmd/dpibench -x ...`)
// against the flags cmd/dpibench/main.go declares, so a retired mode
// cannot survive in README.md, OPERATIONS.md or the package doc.
func TestDocsQuotedDpibenchFlagsExist(t *testing.T) {
	src, err := os.ReadFile("cmd/dpibench/main.go")
	if err != nil {
		t.Fatal(err)
	}
	declared := make(map[string]bool)
	for _, m := range regexp.MustCompile(`flag\.[A-Z][A-Za-z0-9]*\("([^"]+)"`).FindAllSubmatch(src, -1) {
		declared[string(m[1])] = true
	}
	if !declared["all"] || !declared["kernel"] {
		t.Fatalf("flag declarations not found in cmd/dpibench/main.go (regex or source drift): %v", declared)
	}
	// A command line: flags, each optionally followed by one value, up to
	// the closing backtick, parenthesis or prose.
	cmdline := regexp.MustCompile("dpibench((?:\\s+-[a-z]+(?:\\s+[^\\s`-][^\\s`]*)?)+)")
	quotedFlag := regexp.MustCompile(`\s-([a-z]+)`)
	quoted := 0
	for _, name := range []string{"README.md", "OPERATIONS.md", "doc.go"} {
		raw, err := os.ReadFile(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, line := range cmdline.FindAllSubmatch(raw, -1) {
			for _, f := range quotedFlag.FindAllSubmatch(line[1], -1) {
				quoted++
				if !declared[string(f[1])] {
					t.Errorf("%s quotes `dpibench%s`, but cmd/dpibench declares no -%s flag", name, line[1], f[1])
				}
			}
		}
	}
	if quoted == 0 {
		t.Error("no quoted dpibench flags found in the docs (regex or docs drift)")
	}
}

// TestDocsOperationsListsEverySeries cross-checks OPERATIONS.md's series
// reference against a live exposition: every family a 2 × 2 gateway with
// verdict rules emits has a row in the reference tables, and every dpi_*
// family those tables name is emitted, so a series cannot ship undocumented
// or be documented after it is gone.
func TestDocsOperationsListsEverySeries(t *testing.T) {
	raw, err := os.ReadFile("OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, ref, ok := strings.Cut(string(raw), "\n## Series reference\n")
	if !ok {
		t.Fatal(`OPERATIONS.md has no "## Series reference" section`)
	}
	ref, _, _ = strings.Cut(ref, "\n## ")
	documented := map[string]bool{}
	for _, m := range regexp.MustCompile("(?m)^\\| `(dpi_[a-z0-9_]+)` \\|").FindAllStringSubmatch(ref, -1) {
		documented[m[1]] = true
	}

	m := testMatcher(t, snortLike(60, 77, BackendAuto))
	gw := testGateway(t, m, 2, GatewayConfig{StreamWorkers: 2, Rules: metricsTestRules()}, func(FlowMatch) {})
	emitted := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^# TYPE (\S+) `).FindAllStringSubmatch(scrape(t, gw), -1) {
		emitted[m[1]] = true
		if !documented[m[1]] {
			t.Errorf("%s is emitted but has no row in OPERATIONS.md's series reference", m[1])
		}
	}
	if len(emitted) == 0 {
		t.Fatal("the exposition declares no families (regex or render drift)")
	}
	for name := range documented {
		if !emitted[name] {
			t.Errorf("OPERATIONS.md documents %s, which the gateway does not emit", name)
		}
	}
}

// docMemberRef is a backticked `Type.Member`, optionally package-qualified
// and optionally called: `Machine.Verify(trie, payloads)`,
// `reassembly.Config.Budget`.
var docMemberRef = regexp.MustCompile("`(?:[a-z][a-z0-9]*\\.)?([A-Za-z_][A-Za-z0-9_]*)\\.([A-Za-z_][A-Za-z0-9_]*)(?:\\([^`]*\\))?`")

// TestDocsNamedMembersExist holds every backticked `Type.Member` in
// README.md, ARCHITECTURE.md and OPERATIONS.md to the repository's non-test
// Go: the member must be a method or field declared on that type, on the
// type it aliases, or promoted to it from a type it embeds, so a renamed or
// deleted member cannot linger in the prose. Names whose type is not
// declared in the repository (a package, a variable) are skipped; bench/ is
// not read, and types of one name in several packages pool their members.
func TestDocsNamedMembersExist(t *testing.T) {
	members := map[string]map[string]bool{} // type name → its declared members
	embeds := map[string][]string{}         // type name → the types it embeds or aliases
	declare := func(typ, member string) {
		if members[typ] == nil {
			members[typ] = map[string]bool{}
		}
		members[typ][member] = true
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "bench" || d.Name() == "testdata" || path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv != nil {
					declare(baseTypeName(decl.Recv.List[0].Type), decl.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					typ := ts.Name.Name
					declare(typ, "")
					if e := baseTypeName(ts.Type); ts.Assign.IsValid() && e != typ {
						embeds[typ] = append(embeds[typ], e) // an alias has its target's members
					}
					var fields []*ast.Field
					switch def := ts.Type.(type) {
					case *ast.StructType:
						fields = def.Fields.List
					case *ast.InterfaceType:
						fields = def.Methods.List
					}
					for _, field := range fields {
						for _, name := range field.Names {
							declare(typ, name.Name)
						}
						if len(field.Names) == 0 { // embedded: named by its type
							e := baseTypeName(field.Type)
							declare(typ, e)
							embeds[typ] = append(embeds[typ], e)
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var has func(typ, member string, depth int) bool
	has = func(typ, member string, depth int) bool {
		if members[typ][member] {
			return true
		}
		for _, e := range embeds[typ] {
			if depth < 8 && has(e, member, depth+1) {
				return true
			}
		}
		return false
	}
	checked := 0
	for _, name := range []string{"README.md", "ARCHITECTURE.md", "OPERATIONS.md"} {
		raw, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range docMemberRef.FindAllStringSubmatch(string(raw), -1) {
			if members[m[1]] == nil {
				continue
			}
			checked++
			if !has(m[1], m[2], 0) {
				t.Errorf("%s names %s, but %s declares no %s", name, m[0], m[1], m[2])
			}
		}
	}
	if checked == 0 {
		t.Error("the docs name no member of a declared type (regex or parser drift)")
	}
}

// baseTypeName is the name of the type e spells, through pointers, type
// arguments and a package qualifier.
func baseTypeName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.SelectorExpr:
			return x.Sel.Name
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
