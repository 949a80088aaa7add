package obs_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// repoRoot is the module root seen from this package's directory.
const repoRoot = "../.."

// emitKinds maps the Recorder / Span methods that put a name into the
// telemetry stream to the catalogue kind of what they emit.
var emitKinds = map[string]string{
	"Count":        "counter",
	"SetGauge":     "gauge",
	"Observe":      "histogram",
	"ObserveEx":    "histogram",
	"ObserveSince": "histogram",
	"StartSpan":    "span",
	"StartSpanIn":  "span",
	"StartChild":   "span",
	"Event":        "event",
}

// emission is one name (or `prefix*` / `*suffix` pattern) a non-test call
// site emits, with its kind and where.
type emission struct{ name, kind, pos string }

// collectEmissions parses every non-test .go file under internal/ and cmd/
// and returns the name argument of every telemetry call. A name is a string
// literal, `"x/" + key` (pattern x/*), `tag + ".suffix"` (pattern *.suffix),
// or an identifier bound to one of those in the same package (a constant, a
// := / = assignment, a struct-literal field). Anything else is returned in
// unresolved: the catalogue cannot vouch for a name it cannot read.
func collectEmissions(t *testing.T) (ems []emission, unresolved []string) {
	t.Helper()
	fset := token.NewFileSet()
	byDir := map[string][]*ast.File{}
	for _, top := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(filepath.Join(repoRoot, top), func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			byDir[filepath.Dir(path)] = append(byDir[filepath.Dir(path)], f)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for dir, files := range byDir {
		if filepath.Base(dir) == "obs" {
			// The recorder's own forwarding calls pass the caller's name on.
			continue
		}
		// bound maps an identifier (or field) name to the name pattern it
		// was assigned anywhere in the package.
		bound := map[string]string{}
		bind := func(lhs ast.Expr, rhs ast.Expr) {
			var id string
			switch l := lhs.(type) {
			case *ast.Ident:
				id = l.Name
			case *ast.SelectorExpr:
				id = l.Sel.Name
			}
			if p, ok := namePattern(rhs, nil); ok && id != "" {
				bound[id] = p
			}
		}
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.ValueSpec:
					for i, v := range n.Values {
						if i < len(n.Names) {
							bind(n.Names[i], v)
						}
					}
				case *ast.AssignStmt:
					for i, v := range n.Rhs {
						if i < len(n.Lhs) {
							bind(n.Lhs[i], v)
						}
					}
				case *ast.KeyValueExpr:
					bind(n.Key, n.Value)
				}
				return true
			})
		}
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				kind, ok := emitKinds[sel.Sel.Name]
				if !ok {
					return true
				}
				// A literal name is an emission whatever the receiver is
				// called; a variable one only on something that reads like
				// a recorder (strings.Count and Histogram.Observe share the
				// method names).
				if _, literal := namePattern(call.Args[0], nil); !literal && !recorderish(sel.X) {
					return true
				}
				pos := fset.Position(call.Pos())
				where := fmt.Sprintf("%s:%d", strings.TrimPrefix(pos.Filename, repoRoot+"/"), pos.Line)
				if p, ok := namePattern(call.Args[0], bound); ok {
					ems = append(ems, emission{p, kind, where})
				} else {
					unresolved = append(unresolved, where)
				}
				return true
			})
		}
	}
	sort.Slice(ems, func(i, j int) bool { return ems[i].name < ems[j].name })
	return ems, unresolved
}

// recorderish reports whether a method receiver reads like a recorder or a
// span (rec, r.rec, cfg.Rec, span, parent, ...).
func recorderish(x ast.Expr) bool {
	var id string
	switch x := x.(type) {
	case *ast.Ident:
		id = x.Name
	case *ast.SelectorExpr:
		id = x.Sel.Name
	}
	id = strings.ToLower(id)
	return strings.Contains(id, "rec") || strings.Contains(id, "span") || id == "parent"
}

// namePattern reads a name expression; bound (nil while collecting the
// bindings themselves) resolves identifiers.
func namePattern(e ast.Expr, bound map[string]string) (string, bool) {
	switch e := e.(type) {
	case *ast.BasicLit:
		if e.Kind == token.STRING {
			s, err := strconv.Unquote(e.Value)
			return s, err == nil
		}
	case *ast.BinaryExpr:
		if e.Op != token.ADD {
			return "", false
		}
		if l, ok := namePattern(e.X, nil); ok {
			return l + "*", true
		}
		if r, ok := namePattern(e.Y, nil); ok {
			return "*" + r, true
		}
	case *ast.Ident:
		p, ok := bound[e.Name]
		return p, ok
	case *ast.SelectorExpr:
		p, ok := bound[e.Sel.Name]
		return p, ok
	}
	return "", false
}

// catalogueRow is one row of DESIGN.md's "Telemetry catalogue" table.
type catalogueRow struct{ name, kind, unit, pkg, reader string }

var placeholder = regexp.MustCompile(`<[^>]+>`)

// readCatalogue parses the table under "### Telemetry catalogue": rows of
// | `name` | kind | unit | package | reader |, where <key> in a name stands
// for the variable part of a pattern.
func readCatalogue(t *testing.T) []catalogueRow {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join(repoRoot, "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(blob), "### Telemetry catalogue\n")
	if !ok {
		t.Fatal(`DESIGN.md has no "### Telemetry catalogue" section`)
	}
	if i := strings.Index(section, "\n### "); i >= 0 {
		section = section[:i]
	}
	var rows []catalogueRow
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(strings.Trim(line, "|"), "|")
		if !strings.HasPrefix(line, "| `") || len(cells) != 5 {
			continue
		}
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		name := placeholder.ReplaceAllString(strings.Trim(cells[0], "`"), "*")
		rows = append(rows, catalogueRow{name, cells[1], cells[2], cells[3], cells[4]})
	}
	return rows
}

var testName = regexp.MustCompile(`\bTest[A-Za-z0-9_]+`)

// TestTelemetryCatalogue is ROADMAP 2(d): every metric, span and event a
// non-test call site emits has a row in DESIGN.md's telemetry catalogue,
// every row is still emitted, and every row names a reader that exists — a
// Go test that mentions the name, an `obs` view whose source does, or the
// benchmark. Telemetry nobody reads is deleted, not documented.
func TestTelemetryCatalogue(t *testing.T) {
	ems, unresolved := collectEmissions(t)
	for _, where := range unresolved {
		t.Errorf("%s: telemetry name is not a literal, a literal+key, a tag+literal or bound to one in its package", where)
	}
	rows := readCatalogue(t)
	if len(rows) == 0 {
		t.Fatal("the telemetry catalogue has no rows")
	}
	catalogued := map[string]catalogueRow{}
	for _, r := range rows {
		if _, dup := catalogued[r.kind+" "+r.name]; dup {
			t.Errorf("catalogue lists %s %q twice", r.kind, r.name)
		}
		catalogued[r.kind+" "+r.name] = r
	}
	emittedBy := map[string]map[string]bool{} // kind+name → emitting package directories
	uncatalogued := 0
	for _, e := range ems {
		key := e.kind + " " + e.name
		if emittedBy[key] == nil {
			emittedBy[key] = map[string]bool{}
			t.Logf("%-9s %-36s %s", e.kind, e.name, e.pos) // under -v: what the collector sees
			if _, ok := catalogued[key]; !ok {
				uncatalogued++
				t.Errorf("%s: %s %q is emitted but has no catalogue row", e.pos, e.kind, e.name)
			}
		}
		emittedBy[key][strings.TrimPrefix(filepath.ToSlash(filepath.Dir(e.pos)), "internal/")] = true
	}
	if uncatalogued > 0 {
		t.Errorf("%d emitted names are uncatalogued: give each a row and a reader in DESIGN.md, or delete the call", uncatalogued)
	}

	sources := readerSources(t)
	for _, r := range rows {
		if emittedBy[r.kind+" "+r.name] == nil {
			t.Errorf("catalogue row %s %q is emitted by no non-test call site", r.kind, r.name)
		} else if !emittedBy[r.kind+" "+r.name][r.pkg] {
			t.Errorf("catalogue row %s %q: package cell %q is not where it is emitted", r.kind, r.name, r.pkg)
		}
		if err := checkReader(r, sources); err != nil {
			t.Errorf("catalogue row %s %q: %v", r.kind, r.name, err)
		}
	}
}

// readers is what a reader cell is checked against: test sources by the Test
// functions they declare, the names `obs top`'s and `obs prof`'s code uses,
// the benchmark's sources.
type readers struct {
	tests     map[string]string // Test function name → source of its file
	top       string            // codeNames of internal/obs/analyze/top.go
	prof      string            // codeNames of internal/obs/analyze/prof.go
	benchmark string            // benchmark/*.go
}

func readerSources(t *testing.T) readers {
	t.Helper()
	rs := readers{tests: map[string]string{}}
	funcDecl := regexp.MustCompile(`(?m)^func (Test[A-Za-z0-9_]+)\(`)
	consts := map[string]string{} // "pkg.Name" → value of a string constant under internal/
	views := map[string]*ast.File{}
	err := filepath.WalkDir(repoRoot, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		rel := filepath.ToSlash(strings.TrimPrefix(path, repoRoot+"/"))
		blob, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		src := string(blob)
		switch {
		case strings.HasPrefix(rel, "benchmark/"):
			rs.benchmark += src
		case strings.HasSuffix(rel, "_test.go"):
			for _, m := range funcDecl.FindAllStringSubmatch(src, -1) {
				rs.tests[m[1]] += src
			}
		case strings.HasPrefix(rel, "internal/"):
			f, err := parser.ParseFile(token.NewFileSet(), path, blob, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			pkg := filepath.Base(filepath.Dir(path))
			for _, decl := range f.Decls {
				if g, ok := decl.(*ast.GenDecl); ok && g.Tok == token.CONST {
					for _, spec := range g.Specs {
						v := spec.(*ast.ValueSpec)
						for i, name := range v.Names {
							if i < len(v.Values) {
								if s, ok := namePattern(v.Values[i], nil); ok {
									consts[pkg+"."+name.Name] = s
								}
							}
						}
					}
				}
			}
			views[rel] = f
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	rs.top = codeNames(views["internal/obs/analyze/top.go"], consts)
	rs.prof = codeNames(views["internal/obs/analyze/prof.go"], consts)
	return rs
}

// codeNames returns, one a line, the strings a file's code can name
// telemetry with: its string literals, and the values of the string
// constants it refers to — a bare identifier of its own package, pkg.Name of
// another. Comments do not count: a view that only talks about a name does
// not read it.
func codeNames(f *ast.File, consts map[string]string) string {
	if f == nil {
		return ""
	}
	var b strings.Builder
	ast.Inspect(f, func(n ast.Node) bool {
		var s string
		switch n := n.(type) {
		case *ast.BasicLit:
			s, _ = namePattern(n, nil)
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok {
				s = consts[x.Name+"."+n.Sel.Name]
			}
		case *ast.Ident:
			s = consts[f.Name.Name+"."+n.Name]
		}
		if s != "" {
			b.WriteString(s + "\n")
		}
		return true
	})
	return b.String()
}

// checkReader verifies a row's reader cell names at least one reader, and
// that each named reader exists and knows the row's name (its literal part,
// for a pattern): a Go test whose file mentions it, `obs top` or `obs prof`
// when the code of top.go or prof.go uses it (codeNames), the benchmark when
// benchmark/*.go mentions it. `obs trace` reads every span and event by name
// — its per-stage table and event counts are generic — so it is a reader of
// those kinds only.
func checkReader(r catalogueRow, rs readers) error {
	stem := strings.Trim(r.name, "*")
	found := false
	for _, name := range testName.FindAllString(r.reader, -1) {
		src, ok := rs.tests[name]
		if !ok {
			return fmt.Errorf("reader %s is not a test in this repository", name)
		}
		if !strings.Contains(src, stem) {
			return fmt.Errorf("reader %s's file never mentions %q", name, stem)
		}
		found = true
	}
	if strings.Contains(r.reader, "`obs top`") {
		if !strings.Contains(rs.top, stem) {
			return fmt.Errorf("reader is `obs top`, but analyze/top.go's code never uses %q", stem)
		}
		found = true
	}
	if strings.Contains(r.reader, "`obs prof`") {
		if !strings.Contains(rs.prof, stem) {
			return fmt.Errorf("reader is `obs prof`, but analyze/prof.go's code never uses %q", stem)
		}
		found = true
	}
	if strings.Contains(r.reader, "`obs trace`") {
		if r.kind != "span" && r.kind != "event" {
			return fmt.Errorf("`obs trace` reads spans and events, not a %s", r.kind)
		}
		found = true
	}
	if strings.Contains(r.reader, "benchmark") {
		if !strings.Contains(rs.benchmark, stem) {
			return fmt.Errorf("reader is the benchmark, but benchmark/*.go never mentions %q", stem)
		}
		found = true
	}
	if !found {
		return fmt.Errorf("reader cell %q names no test, obs view or benchmark", r.reader)
	}
	return nil
}
