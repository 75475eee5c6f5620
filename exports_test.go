package clusterid

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportScanRoot holds the packages whose exported API must be
// production API: every package under it, found by walking it when the
// test runs, so a new package cannot be left out.
const exportScanRoot = "internal"

// exportAllowlist is the committed list of test-only exports, one
// "pkg.Name", "pkg.Type.Method" or "pkg.Config.Field" per line, a tab,
// then the paper claim, reference or harness its tests rely on.
const exportAllowlist = "testdata/test_only_exports.txt"

// TestNoTestOnlyExports lists every exported func, method, type,
// package-level var and const declared in a non-test file under
// exportScanRoot whose name appears in no non-test .go file of the
// module other than as a declared name, and every exported field of an
// exported *Config struct there that no non-test file outside its
// declaring package sets — as a composite-literal key or as an
// assignment target — and requires that list to equal the allowlist.
// A new test-only export or knob fails it, and so does an allowlist
// entry that was deleted, is now used in production, or that no test
// uses either.
//
// The scan is by name, not by type: any identifier or selector with the
// same name counts as a use, and any key or assignment target with a
// field's name as setting it, so a method reached only through an
// interface is not flagged, and an unused export sharing a name with a
// used one is missed rather than a used one flagged.
func TestNoTestOnlyExports(t *testing.T) {
	flagged, err := testOnlyExports(".")
	if err != nil {
		t.Fatal(err)
	}
	allowed, err := readExportAllowlist(exportAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range sortedKeys(flagged) {
		e := flagged[key]
		switch _, ok := allowed[key]; {
		case !e.tested:
			t.Errorf("%s: %s is exported but nothing uses it (or, for a config field, sets it): delete it", e.pos, key)
		case !ok:
			t.Errorf("%s: %s is exported but only tests use it (or, for a config field, set it): unexport or delete it, or add it to %s with the claim its test pins",
				e.pos, key, exportAllowlist)
		}
	}
	for _, key := range sortedKeys(allowed) {
		if _, ok := flagged[key]; !ok {
			t.Errorf("%s lists %s, which is deleted or now used outside tests: remove the entry", exportAllowlist, key)
		}
	}
}

// TestExportScanFlagsTestOnlyNames runs the scan over a fixture module
// holding one export of each kind: it must flag the dead export, the
// one only a test uses and the config field set only inside its own
// package, and must leave the export another package uses and the
// field cmd/ sets.
func TestExportScanFlagsTestOnlyNames(t *testing.T) {
	got, err := testOnlyExports("testdata/exportscan")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{ // key → whether a test uses it
		"alpha.Dead":         false,
		"alpha.TestOnly":     true,
		"alpha.Config.Local": true,
	}
	for key, e := range got {
		if tested, ok := want[key]; !ok {
			t.Errorf("flagged %s (%s), which production code uses", key, e.pos)
		} else if e.tested != tested {
			t.Errorf("%s: tested = %v, want %v", key, e.tested, tested)
		}
	}
	for key := range want {
		if _, ok := got[key]; !ok {
			t.Errorf("%s not flagged", key)
		}
	}
}

// httpClientAPI are the net/http names that send a request or build
// something that does.
var httpClientAPI = map[string]bool{
	"Client": true, "DefaultClient": true, "Get": true, "Head": true, "Post": true, "PostForm": true,
}

// TestDaemonSendsNoHTTP fails when a non-test file under internal/
// names an httpClientAPI identifier: the daemon serves its admin plane
// and calls no one else's. Fleet fan-out (`ddpmd fleet`) walks the
// roster from the CLI, so no gossiped address can steer a daemon's
// outbound request.
func TestDaemonSendsNoHTTP(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if imp.Path.Value != `"net/http"` {
				continue
			}
			name := "http"
			if imp.Name != nil {
				name = imp.Name.Name
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok && httpClientAPI[sel.Sel.Name] {
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == name {
						t.Errorf("%s: %s.%s: the daemon sends no HTTP request", fset.Position(sel.Pos()), name, sel.Sel.Name)
					}
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// export is one flagged declaration: its position, and whether any
// test file uses it (for a config field: sets it).
type export struct {
	pos    string
	tested bool
}

// testOnlyExports maps "pkg.Name" / "pkg.Type.Method" /
// "pkg.Config.Field" to each exported declaration under root's
// exportScanRoot whose name no non-test file of the module uses (for a
// config field: that no non-test file outside its package sets).
func testOnlyExports(root string) (map[string]export, error) {
	fset := token.NewFileSet()
	scanRoot := filepath.Join(root, exportScanRoot) + string(filepath.Separator)
	// Index 0 counts non-test files, index 1 test files: used holds the
	// identifiers they name, setIn maps a field name to the directories
	// whose files set it.
	var used [2]map[string]bool
	var setIn [2]map[string]map[string]bool
	for i := range used {
		used[i], setIn[i] = map[string]bool{}, map[string]map[string]bool{}
	}
	type decl struct{ key, name, pos, dir string } // dir: set for a config field
	var decls []decl
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		side := 0
		if strings.HasSuffix(name, "_test.go") {
			side = 1
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		// declared holds the file's top-level declared names, which are
		// not uses; exported ones in a scanned non-test file are
		// candidates.
		declared := map[*ast.Ident]bool{}
		pkg := f.Name.Name
		scan := side == 0 && strings.HasPrefix(path, scanRoot)
		add := func(id *ast.Ident, key string) {
			declared[id] = true
			if scan && id.IsExported() {
				decls = append(decls, decl{key: key, name: id.Name, pos: fset.Position(id.Pos()).String()})
			}
		}
		for _, dd := range f.Decls {
			switch dd := dd.(type) {
			case *ast.FuncDecl:
				key := pkg + "." + dd.Name.Name
				if dd.Recv != nil {
					key = pkg + "." + receiverName(dd.Recv.List[0].Type) + "." + dd.Name.Name
				}
				add(dd.Name, key)
			case *ast.GenDecl:
				for _, s := range dd.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(s.Name, pkg+"."+s.Name.Name)
						st, ok := s.Type.(*ast.StructType)
						if !scan || !ok || !s.Name.IsExported() || !strings.HasSuffix(s.Name.Name, "Config") {
							continue
						}
						for _, fld := range st.Fields.List {
							for _, id := range fld.Names {
								if id.IsExported() {
									key := pkg + "." + s.Name.Name + "." + id.Name
									decls = append(decls, decl{key, id.Name, fset.Position(id.Pos()).String(), filepath.Dir(path)})
								}
							}
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							add(n, pkg+"."+n.Name)
						}
					}
				}
			}
		}
		set := func(e ast.Expr) {
			name := ""
			switch e := e.(type) {
			case *ast.Ident:
				name = e.Name
			case *ast.SelectorExpr:
				name = e.Sel.Name
			}
			if setIn[side][name] == nil {
				setIn[side][name] = map[string]bool{}
			}
			setIn[side][name][filepath.Dir(path)] = true
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if !declared[n] {
					used[side][n.Name] = true
				}
			case *ast.CompositeLit:
				for _, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						set(kv.Key)
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						set(sel)
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	flagged := map[string]export{}
	for _, d := range decls {
		if d.dir == "" && !used[0][d.name] {
			flagged[d.key] = export{d.pos, used[1][d.name]}
		}
		if d.dir != "" && !setOutside(setIn[0][d.name], d.dir) {
			flagged[d.key] = export{d.pos, len(setIn[1][d.name]) > 0}
		}
	}
	return flagged, nil
}

// setOutside reports whether dirs holds a directory other than dir.
func setOutside(dirs map[string]bool, dir string) bool {
	for d := range dirs {
		if d != dir {
			return true
		}
	}
	return false
}

// receiverName strips pointers and type parameters off a receiver type.
func receiverName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}

// readExportAllowlist parses the allowlist: blank lines and lines
// starting with # are skipped; every other line is a key, a tab and a
// non-empty reason.
func readExportAllowlist(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		key, reason, ok := strings.Cut(text, "\t")
		if !ok || strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: want \"key<TAB>reason\"", path, line)
		}
		if _, dup := out[key]; dup {
			return nil, fmt.Errorf("%s:%d: duplicate entry %s", path, line, key)
		}
		out[key] = strings.TrimSpace(reason)
	}
	return out, sc.Err()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
