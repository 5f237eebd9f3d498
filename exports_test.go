package factordb

import (
	"bufio"
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

// TestEveryExportHasACaller keeps dead exports from coming back: every
// exported function or method declared in a non-test file under
// internal/ must be named somewhere in a non-test Go file of the repo
// (bench/, cmd/, examples/ and sqldriver/ count) other than its own
// declaration. Names are matched as identifiers, so comments and string
// literals do not count as callers. The exceptions — reference
// implementations that tests compare against, and methods that satisfy a
// standard interface by name — are listed with a reason in
// testdata/test_only_exports.txt, and an entry that is no longer needed
// fails the test too.
func TestEveryExportHasACaller(t *testing.T) {
	allowed := readExportAllowlist(t, filepath.Join("testdata", "test_only_exports.txt"))

	uses := map[string]int{} // identifier → references outside declarations
	type decl struct{ key, name, pos string }
	var decls []decl
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
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
		names := map[*ast.Ident]bool{}
		for _, dd := range f.Decls {
			fd, ok := dd.(*ast.FuncDecl)
			if !ok {
				continue
			}
			names[fd.Name] = true
			if !fd.Name.IsExported() || !strings.HasPrefix(filepath.ToSlash(path), "internal/") {
				continue
			}
			key := f.Name.Name + "." + fd.Name.Name
			if fd.Recv != nil {
				key = f.Name.Name + "." + recvTypeName(fd.Recv.List[0].Type) + "." + fd.Name.Name
			}
			decls = append(decls, decl{key, fd.Name.Name, fset.Position(fd.Pos()).String()})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !names[id] {
				uses[id.Name]++
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var dead []string
	for _, d := range decls {
		if uses[d.name] > 0 {
			continue
		}
		if _, ok := allowed[d.key]; ok {
			delete(allowed, d.key)
			continue
		}
		dead = append(dead, d.key+" ("+d.pos+")")
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("exported %s has no caller outside tests: delete it, or list it with a reason in testdata/test_only_exports.txt", d)
	}
	stale := make([]string, 0, len(allowed))
	for k := range allowed {
		stale = append(stale, k)
	}
	sort.Strings(stale)
	for _, k := range stale {
		t.Errorf("testdata/test_only_exports.txt lists %s, which is gone or has a non-test caller: drop the entry", k)
	}
}

// recvTypeName is the type name of a method receiver: T, *T, T[P] or *T[P].
func recvTypeName(e ast.Expr) string {
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

// readExportAllowlist reads `pkg.Name reason` lines; blank lines and
// lines starting with # are skipped, and every entry needs a reason.
func readExportAllowlist(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		name, reason, _ := strings.Cut(text, " ")
		if strings.TrimSpace(reason) == "" {
			t.Errorf("%s:%d: %s has no reason", path, line, name)
		}
		if _, dup := out[name]; dup {
			t.Errorf("%s:%d: %s listed twice", path, line, name)
		}
		out[name] = reason
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
