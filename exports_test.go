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
	"strconv"
	"strings"
	"testing"
)

// TestEveryExportHasACaller keeps dead exports from coming back: every
// exported function or method declared in a non-test file under
// internal/ must be used somewhere in a non-test Go file of the repo
// (bench/, cmd/, examples/ and sqldriver/ count) other than its own
// declaration. A package-level function counts as used only through
// pkg.Name, where pkg is an import of its package, or unqualified inside
// its own package, so flag.Parse is no caller of a Parse elsewhere. A
// method is matched by name, as any identifier. Comments and string
// literals never count. The exceptions — reference implementations that
// tests compare against, and methods that satisfy a standard interface
// by name — are listed with a reason in testdata/test_only_exports.txt,
// and an entry that is no longer needed fails the test too.
func TestEveryExportHasACaller(t *testing.T) {
	allowed := readExportAllowlist(t, filepath.Join("testdata", "test_only_exports.txt"))
	const module = "factordb"

	// uses counts each identifier outside declarations under its name,
	// and each reference that can name a package-level function under
	// the function's import path + "." + name.
	uses := map[string]int{}
	type decl struct{ key, use, pos string } // use: the key in uses that counts its callers
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
		pkgPath := module
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
			pkgPath += "/" + dir
		}
		imports := map[string]string{} // name in this file → import path
		for _, spec := range f.Imports {
			ip, _ := strconv.Unquote(spec.Path.Value)
			name := ip[strings.LastIndex(ip, "/")+1:]
			if spec.Name != nil {
				name = spec.Name.Name
			}
			imports[name] = ip
		}
		declared := map[*ast.Ident]bool{}
		for _, dd := range f.Decls {
			fd, ok := dd.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fd.Name] = true
			if !fd.Name.IsExported() || !strings.HasPrefix(filepath.ToSlash(path), "internal/") {
				continue
			}
			d := decl{key: f.Name.Name + "." + fd.Name.Name, use: pkgPath + "." + fd.Name.Name}
			if fd.Recv != nil {
				d = decl{key: f.Name.Name + "." + recvTypeName(fd.Recv.List[0].Type) + "." + fd.Name.Name, use: fd.Name.Name}
			}
			d.pos = fset.Position(fd.Pos()).String()
			decls = append(decls, d)
		}
		selected := map[*ast.Ident]bool{} // the Name of every x.Name
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				selected[x.Sel] = true
				if pkg, ok := x.X.(*ast.Ident); ok && imports[pkg.Name] != "" {
					uses[imports[pkg.Name]+"."+x.Sel.Name]++
				}
			case *ast.Ident:
				if declared[x] {
					break
				}
				uses[x.Name]++
				if !selected[x] {
					uses[pkgPath+"."+x.Name]++
				}
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
		if uses[d.use] > 0 {
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
