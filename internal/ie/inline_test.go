package ie

import (
	"bufio"
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// walkPathInlined lists the functions a walk-step calls per token whose
// inlining the step's cost rests on: theta.nodeScore read its code by
// value once, went from cost 67 to 101 — past the compiler's budget of
// 80 — and BenchmarkScoreDelta/local-delta went from 46 to 66 ns while
// every other test passed. A function leaves the list only with paired
// benchmark counts showing that its inlining does not matter.
var walkPathInlined = []string{
	"theta.nodeScore",
	"theta.emit",
	"(*Slots).At",
	"(*Relation).CodeAt",
	"(*LabeledDoc).Label",
	"(*docIndex).code",
	"(*docIndex).clique",
	"(*narrow).at",
	"(*Tagger).Accept",
}

// inlineBudget is the gc compiler's inlining budget.
const inlineBudget = 80

// TestWalkPathInlines asks the compiler which functions of internal/ie
// and internal/relstore it can inline and requires every one of
// walkPathInlined among them, logging each cost against the budget. It
// needs the go command of the toolchain that runs it and skips without
// one.
func TestWalkPathInlines(t *testing.T) {
	out := buildWalkPath(t, "-gcflags=-m=2")
	verdict := regexp.MustCompile(`: (can inline|cannot inline) (\S+?):? .*?cost (\d+)`)
	costs, refused := map[string]int{}, map[string]bool{}
	for _, m := range verdict.FindAllSubmatch(out, -1) {
		name := string(m[2])
		costs[name], _ = strconv.Atoi(string(m[3]))
		refused[name] = string(m[1]) == "cannot inline"
	}
	for _, name := range walkPathInlined {
		cost, ok := costs[name]
		switch {
		case !ok:
			t.Errorf("%s: the compiler reported no inlining decision", name)
		case refused[name]:
			t.Errorf("%s: cannot inline, cost %d exceeds the budget of %d", name, cost, inlineBudget)
		default:
			t.Logf("%-22s cost %3d of %d", name, cost, inlineBudget)
		}
	}
}

// buildWalkPath builds internal/ie and internal/relstore with the build
// flags and returns the compiler's report. It skips the test without the
// go command of the toolchain that runs it.
func buildWalkPath(t *testing.T, flags ...string) []byte {
	t.Helper()
	goBin := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := os.Stat(goBin); runtime.GOROOT() == "" || err != nil {
		t.Skipf("no go command under GOROOT %q", runtime.GOROOT())
	}
	args := append(append([]string{"build"}, flags...), "factordb/internal/ie", "factordb/internal/relstore")
	out, err := exec.Command(goBin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return out
}

// bceCounted is the functions whose bounds checks TestWalkPathBoundsChecks
// counts: the walk-path list, and the step's other per-step functions.
var bceCounted = append(walkPathInlined, "(*Model).ScoreDelta", "(*Tagger).draw", "(*Tagger).pick")

// TestWalkPathBoundsChecks asks the compiler where it keeps a bounds check
// in internal/ie and internal/relstore (-d=ssa/check_bce/debug=1), maps
// each reported line to the function declared around it, and requires
// each function of bceCounted to keep exactly the count committed in
// testdata/bce_counts.txt. A check in code inlined into a function is
// reported at the line of the call, so it counts in the caller, once per
// inlined call. A change that adds or removes one re-records the file and
// says so; so does a Go upgrade. The build is -trimpath, so a report names
// each file by its import path whatever directory the go command ran in.
func TestWalkPathBoundsChecks(t *testing.T) {
	out := buildWalkPath(t, "-trimpath", "-gcflags=-d=ssa/check_bce/debug=1")
	funcs := declaredFuncs(t, filepath.Join("..", ".."), "internal/ie", "internal/relstore")
	got := map[string]int{}
	report := regexp.MustCompile(`(?m)^factordb/(\S+\.go):(\d+):\d+: Found Is(?:Slice)?InBounds$`)
	for _, m := range report.FindAllSubmatch(out, -1) {
		line, _ := strconv.Atoi(string(m[2]))
		for _, f := range funcs[string(m[1])] {
			if f.from <= line && line <= f.to {
				got[f.name]++
			}
		}
	}
	want := bceBudget(t)
	for _, name := range bceCounted {
		t.Logf("%-22s %d bounds checks", name, got[name])
		if w, ok := want[name]; !ok {
			t.Errorf("%s: no count in testdata/bce_counts.txt", name)
		} else if got[name] != w {
			t.Errorf("%s: %d bounds checks, testdata/bce_counts.txt records %d", name, got[name], w)
		}
	}
}

// declaredFunc is the lines of one function declaration.
type declaredFunc struct {
	name     string // as the compiler names it: f, T.m or (*T).m
	from, to int
}

// declaredFuncs parses the non-test Go files of each package directory,
// given relative to the module root root, and returns their function
// declarations by file path relative to root.
func declaredFuncs(t *testing.T, root string, dirs ...string) map[string][]declaredFunc {
	t.Helper()
	fset := token.NewFileSet()
	funcs := map[string][]declaredFunc{}
	for _, dir := range dirs {
		paths, _ := filepath.Glob(filepath.Join(root, dir, "*.go"))
		for _, path := range paths {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			key := dir + "/" + filepath.Base(path)
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					funcs[key] = append(funcs[key], declaredFunc{funcName(fd), fset.Position(fd.Pos()).Line, fset.Position(fd.End()).Line})
				}
			}
		}
	}
	return funcs
}

// funcName names fd as the compiler's reports do.
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil {
		return fd.Name.Name
	}
	switch r := fd.Recv.List[0].Type.(type) {
	case *ast.StarExpr:
		return "(*" + r.X.(*ast.Ident).Name + ")." + fd.Name.Name
	case *ast.Ident:
		return r.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}

// bceBudget reads testdata/bce_counts.txt: a function name and its count
// per line, # comments.
func bceBudget(t *testing.T) map[string]int {
	t.Helper()
	data, err := os.ReadFile("testdata/bce_counts.txt")
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, n, ok := strings.Cut(line, " ")
		count, err := strconv.Atoi(strings.TrimSpace(n))
		if !ok || err != nil {
			t.Fatalf("testdata/bce_counts.txt: bad line %q", line)
		}
		counts[name] = count
	}
	return counts
}
