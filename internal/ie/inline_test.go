package ie

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
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
	"(*Codes).At",
	"(*Relation).CodeAt",
	"(*LabeledDoc).Label",
	"(*docIndex).code",
	"(*docIndex).partners",
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
	goBin := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := os.Stat(goBin); runtime.GOROOT() == "" || err != nil {
		t.Skipf("no go command under GOROOT %q", runtime.GOROOT())
	}
	out, err := exec.Command(goBin, "build", "-gcflags=-m=2", "factordb/internal/ie", "factordb/internal/relstore").CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m=2: %v\n%s", err, out)
	}
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
