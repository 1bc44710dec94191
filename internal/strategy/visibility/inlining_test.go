package visibility

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// intendedInlining lists, per package, the functions the compiler must
// be able to inline: the reads every visibility landing makes (its
// payload, its source and the board's counters), the DES queue's
// empty-slot push that every scheduling call makes, the agent stacks'
// push, pop and chain reads, the rarely true test every
// move makes (is the target contaminated), the H_d edge test, the
// two entries into the board's one move (Move and MoveRun, which
// inline into Env.ApplyMove and Env.ApplyRun, so a landing pays one
// call into the board) and the count increment of Place and Clone.
// Most sit just under the inlining budget, with their cold paths (a
// panic message, the overflow table, the counter update) kept out of
// line, so one added line can silently turn one back into a call.
var intendedInlining = map[string][]string{
	"hypersearch/internal/board": {"(*Board).AgentsOn", "(*Board).agentPos", "(*Board).Position", "(*Board).ContaminatedNeighbours", "(*Board).decontaminate",
		"(*Board).Move", "(*Board).MoveRun", "(*Board).addAgents"},
	"hypersearch/internal/des":       {"(*Simulator).Arg", "(*calendar).pushFirst"},
	"hypersearch/internal/hypercube": {"(*Hypercube).HasEdge"},
	"hypersearch/internal/heapqueue": {"AgentsRequired"},
	"hypersearch/internal/combin":    {"Pow2"},
	"hypersearch/internal/strategy":  {"(*Stacks).Push", "(*Stacks).Pop", "(*Stacks).Top", "(*Stacks).Next"},
}

// landReads are the calls in engine.arrive, which lands a flight, that
// must be inlined there: the payload and source reads, the board reads
// and the push onto the destination's stack.
var landReads = map[string]bool{"Arg": true, "Position": true, "AgentsOn": true, "ContaminatedNeighbours": true, "AgentsRequired": true, "Push": true}

var canInline = regexp.MustCompile(`: can inline (\S+)`)

// TestIntendedInlining builds the packages of the landing path with
// -gcflags=-m, in the manner of the Go toolchain's own
// TestIntendedInlining, and requires that each function in
// intendedInlining can be inlined and that every call to one of
// landReads in engine.arrive is inlined. The board must be imported by
// this package for the last to hold: methods of a package reached only
// through another (strategy.Env.B) were left as calls.
//
// The build uses the go command of the toolchain that built the test
// binary. The list and its inline costs were calibrated on go1.24.0;
// the inliner's budget and cost model change between releases, so
// after a toolchain change a failure here means the list needs
// re-checking against -gcflags=-m=2, not that the code regressed.
func TestIntendedInlining(t *testing.T) {
	if testing.Short() {
		t.Skip("builds seven packages with -gcflags=-m")
	}
	goTool := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := os.Stat(goTool); err != nil {
		t.Skipf("go command of this toolchain not found: %v", err)
	}
	pkgs := []string{"hypersearch/internal/strategy/visibility"}
	for pkg := range intendedInlining {
		pkgs = append(pkgs, pkg)
	}
	out, err := exec.Command(goTool, append([]string{"build", "-gcflags=-m"}, pkgs...)...).CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m: %v\n%s", err, out)
	}

	inlinable := map[string]map[string]bool{}
	var pkg string
	var lines []string
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if p, ok := strings.CutPrefix(line, "# "); ok {
			pkg = p
			continue
		}
		lines = append(lines, line)
		if m := canInline.FindStringSubmatch(line); m != nil {
			if inlinable[pkg] == nil {
				inlinable[pkg] = map[string]bool{}
			}
			inlinable[pkg][m[1]] = true
		}
	}
	for pkg, fns := range intendedInlining {
		for _, fn := range fns {
			if !inlinable[pkg][fn] {
				t.Errorf("%s.%s is no longer inlinable", pkg, fn)
			}
		}
	}

	calls, err := landCalls()
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != 8 {
		t.Fatalf("found %d calls in engine.arrive, want 8 (one Arg, one Position, two AgentsOn, two ContaminatedNeighbours, one AgentsRequired, one Push)", len(calls))
	}
	for _, c := range calls {
		at := fmt.Sprintf("inline.go:%d:%d: inlining call to ", c.line, c.col)
		found := false
		for _, line := range lines {
			if i := strings.Index(line, at); i >= 0 && strings.HasSuffix(line[i+len(at):], "."+c.name) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("engine.arrive's call to %s at inline.go:%d:%d is not inlined", c.name, c.line, c.col)
		}
	}
}

type landCall struct {
	name      string
	line, col int
}

// landCalls returns the position of every call to one of landReads in
// engine.arrive, where the compiler reports it: at the opening
// parenthesis.
func landCalls() ([]landCall, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "inline.go", nil, 0)
	if err != nil {
		return nil, err
	}
	var calls []landCall
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Recv == nil || fn.Name.Name != "arrive" {
			continue
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && landReads[sel.Sel.Name] {
				p := fset.Position(call.Lparen)
				calls = append(calls, landCall{sel.Sel.Name, p.Line, p.Column})
			}
			return true
		})
	}
	return calls, nil
}
