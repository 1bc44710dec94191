package core

import (
	"testing"

	"hypersearch/internal/combin"
)

// TestScaleVisibility drives the visibility strategy through kilonode
// boards up to d=16 on the discrete-event engine, checking the exact
// closed forms hold at scale. The inline
// event-driven engine carries these dimensions; the d=20 megannode
// point lives in the hqbench scale families. Skipped under -short.
func TestScaleVisibility(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test")
	}
	for _, d := range []int{12, 14, 16} {
		res, _, err := Run(Spec{Strategy: Visibility, Dim: d})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Ok() {
			t.Fatalf("d=%d: %s", d, res.String())
		}
		if int64(res.TeamSize) != combin.VisibilityAgents(d) ||
			res.TotalMoves != combin.VisibilityMoves(d) ||
			res.Makespan != int64(d) {
			t.Errorf("d=%d: %s", d, res.String())
		}
	}
}

// TestScaleClean drives the coordinated strategy to n = 4096.
func TestScaleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test")
	}
	const d = 12
	res, _, err := Run(Spec{Strategy: Clean, Dim: d})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ok() {
		t.Fatalf("%s", res.String())
	}
	if int64(res.TeamSize) != combin.CleanTeamSize(d) {
		t.Errorf("team %d", res.TeamSize)
	}
	if res.AgentMoves != combin.CleanAgentMoves(d)-int64(d) {
		t.Errorf("agent moves %d", res.AgentMoves)
	}
	if res.Recontaminations != 0 {
		t.Errorf("recontaminations %d", res.Recontaminations)
	}
}

// TestCleanClosedFormTable sweeps Algorithm CLEAN across dimensions
// and asserts the run reproduces the paper's closed forms exactly:
// TeamSize = CleanTeamSize(d) (Theorem 2) and AgentMoves =
// CleanAgentMoves(d) - d (Theorem 3; the DES run saves one move per
// root child because phase 0 places agents instead of escorting them
// up from a remote pool). Dimensions 14+ are skipped under -short.
func TestCleanClosedFormTable(t *testing.T) {
	dims := []int{2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 14, 16}
	if !testing.Short() {
		dims = append(dims, 18)
	}
	for _, d := range dims {
		if testing.Short() && d > 12 {
			break
		}
		res, _, err := Run(Spec{Strategy: Clean, Dim: d})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Ok() {
			t.Fatalf("d=%d: %s", d, res.String())
		}
		if int64(res.TeamSize) != combin.CleanTeamSize(d) {
			t.Errorf("d=%d: team %d, want %d", d, res.TeamSize, combin.CleanTeamSize(d))
		}
		if want := combin.CleanAgentMoves(d) - int64(d); res.AgentMoves != want {
			t.Errorf("d=%d: agent moves %d, want %d", d, res.AgentMoves, want)
		}
		if res.Recontaminations != 0 {
			t.Errorf("d=%d: recontaminations %d", d, res.Recontaminations)
		}
	}
}

// TestScaleGoroutines runs a thousand-goroutine concurrent execution.
func TestScaleGoroutines(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test")
	}
	res, _, err := Run(Spec{Strategy: Visibility, Dim: 11, Engine: EngineGoroutines, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ok() || res.TotalMoves != combin.VisibilityMoves(11) {
		t.Errorf("%s", res.String())
	}
}

// TestScaleNetwork runs the message-passing engine with 1024 host
// goroutines plus mailbox pumps.
func TestScaleNetwork(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test")
	}
	res, _, err := Run(Spec{Strategy: Visibility, Dim: 10, Engine: EngineNetwork, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ok() || res.TotalMoves != combin.VisibilityMoves(10) {
		t.Errorf("%s", res.String())
	}
	resc, _, err := Run(Spec{Strategy: Clean, Dim: 8, Engine: EngineNetwork, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !resc.Ok() {
		t.Errorf("%s", resc.String())
	}
}
