package core

import (
	"fmt"
	"slices"
	"testing"

	"hypersearch/internal/faults"
	"hypersearch/internal/metrics"
)

// matrixMaxDim bounds the engine matrix's dimensions.
const matrixMaxDim = 8

// matrixLinkPlan is the network rows' plan: link 0->1 exists from d=1
// on and carries the root's first frames on every protocol, so the
// drop and the duplicates fire at every dimension they run at.
var matrixLinkPlan = &faults.Plan{Name: "link-drop+dup", Seed: 9, Faults: []faults.Fault{
	{Kind: faults.LinkDrop, Target: faults.LinkTarget(0, 1), At: 1, Times: 1},
	{Kind: faults.LinkDup, Target: faults.LinkTarget(0, 1), At: 1, Until: 4},
}}

// matrixPlans are the plans a row runs: the fault-free run, then every
// golden DES plan and the link plan whose kinds the row injects. The
// synchronous variant's lockstep assertion panics when an injected move
// delay holds a hop back past its destination's round, which most of
// the golden plans' delays do, so rows that force unit latency run
// fault-free only.
func matrixPlans(r *row) []*faults.Plan {
	plans := []*faults.Plan{nil}
	if r.unit {
		return plans
	}
	candidates := []*faults.Plan{matrixLinkPlan}
	for _, gp := range goldenPlans {
		candidates = append(candidates, gp.plan)
	}
	for _, p := range candidates {
		if p == nil {
			continue
		}
		ok := true
		for _, f := range p.Faults {
			ok = ok && slices.Contains(r.faults, f.Kind)
		}
		if ok {
			plans = append(plans, p)
		}
	}
	return plans
}

func planName(p *faults.Plan) string {
	if p == nil {
		return "none"
	}
	return p.Name
}

// costs are the paper metrics every engine must agree on.
func costs(r metrics.Result) [4]int64 {
	return [4]int64{int64(r.TeamSize), r.AgentMoves, r.SyncMoves, r.TotalMoves}
}

// TestEngineMatrix runs every row of the table at every d <= 8, under
// unit latency and the adversary at 13, with two seeds, fault-free and
// under each plan the row injects. Every cell must keep the invariants
// (the naive baselines excepted), meet the row's closed forms, and
// agree with the DES's fault-free unit-latency run of the same
// strategy on team, agent, synchronizer and total moves.
func TestEngineMatrix(t *testing.T) {
	cells := 0
	for i := range table {
		r := &table[i]
		t.Run(r.strategy+"/"+r.engine, func(t *testing.T) {
			naive := r.strategy == NaiveDFS || r.strategy == NaiveConvoy
			for d := 0; d <= matrixMaxDim; d++ {
				ref, _, err := Run(Spec{Strategy: r.strategy, Dim: d})
				if err != nil {
					t.Fatalf("DES reference at d=%d: %v", d, err)
				}
				for _, plan := range matrixPlans(r) {
					if d == 0 && plan == matrixLinkPlan {
						continue // H_0 has no link
					}
					for _, lat := range []int64{0, 13} {
						for _, seed := range []int64{7, 42} {
							spec := Spec{Strategy: r.strategy, Dim: d, Engine: r.engine,
								AdversarialLatency: lat, Seed: seed, Faults: plan}
							name := fmt.Sprintf("d=%d plan=%s latency=%d seed=%d", d, planName(plan), lat, seed)
							res, _, err := Run(spec)
							cells++
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							if !naive && (!res.Ok() || res.Recontaminations != 0) {
								t.Errorf("%s: invariants violated: %s, %d recontaminations", name, res, res.Recontaminations)
							}
							if err := CheckClosedForms(spec, res); err != nil {
								t.Errorf("%s: %v", name, err)
							}
							if got, want := costs(res), costs(ref); got != want {
								t.Errorf("%s: {team agent sync total} = %v, DES reference %v", name, got, want)
							}
						}
					}
				}
			}
		})
	}
	t.Logf("%d cells", cells)
}
