// Virus containment: the scenario from the paper's introduction. A
// virus moves arbitrarily fast between hosts of a hypercube network,
// always fleeing the sweep; a team of software agents corners it.
//
// The example records a visibility-strategy run, then replays it move
// by move against a live intruder token, printing the shrinking
// contaminated region.
//
//	go run ./examples/viruscontainment
package main

import (
	"fmt"
	"log"

	"hypersearch/internal/board"
	"hypersearch/internal/core"
	"hypersearch/internal/intruder"
	"hypersearch/internal/viz"
)

func main() {
	const d = 5
	_, env, err := core.Run(core.Spec{Strategy: core.Visibility, Dim: d, Record: true})
	if err != nil {
		log.Fatal(err)
	}

	h := env.H
	fresh := board.New(h, 0)
	virus := intruder.New(h, fresh, 42)
	fmt.Printf("A virus lurks at host %s of a %d-host network.\n", h.String(virus.At()), h.Order())
	fmt.Printf("Deploying %d agents from host %s...\n\n", env.B.Agents(), h.String(0))

	events, lastShown := env.Log().Events(), -1
	err = env.Log().ReplayOn(fresh, func(i int) error {
		virus.React()
		if remaining := fresh.ContaminatedCount(); remaining != lastShown {
			lastShown = remaining
			if remaining%8 == 0 || remaining < 4 {
				fmt.Printf("t=%2d  %2d hosts still at risk; virus hides at %v\n",
					events[i].Time, remaining, hostName(h.Dim(), virus.At()))
			}
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println()
	if virus.Caught() {
		fmt.Printf("Virus captured after %d forced relocations.\n\n", virus.Moves())
	} else {
		log.Fatal("the virus escaped — this must never happen")
	}
	fmt.Println("Final network state ('.'=clean, G=agent guard):")
	fmt.Print(viz.States(h, fresh))
}

func hostName(d, at int) string {
	if at < 0 {
		return "nowhere (caught)"
	}
	return fmt.Sprintf("%0*b", d, at)
}
