// Command hqfigures regenerates the paper's figures as ASCII art:
//
//	1 — the broadcast tree T(6) of H_6 (Figure 1)
//	2 — the cleaning order of Algorithm CLEAN on H_6 (Figure 2)
//	3 — the classes C_i (Figure 3)
//	4 — the cleaning schedule of CLEAN WITH VISIBILITY on H_6 (Figure 4)
//
// Usage:
//
//	hqfigures            # all four
//	hqfigures -fig 2
//	hqfigures -fig 1 -d 4
package main

import (
	"flag"
	"fmt"
	"os"

	"hypersearch/internal/core"
	"hypersearch/internal/viz"
)

func main() {
	var (
		fig = flag.Int("fig", 0, "figure number 1-4 (0 = all)")
		dim = flag.Int("d", 6, "hypercube dimension")
	)
	flag.Parse()

	if *dim > viz.MaxFullBoardDim {
		fmt.Fprintf(os.Stderr,
			"hqfigures: figures render every node; d=%d exceeds the limit of %d — for big boards use hqsearch -stream-trace or the hqbench scale families instead\n",
			*dim, viz.MaxFullBoardDim)
		os.Exit(2)
	}

	show := func(n int) {
		switch n {
		case 1:
			fmt.Printf("Figure 1 — broadcast tree\n%s\n", viz.BroadcastTree(*dim))
		case 2:
			_, env, err := core.Run(core.Spec{Strategy: core.Clean, Dim: *dim, Record: true})
			fail(err)
			fmt.Printf("Figure 2 — cleaning order under CLEAN (H_%d)\n%s\n", *dim, viz.CleanOrder(env.H, env.B, false))
		case 3:
			d := *dim
			if flag.Lookup("d").Value.String() == "6" {
				d = 4 // the paper draws Figure 3 at H_4 scale
			}
			fmt.Printf("Figure 3 — classes C_i\n%s\n", viz.Classes(d))
		case 4:
			_, env, err := core.Run(core.Spec{Strategy: core.Visibility, Dim: *dim, Record: true})
			fail(err)
			fmt.Printf("Figure 4 — cleaning schedule under CLEAN WITH VISIBILITY (H_%d)\n%s\n", *dim, viz.CleanOrder(env.H, env.B, true))
		default:
			fmt.Fprintf(os.Stderr, "hqfigures: unknown figure %d\n", n)
			os.Exit(2)
		}
	}
	if *fig == 0 {
		for n := 1; n <= 4; n++ {
			show(n)
		}
		return
	}
	show(*fig)
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "hqfigures:", err)
		os.Exit(2)
	}
}
