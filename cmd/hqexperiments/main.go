// Command hqexperiments regenerates the paper's evaluation: every
// theorem-level cost bound and Section-5 observation as a
// measured-versus-claimed markdown report, plus the four figures.
//
// Usage:
//
//	hqexperiments                 # every experiment, default sweep
//	hqexperiments -exp T2 -maxd 14
//	hqexperiments -exp X3 -seeds 50
//	hqexperiments -figures
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"hypersearch/internal/experiments"
	"hypersearch/internal/sched"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment id ("+strings.Join(experiments.IDs(), ", ")+") or 'all'")
		maxD    = flag.Int("maxd", 10, "largest hypercube dimension in sweeps")
		seeds   = flag.Int("seeds", 10, "adversarial seeds for robustness experiments")
		figures = flag.Bool("figures", false, "render the four figures instead of tables")
		workers = flag.Int("workers", sched.DefaultWorkers(), "parallel workers for independent runs (1 = serial); output is identical for every value")
	)
	flag.Parse()

	if *figures {
		for _, f := range experiments.Figures() {
			fmt.Println(f)
		}
		return
	}

	var reports []experiments.Report
	if *exp == "all" {
		reports = experiments.All(*maxD, *seeds, *workers)
	} else {
		r, ok := experiments.Run(*exp, *maxD, *seeds, *workers)
		if !ok {
			fmt.Fprintf(os.Stderr, "hqexperiments: unknown experiment %q (want one of %s, or all)\n", *exp, strings.Join(experiments.IDs(), ", "))
			os.Exit(2)
		}
		reports = []experiments.Report{r}
	}
	for _, r := range reports {
		fmt.Println(r.Render())
	}
}
