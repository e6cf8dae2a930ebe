// Command revive-bench regenerates the tables and figures of the ReVive
// paper's evaluation (section 6). Each experiment prints the measured
// series next to the paper's reference numbers; EXPERIMENTS.md records a
// full run.
//
// Usage:
//
//	revive-bench -all                # everything (several minutes)
//	revive-bench -fig 8              # one figure (6..12)
//	revive-bench -table 2            # one table (2 or 4)
//	revive-bench -storage            # section 6.2 accounting
//	revive-bench -availability       # section 3.3.2 table
//	revive-bench -split-domain       # E19 split-fault-domain comparison
//	revive-bench -strategy-matrix    # E23 recovery-strategy ablation
//	revive-bench -quick -all         # reduced budgets, fast smoke run
//	revive-bench -apps FFT,Radix     # restrict the application set
//	revive-bench -all -j 8           # eight simulations at a time
//	revive-bench -all -cpuprofile cpu.pb.gz   # profile a full run
//
// Every flag selects entries of the root package's experiment registry
// (revive.Experiments) by name: -fig N is "figureN", -table N is
// "tableN", and the other flags are named after their entry. Reports come
// out in registry order whatever the flag order. An unknown figure or
// table exits 2.
//
// The experiment sweeps are embarrassingly parallel (one machine instance
// per app x variant cell); -j sets how many run at once (default: all
// CPUs). Reports and progress lines are byte-identical at every -j —
// see internal/sweep for the determinism contract.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"revive"
	"revive/internal/perf"
)

func main() {
	var (
		all          = flag.Bool("all", false, "run every experiment")
		fig          = flag.Int("fig", 0, "regenerate one figure (6, 7, 8, 9, 10, 11, 12)")
		table        = flag.Int("table", 0, "regenerate one table (2 or 4)")
		storage      = flag.Bool("storage", false, "section 6.2 storage accounting")
		availability = flag.Bool("availability", false, "section 3.3.2 availability")
		splitDomain  = flag.Bool("split-domain", false, "E19 split-fault-domain study (node-loss vs cpu-loss vs mem-partial)")
		stratMatrix  = flag.Bool("strategy-matrix", false, "E23 recovery-strategy ablation across every registered backend")
		strategy     = flag.String("strategy", "", "recovery-strategy backend for the other experiments: "+strings.Join(revive.StrategyNames(), ", ")+" (default "+revive.DefaultStrategy+")")
		quick        = flag.Bool("quick", false, "reduced instruction budgets")
		scale        = flag.Int("scale", 100, "divide paper instruction counts by this")
		appsFlag     = flag.String("apps", "", "comma-separated application subset")
		jobs         = flag.Int("j", 0, "simulations to run in parallel (0 = all CPUs, 1 = serial)")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()

	stopProfiles, err := perf.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	// fail stops the profiles first: os.Exit skips deferred calls.
	fail := func(msg any) {
		fmt.Fprintln(os.Stderr, msg)
		stopProfiles()
		os.Exit(2)
	}

	o := revive.Options{Scale: *scale, Quick: *quick, Parallelism: *jobs}
	if err := revive.ValidateStrategy(*strategy); err != nil {
		fail(err)
	}
	o.Strategy = *strategy
	apps := revive.Apps(o)
	if *appsFlag != "" {
		apps = nil
		for _, name := range strings.Split(*appsFlag, ",") {
			a, ok := revive.AppByName(strings.TrimSpace(name), o)
			if !ok {
				fail(fmt.Sprintf("unknown application %q", name))
			}
			apps = append(apps, a)
		}
	}

	var names []string
	for _, e := range revive.Experiments {
		if *all && e.All {
			names = append(names, e.Name)
		}
	}
	if *fig != 0 {
		names = append(names, fmt.Sprintf("figure%d", *fig))
	}
	if *table != 0 {
		names = append(names, fmt.Sprintf("table%d", *table))
	}
	for _, f := range []struct {
		on   bool
		name string
	}{{*storage, "storage"}, {*availability, "availability"}, {*splitDomain, "split-domain"}, {*stratMatrix, "strategy-matrix"}} {
		if f.on {
			names = append(names, f.name)
		}
	}
	if len(names) == 0 {
		flag.Usage()
		stopProfiles()
		os.Exit(2)
	}

	start := time.Now()
	s := &revive.Session{Options: o, Apps: apps, Progress: os.Stderr}
	if err := revive.RunExperiments(os.Stdout, s, names); err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "revive-bench: %s in %v\n", strings.Join(names, ", "), time.Since(start))
	stopProfiles()
}
