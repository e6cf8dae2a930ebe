package main

import (
	"encoding/json"
	"fmt"
	"time"

	"revive"
)

// errorfreeApps span the paper's behaviour range: the best case, a
// mid-range app, and both outliers of Figure 8.
var errorfreeApps = []string{"Water-Sp", "Barnes", "FFT", "Radix"}

// quickOptions is the Quick-scale regime every simulation of the benchmark
// runs in: the default strategy, one simulation at a time, the plain
// serial event engine.
func quickOptions() revive.Options {
	return revive.Options{Quick: true, Parallelism: 1}
}

func resolveApps(o revive.Options, names []string) ([]revive.App, error) {
	apps := make([]revive.App, 0, len(names))
	for _, name := range names {
		a, ok := revive.AppByName(name, o)
		if !ok {
			return nil, fmt.Errorf("application %s missing", name)
		}
		apps = append(apps, a)
	}
	return apps, nil
}

// efCell is one app x variant simulation of a pass, timed between the
// serial progress callbacks.
type efCell struct {
	app     string
	variant revive.Variant
	host    time.Duration
	stats   *revive.Stats
}

// errorfreePass runs the error-free matrix once, serially, and returns its
// cells and results.
func errorfreePass(o revive.Options, apps []revive.App) ([]efCell, []revive.AppResult) {
	var cells []efCell
	last := time.Now()
	results := revive.RunErrorFree(o, apps, func(app string, v revive.Variant, st *revive.Stats) {
		now := time.Now()
		cells = append(cells, efCell{app, v, now.Sub(last), st})
		last = now
	})
	return cells, results
}

// efChecker holds the first pass's simulated stats per cell: every later
// pass must reproduce them exactly. Each cell is one checked operation.
type efChecker map[string][]byte

func (c efChecker) check(r *report, cells []efCell) error {
	for _, cell := range cells {
		b, err := json.Marshal(cell.stats)
		if err != nil {
			return err
		}
		key := cell.app + "/" + string(cell.variant)
		ref, seen := c[key]
		if !seen {
			c[key] = b
			r.check(cell.stats.ExecTime > 0 && cell.stats.Instructions > 0,
				"%s: empty run", key)
			continue
		}
		r.check(string(ref) == string(b), "%s: simulated stats differ between passes", key)
	}
	return nil
}

func runErrorFree(e *env, r *report) error {
	o := quickOptions()
	var apps []revive.App
	setup, err := timeSetup(25, func() error {
		var err error
		if apps, err = resolveApps(o, errorfreeApps); err != nil {
			return err
		}
		// Assemble and load each app's ReVive and baseline machines: the
		// per-cell construction cost, caches empty.
		for _, a := range apps {
			revive.New(revive.EvalConfig(o)).Load(a)
			revive.New(revive.BaselineConfig(o)).Load(a)
		}
		return nil
	})
	if err != nil {
		return err
	}

	checker := efChecker{}
	var cells [][]efCell
	var first []revive.AppResult
	runPasses := func(budget time.Duration, atLeast int) ([]pass, error) {
		from := len(cells)
		passes, err := timePasses(budget, atLeast, func() error {
			c, res := errorfreePass(o, apps)
			cells = append(cells, c)
			if first == nil {
				first = res
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		for _, c := range cells[from:] {
			if err := checker.check(r, c); err != nil {
				return nil, err
			}
		}
		return passes, nil
	}

	if !e.traced {
		// Two passes at least, so that one repeats the other.
		passes, err := runPasses(e.budget, 2)
		if err != nil {
			return err
		}
		r.set("sim_overhead_pct", cpOverheadPct(first))
		r.set("sim_recovery_us", notModelled)
		times := make([][]time.Duration, len(cells))
		for p, pass := range cells {
			for _, c := range pass {
				times[p] = append(times[p], c.host)
			}
		}
		setCellMetrics(r, setup, passes, times)
		return nil
	}

	plain, err := runPasses(e.budget/2, 1)
	if err != nil {
		return err
	}
	tr, err := startTrace(e.profilePath())
	if err != nil {
		return err
	}
	traced, err := runPasses(e.budget/2, 1)
	if err != nil {
		tr.close()
		return err
	}
	if err := tr.stop(r); err != nil {
		return err
	}
	r.set("trace_overhead_pct", 100*(medianWall(traced)/medianWall(plain)-1))

	host := map[string]time.Duration{}
	for _, pass := range cells[len(plain):] {
		for _, c := range pass {
			host[string(c.variant)] += c.host
			host[c.app] += c.host
		}
	}
	for k, d := range host {
		r.set("errorfree.host_s."+k, d.Seconds()/float64(len(traced)))
	}
	var instr uint64
	var counts simCounts
	for _, c := range cells[0] {
		instr += c.stats.Instructions
		if c.variant == revive.VCp {
			counts.add(c.app, c.stats)
		}
	}
	r.set("proc.sim_mips", float64(instr)/medianWall(plain)/1e6)
	counts.report(r)
	return probeCalls(e, r)
}

// cpOverheadPct is Figure 8's statistic: the mean Cp10ms overhead over the
// baseline across the apps, in percent.
func cpOverheadPct(results []revive.AppResult) float64 {
	var sum float64
	for _, res := range results {
		sum += res.Overhead(revive.VCp)
	}
	return 100 * sum / float64(len(results))
}
