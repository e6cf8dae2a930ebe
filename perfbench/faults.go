package main

import (
	"errors"
	"fmt"
	"time"

	"revive"
)

// faultApps and faultKinds make the faults pass: every damage kind of the
// split fault model on FFT and on Radix, the paper's largest log.
var (
	faultApps  = []string{"FFT", "Radix"}
	faultKinds = []string{"node-loss", "cpu-loss", "mem-partial", "transient"}
)

// faultCell is one Figure 12 protocol run and its host-time stages.
type faultCell struct {
	app, kind                 string
	rep                       revive.Report
	pre                       revive.Stats // counters at the moment of the fault
	prefault, recover, verify time.Duration
	total                     time.Duration
}

// runFaultCell runs app to checkpoint 2's commit plus 0.8 of an interval,
// injects kind on victim, recovers to epoch 1 and verifies memory against
// the epoch-1 snapshot, parity and the log. The recovery and each
// verification are one checked operation each.
func runFaultCell(r *report, o revive.Options, app revive.App, kind string, victim revive.NodeID) (faultCell, error) {
	c := faultCell{app: app.Label, kind: kind}
	start := time.Now()
	m := revive.New(revive.EvalConfig(o))
	m.Load(app)
	var commit2 revive.Time = -1
	m.OnCheckpoint = func(epoch uint64) {
		if epoch == 2 {
			commit2 = m.Engine.Now()
		}
	}
	m.Start()
	m.Engine.RunWhile(func() bool { return commit2 < 0 })
	if commit2 < 0 {
		return c, fmt.Errorf("%s: run ended before checkpoint 2 committed", app.Label)
	}
	m.Engine.RunUntil(commit2 + m.Cfg.Checkpoint.Interval*8/10)
	c.pre = *m.Stats
	c.prefault = time.Since(start)

	lost := revive.NodeID(-1)
	switch kind {
	case "node-loss":
		lost = victim
		m.InjectNodeLoss(victim)
	case "cpu-loss":
		m.InjectCPULoss(victim)
	case "mem-partial":
		// The low quarter of the victim's used frames, as in E19.
		m.InjectMemPartialLoss(victim, 0, max(1, m.AMap.FramesUsed(victim)/4))
	case "transient":
		m.InjectTransient()
	default:
		return c, fmt.Errorf("unknown fault kind %q", kind)
	}
	name := app.Label + " " + kind
	t := time.Now()
	rep, err := m.Recover(lost, 1)
	c.recover = time.Since(t)
	r.check(err == nil, "%s: recover: %v", name, err)
	if err != nil {
		for i := 0; i < 3; i++ {
			r.check(false, "%s: not verified, recovery failed", name)
		}
		c.total = time.Since(start)
		return c, nil
	}
	c.rep = rep

	t = time.Now()
	err = errors.New("no snapshot of epoch 1")
	if snap, ok := m.SnapshotAt(1); ok {
		err = m.VerifyAgainstSnapshot(snap)
	}
	r.check(err == nil, "%s: memory differs from epoch 1: %v", name, err)
	err = m.VerifyParity()
	r.check(err == nil, "%s: parity: %v", name, err)
	err = m.VerifyLog()
	r.check(err == nil, "%s: log: %v", name, err)
	c.verify = time.Since(t)
	c.total = time.Since(start)
	return c, nil
}

// faultsPass runs every cell once.
func faultsPass(r *report, o revive.Options, apps []revive.App, victim revive.NodeID) ([]faultCell, error) {
	var cells []faultCell
	for _, app := range apps {
		for _, kind := range faultKinds {
			c, err := runFaultCell(r, o, app, kind, victim)
			if err != nil {
				return nil, err
			}
			cells = append(cells, c)
		}
	}
	return cells, nil
}

func runFaults(e *env, r *report) error {
	o := quickOptions()
	o.Verify = true // keep per-checkpoint snapshots for the epoch-1 check
	victim := revive.NodeID(e.victim(revive.EvalConfig(o).Nodes))
	var apps []revive.App
	setup, err := timeSetup(25, func() error {
		var err error
		if apps, err = resolveApps(o, faultApps); err != nil {
			return err
		}
		// Assemble and load every cell's machine, caches empty.
		for _, a := range apps {
			for range faultKinds {
				revive.New(revive.EvalConfig(o)).Load(a)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	var cells [][]faultCell
	runPasses := func(budget time.Duration, atLeast int) ([]pass, error) {
		return timePasses(budget, atLeast, func() error {
			c, err := faultsPass(r, o, apps, victim)
			cells = append(cells, c)
			return err
		})
	}

	if !e.traced {
		passes, err := runPasses(e.budget, 2)
		if err != nil {
			return err
		}
		r.set("sim_overhead_pct", notModelled)
		var recovery []float64
		for _, c := range cells[0] {
			recovery = append(recovery, float64(c.rep.Phase2+c.rep.Phase3)/1000)
		}
		r.set("sim_recovery_us", mean(recovery))
		times := make([][]time.Duration, len(cells))
		for p, pass := range cells {
			for _, c := range pass {
				times[p] = append(times[p], c.total)
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

	var prefault, recoverMS, verifyMS []float64
	for _, pass := range cells[len(plain):] {
		for _, c := range pass {
			prefault = append(prefault, c.prefault.Seconds())
			recoverMS = append(recoverMS, ms(c.recover))
			verifyMS = append(verifyMS, ms(c.verify))
		}
	}
	r.set("machine.prefault_s", mean(prefault))
	r.set("machine.recover_ms", mean(recoverMS))
	r.set("machine.verify_ms", mean(verifyMS))

	var p2, p3, entries, pages []float64
	var counts simCounts
	var instr uint64
	var preHost time.Duration
	for _, c := range cells[0] {
		p2 = append(p2, float64(c.rep.Phase2)/1000)
		p3 = append(p3, float64(c.rep.Phase3)/1000)
		entries = append(entries, float64(c.rep.EntriesRestored))
		pages = append(pages, float64(c.rep.LogPagesRebuilt+c.rep.DataPagesRebuilt))
		counts.add(c.app, &c.pre)
		instr += c.pre.Instructions
		preHost += c.prefault
	}
	r.set("recovery.phase2_us", mean(p2))
	r.set("recovery.phase3_us", mean(p3))
	r.set("recovery.entries_restored", mean(entries))
	r.set("recovery.pages_rebuilt", mean(pages))
	r.set("proc.sim_mips", float64(instr)/preHost.Seconds()/1e6)
	counts.report(r)
	return probeCalls(e, r)
}
