package machine

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"revive/internal/arch"
	"revive/internal/cache"
	"revive/internal/coherence"
	"revive/internal/sim"
	"revive/internal/workload"
)

// testProfile is a small, fast workload with enough misses and writes to
// exercise logging, parity and checkpoints.
func testProfile(instr uint64) workload.Profile {
	return workload.Profile{
		Label: "test", InstrPerProc: instr, MemOpsPer1000: 300,
		HotLines: 300, HotWriteFrac: 0.4,
		ColdFrac: 0.01, ColdLines: 8192, ColdWriteFrac: 0.5,
		SharedFrac: 0.02, SharedLines: 1024, SharedWriteFrac: 0.2,
	}
}

// smallConfig is a 4-node machine with a short checkpoint interval so tests
// see several checkpoints quickly.
func smallConfig(revive bool) Config {
	var cfg Config
	if revive {
		cfg = Default(100)
	} else {
		cfg = Baseline(100)
	}
	cfg.Nodes = 4
	cfg.GroupSize = 2
	if revive {
		cfg.Checkpoint.Interval = 150 * sim.Microsecond
		cfg.Checkpoint.InterruptCost = 500
		cfg.Checkpoint.BarrierCost = 1000
	}
	return cfg
}

func TestBaselineRunsToCompletion(t *testing.T) {
	m := New(smallConfig(false))
	m.Load(testProfile(20000))
	st := m.Run()
	if st.Instructions < 4*20000 {
		t.Fatalf("instructions = %d, want >= %d", st.Instructions, 4*20000)
	}
	if st.ExecTime <= 0 {
		t.Fatal("no execution time recorded")
	}
	if st.L2Misses == 0 {
		t.Fatal("workload produced no misses")
	}
}

func TestReviveRunsWithCheckpoints(t *testing.T) {
	m := New(smallConfig(true))
	m.Load(testProfile(60000))
	st := m.Run()
	if st.Checkpoints == 0 {
		t.Fatal("no checkpoints committed")
	}
	if st.MemAccesses[4] == 0 { // ClassParity
		t.Fatal("no parity traffic")
	}
	if st.MemAccesses[3] == 0 { // ClassLog
		t.Fatal("no log traffic")
	}
	if st.LogBytesPeak == 0 {
		t.Fatal("log peak not recorded")
	}
}

func TestParityInvariantAfterRun(t *testing.T) {
	m := New(smallConfig(true))
	m.Load(testProfile(40000))
	m.Run()
	if err := m.VerifyParity(); err != nil {
		t.Fatal(err)
	}
}

func TestParityInvariantWithMirroring(t *testing.T) {
	cfg := smallConfig(true)
	cfg.GroupSize = 2
	m := New(cfg)
	m.Load(testProfile(30000))
	m.Run()
	if err := m.VerifyParity(); err != nil {
		t.Fatal(err)
	}
}

func TestParityInvariant16Nodes7Plus1(t *testing.T) {
	if testing.Short() {
		t.Skip("16-node run in -short mode")
	}
	cfg := Default(100)
	cfg.Checkpoint.Interval = 30 * sim.Microsecond
	cfg.Checkpoint.InterruptCost = 500
	cfg.Checkpoint.BarrierCost = 1000
	m := New(cfg)
	m.Load(testProfile(30000))
	m.Run()
	if err := m.VerifyParity(); err != nil {
		t.Fatal(err)
	}
	if m.Stats.Checkpoints == 0 {
		t.Fatal("no checkpoints committed")
	}
}

func TestReviveOverheadIsPositiveButBounded(t *testing.T) {
	base := New(smallConfig(false))
	base.Load(testProfile(40000))
	baseTime := base.Run().ExecTime

	rev := New(smallConfig(true))
	rev.Load(testProfile(40000))
	revTime := rev.Run().ExecTime

	overhead := float64(revTime-baseTime) / float64(baseTime)
	if overhead < 0 {
		t.Fatalf("ReVive faster than baseline (%.2f%%)", 100*overhead)
	}
	if overhead > 0.6 {
		t.Fatalf("ReVive overhead %.2f%% is implausibly high", 100*overhead)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (sim.Time, uint64) {
		m := New(smallConfig(true))
		m.Load(testProfile(30000))
		st := m.Run()
		return st.ExecTime, st.TotalNetBytes()
	}
	t1, b1 := run()
	t2, b2 := run()
	if t1 != t2 || b1 != b2 {
		t.Fatalf("runs differ: (%d,%d) vs (%d,%d)", t1, b1, t2, b2)
	}
}

func TestCheckpointsFlushAllDirtyLines(t *testing.T) {
	m := New(smallConfig(true))
	m.Load(testProfile(30000))
	m.Run()
	// After the final drain there may be dirty lines (work since the last
	// checkpoint), but at each commit the caches were clean; verify via a
	// forced final checkpoint.
	done := false
	m.Ckpt.Run(func() { done = true })
	m.Engine.Run()
	if !done {
		t.Fatal("final checkpoint did not complete")
	}
	for n, cc := range m.Caches {
		if d := cc.L1().DirtyCount() + cc.L2().DirtyCount(); d != 0 {
			t.Fatalf("node %d has %d dirty lines after checkpoint", n, d)
		}
	}
	if err := m.VerifyParity(); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotsRetainTwoCheckpoints(t *testing.T) {
	cfg := smallConfig(true)
	cfg.Verify = true
	m := New(cfg)
	m.Load(testProfile(60000))
	m.Run()
	epoch := m.Ckpt.Epoch()
	if epoch < 3 {
		t.Skipf("only %d checkpoints; need 3+", epoch)
	}
	if _, ok := m.SnapshotAt(epoch); !ok {
		t.Fatal("latest snapshot missing")
	}
	if _, ok := m.SnapshotAt(epoch - 1); !ok {
		t.Fatal("second-most-recent snapshot missing")
	}
	if _, ok := m.SnapshotAt(epoch - 2); ok {
		t.Fatal("stale snapshot not pruned")
	}
}

func TestMirrorFasterThanParity(t *testing.T) {
	// Section 6.1: mirroring has lower error-free overhead than 7+1
	// parity (fewer memory accesses per update).
	if testing.Short() {
		t.Skip("two 16-node runs in -short mode")
	}
	parity := Default(100)
	parity.Checkpoint.Interval = 0
	mp := New(parity)
	mp.Load(testProfile(15000))
	tp := mp.Run().ExecTime

	mirror := Default(100)
	mirror.Checkpoint.Interval = 0
	mirror.GroupSize = 2
	mm := New(mirror)
	mm.Load(testProfile(15000))
	tm := mm.Run().ExecTime

	if tm > tp {
		t.Fatalf("mirroring (%d) slower than parity (%d)", tm, tp)
	}
}

func TestUtilizationReport(t *testing.T) {
	m := New(smallConfig(true))
	m.Load(testProfile(30000))
	m.Run()
	utils := m.Utilization()
	if len(utils) != 4 {
		t.Fatalf("nodes = %d, want 4", len(utils))
	}
	var memAcc uint64
	for _, u := range utils {
		memAcc += u.MemAccesses
		if u.MemPortBusy < 0 || u.BusBusy < 0 {
			t.Fatal("negative busy time")
		}
	}
	if memAcc == 0 {
		t.Fatal("no memory accesses recorded")
	}
	var buf bytes.Buffer
	m.WriteUtilization(&buf)
	if !strings.Contains(buf.String(), "mem-util") {
		t.Fatal("report malformed")
	}
	// Cross-check: per-node access sum matches the per-class totals.
	if memAcc != m.Stats.TotalMemAccesses() {
		t.Fatalf("per-node sum %d != per-class sum %d", memAcc, m.Stats.TotalMemAccesses())
	}
}

// After a run each node reports no more dirty lines than its L2 holds:
// inclusion puts every dirty line in L2, and a line Modified at both
// levels counts once. The baseline machine takes no checkpoints, so dirty
// lines accumulate; with a 512-line L2 the two levels' dirty counts add up
// to more lines than L2 can hold.
func TestUtilizationDirtyLinesWithinL2(t *testing.T) {
	cfg := smallConfig(false)
	cfg.L2.SizeBytes = 32 * 1024
	capacity := cfg.L2.SizeBytes / arch.LineBytes
	m := New(cfg)
	m.Load(testProfile(30000))
	m.Run()
	overlap := false
	for n, u := range m.Utilization() {
		l1, l2 := m.Caches[n].L1(), m.Caches[n].L2()
		if u.DirtyLines > capacity || u.DirtyLines > l2.ValidLines() {
			t.Fatalf("node %d: %d dirty lines, but L2 holds %d of %d lines",
				n, u.DirtyLines, l2.ValidLines(), capacity)
		}
		if u.DirtyLines < l2.DirtyCount() || u.DirtyLines > l2.DirtyCount()+l1.DirtyCount() {
			t.Fatalf("node %d: %d dirty lines outside [%d, %d]",
				n, u.DirtyLines, l2.DirtyCount(), l2.DirtyCount()+l1.DirtyCount())
		}
		overlap = overlap || l1.DirtyCount()+l2.DirtyCount() > capacity
	}
	if !overlap {
		t.Fatal("no node's level counts sum past L2 capacity; the check has no teeth")
	}
}

func TestCoherenceInvariantsAfterRun(t *testing.T) {
	m := New(smallConfig(true))
	m.Load(testProfile(60000))
	m.Run()
	if err := m.VerifyCoherence(); err != nil {
		t.Fatal(err)
	}
}

func TestCoherenceInvariants16Nodes(t *testing.T) {
	if testing.Short() {
		t.Skip("16-node run")
	}
	cfg := Default(100)
	cfg.Checkpoint.Interval = 40 * sim.Microsecond
	cfg.Checkpoint.InterruptCost = 500
	cfg.Checkpoint.BarrierCost = 1000
	m := New(cfg)
	m.Load(testProfile(60000))
	m.Run()
	if err := m.VerifyCoherence(); err != nil {
		t.Fatal(err)
	}
}

func TestCoherenceInvariantsBaseline(t *testing.T) {
	m := New(smallConfig(false))
	m.Load(testProfile(60000))
	m.Run()
	if err := m.VerifyCoherence(); err != nil {
		t.Fatal(err)
	}
}

// VerifyCoherence names the same violation on every call on the same
// state: with several bad lines at one home it reports the lowest, not
// whichever line the directory's map yields first.
func TestVerifyCoherenceReportsLowestBadLine(t *testing.T) {
	m := New(smallConfig(true))
	m.Load(testProfile(60000))
	m.Run()
	// Per home, the lines some node caches clean (Modified at neither level).
	clean := make([][]arch.LineAddr, len(m.Dirs))
	for home, d := range m.Dirs {
		d.ForEachEntry(func(e coherence.EntryView) {
			for _, cc := range m.Caches {
				l1, l2 := cc.L1(), cc.L2()
				s1, s2 := l1.Probe(e.Line), l2.Probe(e.Line)
				if s2 != cache.NoSlot && l2.State(s2) != cache.Modified &&
					(s1 == cache.NoSlot || l1.State(s1) != cache.Modified) {
					clean[home] = append(clean[home], e.Line)
					return
				}
			}
		})
	}
	home := 0
	for h := range clean {
		if len(clean[h]) > len(clean[home]) {
			home = h
		}
	}
	bad := clean[home][:min(6, len(clean[home]))]
	if len(bad) < 2 {
		t.Fatalf("home %d caches %d lines clean; the check needs two", home, len(bad))
	}
	for _, line := range bad {
		phys, _ := m.AMap.LookupLine(line)
		d := m.Mems[phys.Node].Peek(phys.MemAddr())
		d[0] ^= 0xff
		m.Mems[phys.Node].Poke(phys.MemAddr(), d)
	}
	first := m.VerifyCoherence()
	if first == nil {
		t.Fatal("memory behind clean cached lines was corrupted, but VerifyCoherence passed")
	}
	if want := fmt.Sprintf("clean copy of %#x ", slices.Min(bad)); !strings.Contains(first.Error(), want) {
		t.Fatalf("VerifyCoherence = %v, want the lowest bad line (%q)", first, want)
	}
	for i := 0; i < 20; i++ {
		if err := m.VerifyCoherence(); err == nil || err.Error() != first.Error() {
			t.Fatalf("call %d: VerifyCoherence = %v, first call said %v", i+2, err, first)
		}
	}
}

func TestCoherenceInvariantsAfterRecovery(t *testing.T) {
	m := New(verifyCfg())
	m.Load(testProfile(150000))
	runToEpoch(t, m, 2, 60*sim.Microsecond)
	m.InjectNodeLoss(1)
	if _, err := m.Recover(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := m.VerifyCoherence(); err != nil {
		t.Fatal(err)
	}
}
