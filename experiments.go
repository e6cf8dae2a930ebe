package revive

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"revive/internal/arch"
	"revive/internal/avail"
	"revive/internal/core"
	"revive/internal/sim"
	"revive/internal/stats"
	"revive/internal/sweep"
	"revive/internal/workload"
)

// parallelism resolves Options.Parallelism for the sweep runner.
func (o Options) parallelism() int {
	if o.Parallelism != 0 {
		return o.Parallelism
	}
	return sweep.DefaultParallelism()
}

// Experiment is one report of the evaluation: the name revive-bench and
// BenchmarkExperiments select it by, whether revive-bench -all includes it,
// and Write, which runs it through the Session and renders it to w.
type Experiment struct {
	Name  string
	All   bool
	Write func(w io.Writer, s *Session)
}

// Experiments is the registry, in report order: the paper's section 6
// outputs (all in -all, pinned by testdata/bench_quick_all.golden), then
// E19 and E23 (pinned by testdata/bench_quick_fft_radix.golden). Those two
// stay out of -all so that its golden and bench_all_output.txt hold the
// paper's outputs alone.
var Experiments = []Experiment{
	{"figure6", true, func(w io.Writer, s *Session) {
		cfg := EvalConfig(s.Options)
		WriteFigure6(w, RunFigure6(s.Options), cfg.Checkpoint.InterruptCost, cfg.Checkpoint.BarrierCost)
	}},
	{"figure7", true, func(w io.Writer, s *Session) {
		recov := s.recovery()
		worst := recov[0].NodeLoss
		for _, r := range recov[1:] {
			if r.NodeLoss.Unavailable() > worst.Unavailable() {
				worst = r.NodeLoss
			}
		}
		interval := EvalConfig(s.Options).Checkpoint.Interval
		WriteFigure7(w, worst, interval, interval*8/10)
	}},
	{"figure8", true, func(w io.Writer, s *Session) { WriteFigure8(w, s.matrix()) }},
	{"figure9", true, func(w io.Writer, s *Session) { WriteFigure9(w, s.matrix()) }},
	{"figure10", true, func(w io.Writer, s *Session) { WriteFigure10(w, s.matrix()) }},
	{"figure11", true, func(w io.Writer, s *Session) { WriteFigure11(w, s.matrix()) }},
	{"figure12", true, func(w io.Writer, s *Session) { WriteFigure12(w, s.recovery()) }},
	{"table2", true, func(w io.Writer, s *Session) { WriteTable2(w, RunTable2(s.Options)) }},
	{"table4", true, func(w io.Writer, s *Session) {
		// Table 4 reads only the baseline cells: reuse the matrix if an
		// earlier entry ran it, else run just those.
		results := s.matrixRuns
		if results == nil {
			results = RunMissRates(s.Options, s.Apps)
		}
		WriteTable4(w, results)
	}},
	{"storage", true, func(w io.Writer, s *Session) { WriteStorage(w, StorageStudy(s.matrix(), 8)) }},
	{"availability", true, func(w io.Writer, s *Session) { WriteAvailability(w, AvailabilityStudy()) }},
	{"split-domain", false, func(w io.Writer, s *Session) {
		app := s.Apps[0]
		res := RunSplitDomainStudy(s.Options, app, []int{8, 2}, func(gs int) {
			s.progressf("  split-domain: %s group size %d\n", app.Label, gs)
		})
		WriteE19(w, res, EvalConfig(s.Options).Checkpoint.Interval)
	}},
	{"strategy-matrix", false, func(w io.Writer, s *Session) {
		// Every registered backend runs, so Options.Strategy does not apply.
		res := RunStrategyMatrix(s.Options, s.Apps, func(app, strategy string, st *Stats) {
			s.progressf("  %-10s %-11s exec=%8.1fus ckps=%d\n",
				app, strategy, float64(st.ExecTime)/1000, st.Checkpoints)
		})
		WriteStrategyMatrix(w, res)
	}},
}

// Session is the state one report shares across its experiments: the
// options, the applications, where per-cell progress lines go (nil
// discards them), and the two sweeps several experiments read. Each sweep
// runs at most once, on first use.
type Session struct {
	Options  Options
	Apps     []App
	Progress io.Writer

	matrixRuns   []AppResult
	recoveryRuns []RecoveryResult
}

// matrix returns the error-free matrix behind Figures 8-11, Table 4 and
// the storage accounting.
func (s *Session) matrix() []AppResult {
	if s.matrixRuns == nil {
		s.matrixRuns = RunErrorFree(s.Options, s.Apps, func(app string, v Variant, st *Stats) {
			s.progressf("  %-10s %-8s exec=%8.1fus ckps=%d\n",
				app, v, float64(st.ExecTime)/1000, st.Checkpoints)
		})
	}
	return s.matrixRuns
}

// recovery returns the recovery study behind Figures 7 and 12.
func (s *Session) recovery() []RecoveryResult {
	if s.recoveryRuns == nil {
		s.recoveryRuns = RunRecoveryStudy(s.Options, s.Apps, func(app string) {
			s.progressf("  recovery: %s\n", app)
		})
	}
	return s.recoveryRuns
}

func (s *Session) progressf(format string, args ...any) {
	if s.Progress != nil {
		fmt.Fprintf(s.Progress, format, args...)
	}
}

// RunExperiments writes the named experiments to w in registry order, each
// followed by a 78-dash divider. An unknown name fails the whole selection
// before anything runs.
func RunExperiments(w io.Writer, s *Session, names []string) error {
	var known []string
	for _, e := range Experiments {
		known = append(known, e.Name)
	}
	for _, name := range names {
		if !slices.Contains(known, name) {
			return fmt.Errorf("unknown experiment %q (known: %s)", name, strings.Join(known, ", "))
		}
	}
	for _, e := range Experiments {
		if slices.Contains(names, e.Name) {
			e.Write(w, s)
			fmt.Fprintln(w, strings.Repeat("-", 78))
		}
	}
	return nil
}

// Variant names one error-free configuration of Figure 8.
type Variant string

const (
	// VBase is the baseline with no recovery support.
	VBase Variant = "Base"
	// VCp is ReVive with 7+1 parity and periodic checkpoints (Cp10ms).
	VCp Variant = "Cp10ms"
	// VCpInf is ReVive with 7+1 parity and an infinite checkpoint
	// interval (isolates logging + parity overhead).
	VCpInf Variant = "CpInf"
	// VCpM and VCpInfM are the mirroring counterparts.
	VCpM    Variant = "Cp10msM"
	VCpInfM Variant = "CpInfM"
)

// Variants lists the Figure 8 configurations in presentation order.
var Variants = []Variant{VBase, VCp, VCpInf, VCpM, VCpInfM}

func variantConfig(v Variant, o Options) Config {
	switch v {
	case VBase:
		return BaselineConfig(o)
	case VCp:
		return EvalConfig(o)
	case VCpInf:
		cfg := EvalConfig(o)
		cfg.Checkpoint.Interval = 0
		return cfg
	case VCpM:
		o.GroupSize = 2
		return EvalConfig(o)
	case VCpInfM:
		o.GroupSize = 2
		cfg := EvalConfig(o)
		cfg.Checkpoint.Interval = 0
		return cfg
	default:
		panic("revive: unknown variant " + v)
	}
}

// AppResult holds one application's runs across all variants. Figures 8,
// 9, 10 and 11 and Table 4 all derive from the same matrix.
type AppResult struct {
	App  App
	Runs map[Variant]*Stats
}

// Overhead returns a variant's execution-time overhead over the baseline.
func (r AppResult) Overhead(v Variant) float64 {
	base := r.Runs[VBase].ExecTime
	return float64(r.Runs[v].ExecTime-base) / float64(base)
}

// RunErrorFree executes the full error-free matrix: every application in
// apps under every variant. It is the expensive sweep behind Figures 8-11.
// The app x variant cells are independent simulations and run on
// o.Parallelism workers; results and progress callbacks (if non-nil,
// invoked once per run, serialized, in the serial loop's order) are
// byte-identical at every parallelism.
func RunErrorFree(o Options, apps []App, progress func(app string, v Variant, st *Stats)) []AppResult {
	out := make([]AppResult, len(apps))
	for i, app := range apps {
		out[i] = AppResult{App: app, Runs: map[Variant]*Stats{}}
	}
	nv := len(Variants)
	sweep.Run(o.parallelism(), len(apps)*nv,
		func(i int) *Stats {
			m := New(variantConfig(Variants[i%nv], o))
			m.Load(apps[i/nv])
			return m.Run()
		},
		func(i int, st *Stats) {
			app, v := apps[i/nv], Variants[i%nv]
			out[i/nv].Runs[v] = st
			if progress != nil {
				progress(app.Label, v, st)
			}
		})
	return out
}

// meanOverhead returns the arithmetic-mean overhead of a variant across
// results (the paper reports arithmetic averages). An empty result set
// yields 0, not NaN.
func meanOverhead(results []AppResult, v Variant) float64 {
	if len(results) == 0 {
		return 0
	}
	var sum float64
	for _, r := range results {
		sum += r.Overhead(v)
	}
	return sum / float64(len(results))
}

// --- Figure 8: error-free execution overhead ---

// WriteFigure8 renders the Figure 8 comparison: per-application overhead of
// each ReVive variant over the baseline, with the paper's headline numbers
// alongside.
func WriteFigure8(w io.Writer, results []AppResult) {
	fmt.Fprintln(w, "Figure 8: Performance overhead of ReVive in error-free execution")
	fmt.Fprintln(w, "(percent slowdown vs. baseline without recovery support)")
	fmt.Fprintf(w, "%-12s %9s %9s %9s %9s\n", "App", VCp, VCpInf, VCpM, VCpInfM)
	for _, r := range results {
		fmt.Fprintf(w, "%-12s %8.1f%% %8.1f%% %8.1f%% %8.1f%%\n", r.App.Label,
			100*r.Overhead(VCp), 100*r.Overhead(VCpInf),
			100*r.Overhead(VCpM), 100*r.Overhead(VCpInfM))
	}
	fmt.Fprintf(w, "%-12s %8.1f%% %8.1f%% %8.1f%% %8.1f%%\n", "AVERAGE",
		100*meanOverhead(results, VCp), 100*meanOverhead(results, VCpInf),
		100*meanOverhead(results, VCpM), 100*meanOverhead(results, VCpInfM))
	fmt.Fprintln(w, "Paper:       Cp10ms avg 6.3% (max 22%, FFT); CpInf avg 2.7% (max 11%, Radix);")
	fmt.Fprintln(w, "             Cp10msM avg ~4%; CpInfM avg 1%")
}

// --- Figure 9 and 10: traffic breakdowns ---

// trafficClasses lists the paper's breakdown categories in figure order.
var trafficClasses = []stats.Class{
	stats.ClassRead, stats.ClassExeWB, stats.ClassCkpWB, stats.ClassLog, stats.ClassParity,
}

// WriteFigure9 renders the network-traffic breakdown of the Cp10ms runs,
// normalized per 1000 instructions for cross-application comparability.
func WriteFigure9(w io.Writer, results []AppResult) {
	fmt.Fprintln(w, "Figure 9: Breakdown of network traffic in Cp10ms (bytes per 1000 instructions)")
	writeTraffic(w, results, func(st *Stats, c stats.Class) float64 {
		return float64(st.NetBytes[c]) * 1000 / float64(st.Instructions)
	})
}

// WriteFigure10 renders the memory-traffic breakdown of the Cp10ms runs
// (line accesses per 1000 instructions).
func WriteFigure10(w io.Writer, results []AppResult) {
	fmt.Fprintln(w, "Figure 10: Breakdown of memory traffic in Cp10ms (line accesses per 1000 instructions)")
	writeTraffic(w, results, func(st *Stats, c stats.Class) float64 {
		return float64(st.MemAccesses[c]) * 1000 / float64(st.Instructions)
	})
}

func writeTraffic(w io.Writer, results []AppResult, get func(*Stats, stats.Class) float64) {
	fmt.Fprintf(w, "%-12s", "App")
	for _, c := range trafficClasses {
		fmt.Fprintf(w, " %9s", c)
	}
	fmt.Fprintf(w, " %9s\n", "TOTAL")
	for _, r := range results {
		st := r.Runs[VCp]
		fmt.Fprintf(w, "%-12s", r.App.Label)
		var total float64
		for _, c := range trafficClasses {
			v := get(st, c)
			total += v
			fmt.Fprintf(w, " %9.2f", v)
		}
		fmt.Fprintf(w, " %9.2f\n", total)
	}
}

// --- Figure 11: maximum log size ---

// WriteFigure11 renders the per-application peak retained log size under
// Cp10ms with two checkpoints retained.
func WriteFigure11(w io.Writer, results []AppResult) {
	fmt.Fprintln(w, "Figure 11: Maximum log size in the Cp10ms configuration (KB, max over nodes,")
	fmt.Fprintln(w, "logs for two most recent checkpoints retained)")
	type row struct {
		app string
		kb  float64
	}
	var rows []row
	for _, r := range results {
		rows = append(rows, row{r.App.Label, float64(r.Runs[VCp].LogBytesPeak) / 1024})
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %10.1f KB\n", r.app, r.kb)
	}
	sorted := append([]row(nil), rows...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].kb > sorted[j].kb })
	fmt.Fprintf(w, "Largest: %s. Paper: largest ~2.5 MB (Radix) at its scale.\n", sorted[0].app)
}

// --- Table 4: application characteristics ---

// WriteTable4 renders the executed instruction counts and measured global
// L2 miss rates against the paper's Table 4.
func WriteTable4(w io.Writer, results []AppResult) {
	fmt.Fprintln(w, "Table 4: Characteristics of the applications (measured on the baseline run)")
	fmt.Fprintf(w, "%-12s %14s %14s %12s %12s %15s\n",
		"App", "Instr (run)", "Paper Instr", "L2 miss", "Paper miss", "miss/1000instr")
	for _, r := range results {
		st := r.Runs[VBase]
		fmt.Fprintf(w, "%-12s %13dM %13dM %11.2f%% %11.2f%% %15.2f\n",
			r.App.Label, st.Instructions/1_000_000, r.App.PaperInstrM,
			100*st.L2MissRate(), r.App.PaperMissPct, st.L2MissesPer1000Instr())
	}
	fmt.Fprintln(w, "The last column is section 5's commercial-workload comparison metric")
	fmt.Fprintln(w, "(paper range: 0.06 for Water-Sp to 9.3 for Radix; OLTP/web ~3).")
}

// --- Figure 12 / Figure 7: recovery ---

// RecoveryResult is one application's recovery experiment (the paper's
// worst case: node loss just before a checkpoint, detected 80% of an
// interval later).
type RecoveryResult struct {
	App       string
	NodeLoss  Report
	Transient Report
}

// RunRecoveryStudy reproduces the Figure 12 experiment for each app: run to
// the second checkpoint commit plus 80% of an interval, lose a node, and
// roll back two checkpoints (to epoch 1). The transient variant repeats it
// without memory loss. The two runs per app are independent simulations
// and fan out over o.Parallelism workers; progress fires once per app, in
// order, when both of its runs are in.
func RunRecoveryStudy(o Options, apps []App, progress func(app string)) []RecoveryResult {
	out := make([]RecoveryResult, len(apps))
	for i, app := range apps {
		out[i].App = app.Label
	}
	kinds := [2]damage{nodeLoss, transient}
	sweep.Run(o.parallelism(), 2*len(apps),
		func(i int) Report {
			return runFigure12Protocol(o, apps[i/2], kinds[i%2])
		},
		func(i int, rep Report) {
			if kinds[i%2] == nodeLoss {
				out[i/2].NodeLoss = rep
				return
			}
			out[i/2].Transient = rep
			if progress != nil {
				progress(apps[i/2].Label)
			}
		})
	return out
}

// damage is the fault the Figure 12 protocol inflicts on its victim node.
type damage int

const (
	nodeLoss   damage = iota // fail-stop: processor, caches and memory lost
	cpuLoss                  // processor and caches die; memory, directory and log survive
	memPartial               // a contiguous quarter of the victim's used frames lost
	transient                // system-wide transient error; no memory lost
)

// runFigure12Protocol is the recovery protocol every fault study repeats:
// run to the second checkpoint commit plus 80% of an interval, inflict the
// damage on node 5, and roll back to epoch 1.
func runFigure12Protocol(o Options, app App, kind damage) Report {
	o.Verify = true
	m := New(EvalConfig(o))
	m.Load(app)
	var commit2 sim.Time = -1
	m.OnCheckpoint = func(e uint64) {
		if e == 2 {
			commit2 = m.Engine.Now()
		}
	}
	m.Start()
	m.Engine.RunWhile(func() bool { return commit2 < 0 })
	if commit2 < 0 {
		panic("revive: run too short for the Figure 12 recovery protocol")
	}
	m.Engine.RunUntil(commit2 + m.Cfg.Checkpoint.Interval*8/10)
	const victim = NodeID(5)
	lost := NodeID(-1)
	switch kind {
	case nodeLoss:
		lost = victim
		m.InjectNodeLoss(victim)
	case cpuLoss:
		m.InjectCPULoss(victim)
	case memPartial:
		// Lose the low quarter of the victim's used frames: a scoped
		// fraction that scales with the workload's footprint, so the
		// rebuilt/skipped split stays meaningful at every -scale.
		frames := max(1, m.AMap.FramesUsed(victim)/4)
		m.InjectMemPartialLoss(victim, 0, frames)
	case transient:
		m.InjectTransient()
	}
	rep, err := m.Recover(lost, 1)
	if err != nil {
		panic(fmt.Sprintf("revive: recovery study failed: %v", err))
	}
	return rep
}

// WriteFigure12 renders the recovery-time breakdown (Phases 2+3, the
// ReVive recovery during which the machine is unavailable).
func WriteFigure12(w io.Writer, results []RecoveryResult) {
	fmt.Fprintln(w, "Figure 12: ReVive recovery time (machine unavailable; node-loss worst case)")
	fmt.Fprintf(w, "%-12s %12s %12s %12s %12s %10s\n",
		"App", "Phase2", "Phase3", "P2+P3", "Transient P3", "Entries")
	var maxApp string
	var maxT, sum sim.Time
	for _, r := range results {
		p23 := r.NodeLoss.Phase2 + r.NodeLoss.Phase3
		sum += p23
		if p23 > maxT {
			maxT, maxApp = p23, r.App
		}
		fmt.Fprintf(w, "%-12s %10.1fus %10.1fus %10.1fus %10.1fus %10d\n",
			r.App,
			float64(r.NodeLoss.Phase2)/1000, float64(r.NodeLoss.Phase3)/1000,
			float64(p23)/1000, float64(r.Transient.Phase3)/1000,
			r.NodeLoss.EntriesRestored)
	}
	fmt.Fprintf(w, "Longest: %s (%.1f us); average %.1f us.\n",
		maxApp, float64(maxT)/1000, float64(sum)/float64(len(results))/1000)
	fmt.Fprintln(w, "Paper: longest 59 ms (Radix), average 17 ms, at 10 ms checkpoint intervals;")
	fmt.Fprintln(w, "times scale with the log size, i.e. with the checkpoint interval.")
}

// WriteFigure7 renders one node-loss recovery as the paper's Figure 7
// time-line, including the analytically composed lost work.
func WriteFigure7(w io.Writer, r Report, interval, detection sim.Time) {
	lost := avail.LostWork(interval, detection, true)
	fmt.Fprintln(w, "Figure 7: Time-line of recovering from node loss (worst case)")
	fmt.Fprintf(w, "  lost work (interval + detection):   %12.1f us\n", float64(lost)/1000)
	fmt.Fprintf(w, "  phase 1: hardware recovery:         %12.1f us\n", float64(r.Phase1)/1000)
	fmt.Fprintf(w, "  phase 2: rebuild logs (%4d pages): %12.1f us\n", r.LogPagesRebuilt, float64(r.Phase2)/1000)
	fmt.Fprintf(w, "  phase 3: rollback (%6d entries): %12.1f us\n", r.EntriesRestored, float64(r.Phase3)/1000)
	fmt.Fprintf(w, "  ---- execution continues ----\n")
	fmt.Fprintf(w, "  phase 4: background rebuild (%4d pages): %8.1f us (overlapped)\n",
		r.BackgroundPages, float64(r.Phase4)/1000)
	fmt.Fprintf(w, "  unavailable: %.1f us + lost work %.1f us = %.1f us\n",
		float64(r.Unavailable())/1000, float64(lost)/1000, float64(r.Unavailable()+lost)/1000)
}

// --- Table 2: sensitivity matrix ---

// Table2Cell is one cell of the paper's qualitative sensitivity matrix.
type Table2Cell struct {
	WorkingSet string
	Frequency  string
	Overhead   float64
}

// RunTable2 reproduces the Table 2 matrix with synthetic workloads: three
// working-set behaviours crossed with high and low checkpoint frequency.
func RunTable2(o Options) []Table2Cell {
	o = o.withDefaults()
	instr := uint64(800_000)
	if o.Quick {
		instr = 250_000
	}
	sets := []struct {
		name string
		prof Profile
	}{
		{"does not fit in L2", Profile{
			Label: "nofit", InstrPerProc: instr, MemOpsPer1000: 300,
			HotLines: 200, HotWriteFrac: 0.3,
			ColdFrac: 0.06, ColdLines: 65536, ColdWriteFrac: 0.6, ColdSeq: true,
			SharedFrac: 0.005, SharedLines: 1024, SharedWriteFrac: 0.2}},
		{"fits in L2, mostly dirty", Profile{
			Label: "dirty", InstrPerProc: instr, MemOpsPer1000: 300,
			HotLines: 400, HotWriteFrac: 0.7,
			ColdFrac: 0.0002, ColdLines: 8192, ColdWriteFrac: 0.5,
			SharedFrac: 0.005, SharedLines: 1024, SharedWriteFrac: 0.2}},
		{"fits in L2, mostly clean", Profile{
			Label: "clean", InstrPerProc: instr, MemOpsPer1000: 300,
			HotLines: 400, HotWriteFrac: 0.05, HotWriteLines: 40,
			ColdFrac: 0.0002, ColdLines: 8192, ColdWriteFrac: 0.2,
			SharedFrac: 0.005, SharedLines: 1024, SharedWriteFrac: 0.1}},
	}
	freqs := []struct {
		name     string
		interval sim.Time
	}{
		{"high frequency", 250 * sim.Microsecond},
		{"low frequency", 2 * sim.Millisecond},
	}
	// Per working set: one baseline run plus one run per frequency, all
	// independent. Fan out every simulation, then fold the overheads
	// serially in the presentation order (set-major, frequency-minor).
	perSet := 1 + len(freqs)
	times := sweep.Run(o.parallelism(), len(sets)*perSet,
		func(i int) sim.Time {
			s, k := sets[i/perSet], i%perSet
			var cfg Config
			if k == 0 {
				cfg = BaselineConfig(o)
			} else {
				cfg = EvalConfig(o)
				cfg.Checkpoint.Interval = freqs[k-1].interval
			}
			m := New(cfg)
			m.Load(s.prof)
			return m.Run().ExecTime
		}, nil)
	var out []Table2Cell
	for si, s := range sets {
		baseTime := times[si*perSet]
		for fi, f := range freqs {
			t := times[si*perSet+1+fi]
			out = append(out, Table2Cell{
				WorkingSet: s.name,
				Frequency:  f.name,
				Overhead:   float64(t-baseTime) / float64(baseTime),
			})
		}
	}
	return out
}

// WriteTable2 renders the sensitivity matrix with the paper's qualitative
// expectations.
func WriteTable2(w io.Writer, cells []Table2Cell) {
	fmt.Fprintln(w, "Table 2: Effect of application behaviour and checkpoint frequency")
	fmt.Fprintf(w, "%-28s %-16s %9s   %s\n", "Working set", "Ckpt frequency", "Overhead", "Paper")
	expect := map[string]string{
		"does not fit in L2/high frequency":       "High",
		"does not fit in L2/low frequency":        "High",
		"fits in L2, mostly dirty/high frequency": "High",
		"fits in L2, mostly dirty/low frequency":  "Low",
		"fits in L2, mostly clean/high frequency": "Medium",
		"fits in L2, mostly clean/low frequency":  "Low",
	}
	for _, c := range cells {
		fmt.Fprintf(w, "%-28s %-16s %8.1f%%   %s\n", c.WorkingSet, c.Frequency,
			100*c.Overhead, expect[c.WorkingSet+"/"+c.Frequency])
	}
}

// --- Figure 6 / section 3.3.1: checkpoint cost vs cache size ---

// Figure6Row is one cache size's measured checkpoint timing.
type Figure6Row struct {
	L2Bytes   int
	Dirty     int
	FlushTime sim.Time
}

// RunFigure6 measures the time to establish one global checkpoint with
// fully dirtied caches, at the paper's two reference L2 sizes (section
// 3.3.1: ~100 us at 128 KB, ~1 ms at 2 MB).
func RunFigure6(o Options) []Figure6Row {
	o = o.withDefaults()
	sizes := []int{128 * 1024, 2 * 1024 * 1024}
	return sweep.Run(o.parallelism(), len(sizes), func(i int) Figure6Row {
		l2 := sizes[i]
		cfg := EvalConfig(o)
		cfg.Checkpoint.Interval = 0 // manual checkpoint
		cfg.L1.SizeBytes = l2 / 8
		cfg.L2.SizeBytes = l2
		m := New(cfg)
		lines := l2 / 64
		// One writer per node dirties its entire L2.
		perProc := make([][]workload.Op, cfg.Nodes)
		for n := range perProc {
			base := uint64(1+n) << 32
			for i := 0; i < lines; i++ {
				perProc[n] = append(perProc[n], workload.Op{
					Kind: workload.OpStore,
					Addr: Addr(base + uint64(i)*64),
				})
			}
		}
		m.Load(workload.Directed{Title: "dirty-all", PerProc: perProc})
		m.Run()
		dirty := 0
		for _, cc := range m.Caches {
			dirty += cc.L2().DirtyCount()
		}
		flushStart := m.Stats.CkpFlushTime
		done := false
		m.Ckpt.Run(func() { done = true })
		m.Engine.Run()
		if !done {
			panic("revive: figure 6 checkpoint did not complete")
		}
		return Figure6Row{
			L2Bytes:   l2,
			Dirty:     dirty / cfg.Nodes,
			FlushTime: m.Stats.CkpFlushTime - flushStart,
		}
	}, nil)
}

// WriteFigure6 renders the checkpoint-establishment timing.
func WriteFigure6(w io.Writer, rows []Figure6Row, cfgIntr, cfgBarrier sim.Time) {
	fmt.Fprintln(w, "Figure 6 / section 3.3.1: establishing a global checkpoint, fully dirty caches")
	for _, r := range rows {
		fmt.Fprintf(w, "  L2 %4d KB: flush %8.1f us (%d dirty lines/node) + interrupt %.1f us + 2 barriers %.1f us\n",
			r.L2Bytes/1024, float64(r.FlushTime)/1000, r.Dirty,
			float64(cfgIntr)/1000, float64(2*cfgBarrier)/1000)
	}
	fmt.Fprintln(w, "Paper: ~100 us at 128 KB, ~1 ms at 2 MB.")
}

// --- Storage (section 6.2) ---

// StorageReport composes the section 6.2 memory-overhead accounting.
type StorageReport struct {
	GroupSize      int
	ParityFraction float64
	LogPeakBytes   uint64
	// NodeMemBytes is the assumed per-node DRAM (the paper uses 2 GB).
	NodeMemBytes uint64
	// LogProjectedBytes projects the measured peak to the paper's 100 ms
	// real-machine interval (log grows with the interval).
	LogProjectedBytes uint64
}

// TotalOverhead is parity + projected log as a fraction of node memory.
func (s StorageReport) TotalOverhead() float64 {
	return s.ParityFraction + float64(s.LogProjectedBytes)/float64(s.NodeMemBytes)
}

// StorageStudy derives the section 6.2 numbers from the error-free runs.
func StorageStudy(results []AppResult, groupSize int) StorageReport {
	var peak uint64
	for _, r := range results {
		if p := r.Runs[VCp].LogBytesPeak; p > peak {
			peak = p
		}
	}
	return StorageReport{
		GroupSize:         groupSize,
		ParityFraction:    1 / float64(groupSize),
		LogPeakBytes:      peak,
		NodeMemBytes:      2 << 30,
		LogProjectedBytes: peak * uint64(100*sim.Millisecond/CheckpointInterval),
	}
}

// WriteStorage renders the storage-overhead accounting.
func WriteStorage(w io.Writer, s StorageReport) {
	fmt.Fprintln(w, "Section 6.2: storage requirements")
	fmt.Fprintf(w, "  parity (%d+1): %.1f%% of memory (paper: 12%% for 7+1, 50%% mirroring)\n",
		s.GroupSize-1, 100*s.ParityFraction)
	fmt.Fprintf(w, "  peak log (measured, 2 checkpoints retained): %.1f KB/node\n",
		float64(s.LogPeakBytes)/1024)
	fmt.Fprintf(w, "  projected to 100 ms real intervals: %.1f MB/node (paper: 25 MB)\n",
		float64(s.LogProjectedBytes)/(1<<20))
	fmt.Fprintf(w, "  total overhead on %d GB/node: %.1f%% (paper: ~14%%)\n",
		s.NodeMemBytes>>30, 100*s.TotalOverhead())
}

// --- Availability (section 3.3.2) ---

// AvailabilityRow is one error-frequency point.
type AvailabilityRow struct {
	MTBE         sim.Time
	WorstCase    float64
	NoMemoryLoss float64
}

// AvailabilityStudy sweeps error frequency using the paper's real-machine
// unavailable times (worst case 820 ms; no-memory-loss average 250 ms),
// with measured recovery shapes validating the composition (Figure 12).
func AvailabilityStudy() []AvailabilityRow {
	worst := avail.Breakdown{
		HWRecovery:     50 * sim.Millisecond,
		ReviveRecovery: 590 * sim.Millisecond,
		LostWork:       avail.LostWork(100*sim.Millisecond, 80*sim.Millisecond, true),
	}
	var rows []AvailabilityRow
	for _, mtbe := range []sim.Time{
		24 * 3600 * sim.Second,      // once per day (paper's high rate)
		7 * 24 * 3600 * sim.Second,  // once per week
		30 * 24 * 3600 * sim.Second, // once per month (paper's low rate)
	} {
		rows = append(rows, AvailabilityRow{
			MTBE:         mtbe,
			WorstCase:    avail.Availability(mtbe, worst.Total()),
			NoMemoryLoss: avail.Availability(mtbe, 250*sim.Millisecond),
		})
	}
	return rows
}

// WriteAvailability renders the availability table.
func WriteAvailability(w io.Writer, rows []AvailabilityRow) {
	fmt.Fprintln(w, "Section 3.3.2: availability (A = (T_E - T_U)/T_E)")
	fmt.Fprintf(w, "%-16s %14s %16s\n", "Error rate", "Worst case", "No memory loss")
	for _, r := range rows {
		fmt.Fprintf(w, "once per %-7s %14s %16s\n",
			humanDuration(r.MTBE), avail.Nines(r.WorstCase), avail.Nines(r.NoMemoryLoss))
	}
	fmt.Fprintln(w, "Paper: 99.999% worst case at one error/day; 99.9997% without memory loss.")
	rebuild := ProjectFullRebuild(Options{}, 2<<30)
	fmt.Fprintf(w, "Full 2 GB node rebuild in the background at half compute: %.1f s (paper: ~20 s);\n",
		float64(rebuild)/1e9)
	fmt.Fprintln(w, "the machine is available throughout (Phase 4 overlaps execution).")
}

func humanDuration(t sim.Time) string {
	switch {
	case t >= 30*24*3600*sim.Second:
		return "month"
	case t >= 7*24*3600*sim.Second:
		return "week"
	default:
		return "day"
	}
}

// RunMissRates runs only the baseline configuration per application — the
// fast calibration loop behind Table 4, one worker per app.
func RunMissRates(o Options, apps []App) []AppResult {
	return sweep.Run(o.parallelism(), len(apps), func(i int) AppResult {
		m := New(variantConfig(VBase, o))
		m.Load(apps[i])
		return AppResult{App: apps[i], Runs: map[Variant]*Stats{VBase: m.Run()}}
	}, nil)
}

// Studies names the experiment studies RunStudy accepts, in presentation
// order — the job kinds a revive-serve "experiment" request can ask for.
var Studies = []string{"missrates", "table2", "figure6"}

// RunStudy is the serving layer's job adapter over the experiment runners:
// it maps a study name to its sweep and returns a JSON-marshalable result.
// Only studies whose results are deterministic pure data (no progress
// callbacks, no wall-clock fields) are exposed, so a study response can be
// cached content-addressed and served byte-identical forever. apps is the
// application subset for per-app studies (nil = all twelve); table2 and
// figure6 run on synthetic workloads and ignore it.
func RunStudy(name string, o Options, apps []App) (any, error) {
	if len(apps) == 0 {
		apps = Apps(o)
	}
	switch name {
	case "missrates":
		return RunMissRates(o, apps), nil
	case "table2":
		return RunTable2(o), nil
	case "figure6":
		return RunFigure6(o), nil
	default:
		return nil, fmt.Errorf("unknown study %q (known: %s)", name, strings.Join(Studies, ", "))
	}
}

// ProjectFullRebuild estimates the section 3.3.2 full-node background
// rebuild (the paper: ~20 s for a 2 GB node at half compute, 7+1 parity).
func ProjectFullRebuild(o Options, nodeMemBytes uint64) sim.Time {
	o = o.withDefaults()
	rec := &core.Recovery{
		Topo: arch.Topology{Nodes: o.Nodes, GroupSize: o.GroupSize},
		Cfg:  core.DefaultRecoveryConfig(1),
	}
	return rec.ProjectPhase4(nodeMemBytes)
}

// --- E19: split fault domains ---

// SplitDomainResult holds one parity organization's recoveries from the
// three damage kinds of the split fault model: a classic full node loss,
// a cpu-loss (processor and caches die, memory/directory/log survive) and
// a partial memory loss (a contiguous quarter of the victim's used frames).
type SplitDomainResult struct {
	GroupSize int
	NodeLoss  Report
	CPULoss   Report
	Partial   Report
}

// RunSplitDomainStudy runs the E19 experiment: one application, three
// damage kinds, across the given parity organizations. Each cell repeats
// the Figure 12 protocol (run to the second checkpoint commit plus 80% of
// an interval, inject, roll back to epoch 1); only the injected damage
// differs. The 3 x len(groupSizes) cells are independent simulations and
// fan out over o.Parallelism workers; progress fires once per group size,
// in order, when all three of its cells are in.
func RunSplitDomainStudy(o Options, app App, groupSizes []int, progress func(groupSize int)) []SplitDomainResult {
	out := make([]SplitDomainResult, len(groupSizes))
	for i, gs := range groupSizes {
		out[i].GroupSize = gs
	}
	sweep.Run(o.parallelism(), 3*len(groupSizes),
		func(i int) Report {
			oo := o
			oo.GroupSize = groupSizes[i/3]
			return runFigure12Protocol(oo, app, damage(i%3))
		},
		func(i int, rep Report) {
			switch damage(i % 3) {
			case nodeLoss:
				out[i/3].NodeLoss = rep
			case cpuLoss:
				out[i/3].CPULoss = rep
			case memPartial:
				out[i/3].Partial = rep
				if progress != nil {
					progress(groupSizes[i/3])
				}
			}
		})
	return out
}

// WriteE19 renders the split-fault-domain comparison: per parity
// organization, the Phase 1-3 unavailable window of each damage kind and
// the window avoided relative to a classic full node loss — the
// reconstruction cost the surviving memory buys back.
func WriteE19(w io.Writer, results []SplitDomainResult, interval sim.Time) {
	fmt.Fprintln(w, "E19: split fault domains — unavailable time (Phases 1-3) by damage kind")
	for _, r := range results {
		org := fmt.Sprintf("%d+1 parity", r.GroupSize-1)
		if r.GroupSize == 2 {
			org = "mirroring"
		}
		fmt.Fprintf(w, "GroupSize %d (%s):\n", r.GroupSize, org)
		fmt.Fprintf(w, "  %-12s %10s %10s %10s %10s %8s %8s %18s\n",
			"kind", "phase1", "phase2", "phase3", "unavail", "rebuilt", "skipped", "avoided")
		// The reference is the ReVive window (Phases 2+3) of a classic full
		// node loss in the same parity organization; Phase 1 is the fixed
		// hardware recovery and identical for every kind, so it would only
		// dilute the comparison.
		ref := avail.FromRecovery(0, r.NodeLoss.Phase2, r.NodeLoss.Phase3, 0)
		row := func(kind string, rep Report) {
			b := avail.FromRecovery(0, rep.Phase2, rep.Phase3, 0)
			avoided := "(reference)"
			if kind != "node-loss" {
				saved, frac := avail.Avoided(ref, b)
				avoided = fmt.Sprintf("%8.1fus %5.1f%%", float64(saved)/1000, frac*100)
			}
			fmt.Fprintf(w, "  %-12s %8.1fus %8.1fus %8.1fus %8.1fus %8d %8d %18s\n",
				kind,
				float64(rep.Phase1)/1000, float64(rep.Phase2)/1000,
				float64(rep.Phase3)/1000, float64(rep.Unavailable())/1000,
				rep.FramesReconstructed, rep.FramesSkipped, avoided)
		}
		row("node-loss", r.NodeLoss)
		row("cpu-loss", r.CPULoss)
		row("mem-partial", r.Partial)
		// Price the full per-error window (Phase 1 + Phases 2+3 + the
		// paper's worst-case lost work) the way section 3.3.2 does: the
		// avoided fraction shrinks because hardware recovery and the
		// rolled-back work dominate.
		lost := avail.LostWork(interval, interval*8/10, true)
		saved, frac := avail.Avoided(
			avail.FromRecovery(0, r.NodeLoss.Phase2, r.NodeLoss.Phase3, 0),
			avail.FromRecovery(0, r.CPULoss.Phase2, r.CPULoss.Phase3, 0))
		_, pricedFrac := avail.Avoided(
			avail.FromRecovery(r.NodeLoss.Phase1, r.NodeLoss.Phase2, r.NodeLoss.Phase3, lost),
			avail.FromRecovery(r.CPULoss.Phase1, r.CPULoss.Phase2, r.CPULoss.Phase3, lost))
		fmt.Fprintf(w, "  cpu-loss avoids %.1fus (%.1f%%) of the ReVive window; %.2f%% of the full per-error window\n",
			float64(saved)/1000, frac*100, pricedFrac*100)
	}
	fmt.Fprintln(w, "Avoided compares each scoped recovery's ReVive window (Phases 2+3) against the")
	fmt.Fprintln(w, "classic full node loss of the same parity organization: the reconstruction")
	fmt.Fprintln(w, "work a surviving memory module (cpu-loss) or surviving frame range")
	fmt.Fprintln(w, "(mem-partial) makes unnecessary. A partial loss's damaged range is declared")
	fmt.Fprintln(w, "up front, so the survivors rebuild it eagerly in Phase 2 (striped like the")
	fmt.Fprintln(w, "log pages) and the victim's Phase 3 is a plain log walk that stays at or")
	fmt.Fprintln(w, "below the node-loss reference.")
}

// --- E23: recovery-strategy ablation matrix ---

// EventCounts re-exports the Table 1 event tally (core.EventCounts).
type EventCounts = core.EventCounts

// StrategyResult holds one application's error-free runs across every
// registered recovery-strategy backend, against one shared baseline with no
// recovery support.
type StrategyResult struct {
	App  App
	Base *Stats
	// Runs and Events are keyed by backend name (StrategyNames order):
	// the Cp10ms stats and the Table 1 event tally summed over every
	// node's controller.
	Runs   map[string]*Stats
	Events map[string]EventCounts
}

// Overhead returns a backend's execution-time overhead over the baseline.
func (r StrategyResult) Overhead(strategy string) float64 {
	base := r.Base.ExecTime
	return float64(r.Runs[strategy].ExecTime-base) / float64(base)
}

// strategyCell is one simulation's harvest: the run stats plus the machine's
// controller event tally (which lives on the controllers, not in Stats).
type strategyCell struct {
	st *Stats
	ev EventCounts
}

// RunStrategyMatrix executes the E23 ablation: every application under every
// registered recovery-strategy backend (Cp10ms regime) plus one shared
// baseline per application. All cells are independent simulations fanned out
// in a single sweep, so results and progress callbacks (if non-nil, invoked
// once per run, serialized, in the serial loop's order; the baseline reports
// as strategy "baseline") are byte-identical at every o.Parallelism.
func RunStrategyMatrix(o Options, apps []App, progress func(app, strategy string, st *Stats)) []StrategyResult {
	names := StrategyNames()
	per := 1 + len(names) // baseline + one run per backend
	out := make([]StrategyResult, len(apps))
	for i, app := range apps {
		out[i] = StrategyResult{App: app, Runs: map[string]*Stats{}, Events: map[string]EventCounts{}}
	}
	sweep.Run(o.parallelism(), len(apps)*per,
		func(i int) strategyCell {
			app, j := apps[i/per], i%per
			oo := o
			var cfg Config
			if j == 0 {
				cfg = BaselineConfig(oo)
			} else {
				oo.Strategy = names[j-1]
				cfg = EvalConfig(oo)
			}
			m := New(cfg)
			m.Load(app)
			cell := strategyCell{st: m.Run()}
			for _, ctrl := range m.Ctrls {
				e := ctrl.Events
				cell.ev.WBLogged += e.WBLogged
				cell.ev.RDXNotLogged += e.RDXNotLogged
				cell.ev.WBNotLogged += e.WBNotLogged
				cell.ev.InlineFits += e.InlineFits
				cell.ev.InlineOverflows += e.InlineOverflows
			}
			return cell
		},
		func(i int, cell strategyCell) {
			app, j := apps[i/per], i%per
			name := "baseline"
			if j == 0 {
				out[i/per].Base = cell.st
			} else {
				name = names[j-1]
				out[i/per].Runs[name] = cell.st
				out[i/per].Events[name] = cell.ev
			}
			if progress != nil {
				progress(app.Label, name, cell.st)
			}
		})
	return out
}

// WriteStrategyMatrix renders the E23 head-to-head: per-application
// execution-time overhead of each backend over the shared baseline, then the
// Table 1-style event tallies and peak log footprint per backend.
func WriteStrategyMatrix(w io.Writer, results []StrategyResult) {
	names := StrategyNames()
	fmt.Fprintln(w, "E23: recovery-strategy ablation — error-free overhead vs shared baseline")
	fmt.Fprintf(w, "%-12s", "App")
	for _, n := range names {
		fmt.Fprintf(w, " %11s", n)
	}
	fmt.Fprintln(w)
	means := make([]float64, len(names))
	for _, r := range results {
		fmt.Fprintf(w, "%-12s", r.App.Label)
		for i, n := range names {
			ov := r.Overhead(n)
			means[i] += ov
			fmt.Fprintf(w, " %10.1f%%", 100*ov)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-12s", "AVERAGE")
	for i := range names {
		mean := 0.0
		if len(results) > 0 {
			mean = means[i] / float64(len(results))
		}
		fmt.Fprintf(w, " %10.1f%%", 100*mean)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Event totals (summed over applications and nodes) and peak retained log:")
	fmt.Fprintf(w, "%-12s %12s %12s %12s %12s %12s %14s\n",
		"strategy", "wb-logged", "rdx-nolog", "wb-nolog", "inline-fit", "inline-ovf", "log-peak")
	for _, n := range names {
		var ev EventCounts
		var peak uint64
		for _, r := range results {
			e := r.Events[n]
			ev.WBLogged += e.WBLogged
			ev.RDXNotLogged += e.RDXNotLogged
			ev.WBNotLogged += e.WBNotLogged
			ev.InlineFits += e.InlineFits
			ev.InlineOverflows += e.InlineOverflows
			if st := r.Runs[n]; st != nil && st.LogBytesPeak > peak {
				peak = st.LogBytesPeak
			}
		}
		fmt.Fprintf(w, "%-12s %12d %12d %12d %12d %12d %13dB\n",
			n, ev.WBLogged, ev.RDXNotLogged, ev.WBNotLogged, ev.InlineFits, ev.InlineOverflows, peak)
	}
	fmt.Fprintln(w, "Backends: revive is the paper's design point (eager out-of-line logging at")
	fmt.Fprintln(w, "first write, distributed parity); inline-log folds small undo entries into")
	fmt.Fprintln(w, "spare line capacity at write-back and skips eager logging (arXiv:1902.00660);")
	fmt.Fprintln(w, "conelog logs identically to revive but scopes rollback to the dependence")
	fmt.Fprintln(w, "cone of the failed nodes, falling back to a global rollback when the cone")
	fmt.Fprintln(w, "escapes (arXiv:1806.01611). Identical baseline; overheads are comparable.")
}
