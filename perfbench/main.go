// Command perfbench is the repository benchmark. It drives the simulator
// only through its public entry points — revive.RunErrorFree, revive.New
// with the Machine fault/recover/verify calls, and the serve daemon over
// loopback HTTP — and prints one JSON result line:
//
//	perfbench --workload errorfree|faults|serve --seed N --seconds S --trace 0|1
//
// An untraced run (--trace 0) reports the end-to-end metrics; a traced run
// (--trace 1) profiles the workload and reports the per-layer metrics. Both
// check the program's outputs and count every failed check. README.md in
// this directory records why each workload exists and which end-to-end
// metric each layer metric should move. run.sh builds and runs it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// processStart is taken during package initialization, so setup_s covers
// runtime start-up and flag parsing as well as the workload's own set-up.
var processStart = time.Now()

// metric names one reported quantity and its unit.
type metric struct{ name, unit string }

// endToEnd lists the metrics of an untraced run, in BENCHMARK.json order.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"peak_rss_mb", "MB"},
	{"sim_overhead_pct", "%"},
	{"sim_recovery_us", "sim_us"},
	{"cold_p50_ms", "ms"},
	{"hit_p50_ms", "ms"},
	{"hit_p99_ms", "ms"},
}

// notModelled is the value of a simulated end-to-end metric on a workload
// that does not simulate it (recovery time on the error-free matrix, say).
// It is a constant no real measurement produces, so it can never be
// mistaken for one and never moves.
const notModelled = -1

// env is what a workload gets to run with.
type env struct {
	seed   uint64
	budget time.Duration // how long the measured phase should last
	traced bool
	work   string // scratch directory inside the checkout
}

// report collects a run's checks and metric values.
type report struct {
	attempted, failed int
	problems          []string
	values            map[string]float64
}

// check counts one checked operation and records it as failed unless ok.
func (r *report) check(ok bool, format string, a ...any) {
	failed := 0
	if !ok {
		failed = 1
	}
	r.tally(1, failed, format, a...)
}

// tally counts n checked operations of which failed failed, described by
// the format.
func (r *report) tally(n, failed int, format string, a ...any) {
	r.attempted += n
	r.failed += failed
	if failed > 0 && len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, a...))
	}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

var workloads = map[string]func(*env, *report) error{
	"errorfree": runErrorFree,
	"faults":    runFaults,
	"serve":     runServe,
}

func main() {
	name := flag.String("workload", "", "workload to run: errorfree, faults or serve")
	seed := flag.Uint64("seed", 1, "input seed (faults victim node, serve request order)")
	seconds := flag.Float64("seconds", 30, "length of the measured phase in seconds")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload errorfree|faults|serve --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	// The benchmark's contract is a 2-CPU box; pin the scheduler to it so
	// a bigger host measures the same thing.
	runtime.GOMAXPROCS(2)

	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fatal(err)
	}
	work, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fatal(err)
	}
	e := &env{
		seed:   *seed,
		budget: time.Duration(*seconds * float64(time.Second)),
		traced: *traceFlag == 1,
		work:   work,
	}
	r := &report{values: map[string]float64{}}
	err = run(e, r)
	if rmErr := os.RemoveAll(work); err == nil {
		err = rmErr
	}
	if err != nil {
		fatal(err)
	}
	line, err := result(r, e.traced)
	if err != nil {
		fatal(err)
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "check failed:", p)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// result renders the final JSON line: every end-to-end metric of an
// untraced run, or every per-layer metric of a traced one. A per-layer
// metric the workload does not exercise reads 0.
func result(r *report, traced bool) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	specs := endToEnd
	if traced {
		specs = perLayer()
	}
	metrics := make(map[string]value, len(specs))
	for _, m := range specs {
		v, ok := r.values[m.name]
		if !ok && !traced {
			return nil, fmt.Errorf("workload did not report %s", m.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", m.name, v)
		}
		metrics[m.name] = value{v, m.unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, metrics})
}

// timeSetup runs a workload's set-up reps times and returns the median
// duration in seconds. The first repetition is timed from process start.
func timeSetup(reps int, setup func() error) (float64, error) {
	var ds []float64
	for i := 0; i < reps; i++ {
		start := time.Now()
		if i == 0 {
			start = processStart
		}
		if err := setup(); err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		ds = append(ds, time.Since(start).Seconds())
	}
	return quantile(ds, 0.5), nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// resetPeakRSS restarts the kernel's resident-set high-water mark
// (VmHWM), so the next peakRSSMB covers only what follows.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// setCommon records the end-to-end metrics every workload reports the
// same way.
func setCommon(r *report, setup, rssMB float64) {
	r.set("setup_s", setup)
	r.set("peak_rss_mb", rssMB)
}

// pass is one timed repetition of a workload's unit of work.
type pass struct {
	wall   time.Duration
	peakMB float64 // resident-set high-water mark during the pass
}

// timePasses calls run and times each call. It makes at least atLeast
// calls, and as many as fit the budget at the first call's pace, so the
// count does not hinge on where the budget's end falls within a pass.
func timePasses(budget time.Duration, atLeast int, run func() error) ([]pass, error) {
	var passes []pass
	for len(passes) < atLeast {
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		t := time.Now()
		if err := run(); err != nil {
			return nil, err
		}
		wall := time.Since(t)
		peak, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		passes = append(passes, pass{wall, peak})
		if len(passes) == 1 {
			atLeast = max(atLeast, int(math.Round(float64(budget)/float64(wall))))
		}
	}
	return passes, nil
}

func medianWall(passes []pass) float64 {
	ws := make([]float64, len(passes))
	for i, p := range passes {
		ws[i] = p.wall.Seconds()
	}
	return quantile(ws, 0.5)
}

// setCellMetrics records the host-side end-to-end metrics of a workload
// made of passes over the same cells; times[p][c] is cell c's host time in
// pass p. The host's speed swings by up to a quarter on a ten-second scale,
// so each cell counts at its fastest repetition in the run: wall_s sums
// them and hit_p50_ms and hit_p99_ms are percentiles over them, while
// cold_p50_ms is the median cell of the first pass. peak_rss_mb is the
// median pass's resident-set peak.
func setCellMetrics(r *report, setup float64, passes []pass, times [][]time.Duration) {
	var peaks []float64
	for _, p := range passes {
		peaks = append(peaks, p.peakMB)
	}
	setCommon(r, setup, quantile(peaks, 0.5))
	var wall float64
	var cold, best []float64
	for c, first := range times[0] {
		fastest := first
		for _, pass := range times[1:] {
			fastest = min(fastest, pass[c])
		}
		wall += fastest.Seconds()
		cold = append(cold, ms(first))
		best = append(best, ms(fastest))
	}
	r.set("wall_s", wall)
	r.set("cold_p50_ms", quantile(cold, 0.5))
	r.set("hit_p50_ms", quantile(best, 0.5))
	r.set("hit_p99_ms", quantile(best, 0.99))
}

// scratchDir makes a fresh directory under the run's scratch area.
func (e *env) scratchDir(prefix string) (string, error) {
	return os.MkdirTemp(e.work, prefix)
}

// profilePath is where a traced run writes its CPU profile.
func (e *env) profilePath() string { return filepath.Join(e.work, "cpu.pprof") }

// victim is the node the faults workload injects on: the seed picks it.
func (e *env) victim(nodes int) int { return int(e.seed % uint64(nodes)) }
