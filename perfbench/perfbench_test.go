package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"revive"
)

// TestBenchmarkJSONMatchesMetricTables pins BENCHMARK.json to the metric
// tables the benchmark prints: same workloads, same metric names, units
// and order.
func TestBenchmarkJSONMatchesMetricTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var known []string
	for name := range workloads {
		known = append(known, name)
	}
	sort.Strings(names)
	sort.Strings(known)
	if fmt.Sprint(names) != fmt.Sprint(known) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, known)
	}
	compare := func(kind string, got []struct{ Name, Unit string }, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, benchmark prints %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), benchmark prints %s (%s)",
					kind, i, got[i].Name, got[i].Unit, m.name, m.unit)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd)
	compare("per_layer", spec.PerLayer, perLayer())
}

func TestResultListsEveryMetric(t *testing.T) {
	r := &report{values: map[string]float64{"setup_s": 1}}
	r.check(true, "ok")
	if _, err := result(r, false); err == nil {
		t.Error("an untraced result missing end-to-end metrics was accepted")
	}
	line, err := result(r, true)
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Correct bool
		Metrics map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal(line, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Correct || len(out.Metrics) != len(perLayer()) {
		t.Errorf("traced result: correct=%v with %d metrics, want true with %d",
			out.Correct, len(out.Metrics), len(perLayer()))
	}
}

func TestBucketOf(t *testing.T) {
	known := map[string]bool{}
	for _, p := range layerPkgs {
		known[p] = true
	}
	for _, c := range []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.mallocgc", "revive/internal/cache.(*Cache).Insert", "revive/internal/coherence.(*CacheCtrl).fill"}, "cache"},
		{[]string{"revive/internal/stats.(*Stats).Net", "revive/internal/network.(*Network).send"}, "network"},
		{[]string{"revive/internal/sim.(*Engine).Step.func1"}, "sim"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"net/http.(*conn).serve", "main.post"}, "other"},
	} {
		if got := bucketOf(c.frames, known); got != c.want {
			t.Errorf("bucketOf(%v) = %s, want %s", c.frames, got, c.want)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := quantile(xs, 0.5); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(xs, 0); got != 1 {
		t.Errorf("min = %v, want 1", got)
	}
	if xs[0] != 4 {
		t.Error("quantile reordered its input")
	}
}

// reviveBench runs the repository's own experiment CLI and returns its
// standard output.
func reviveBench(t *testing.T, args ...string) string {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, "go", append([]string{"run", "revive/cmd/revive-bench"}, args...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("revive-bench %v: %v\n%s", args, err, stderr.String())
	}
	return string(out)
}

// rows returns the whitespace-separated fields of the output lines that
// start with one of the apps, by app.
func rows(out string, apps []string) map[string][]string {
	got := map[string][]string{}
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		for _, a := range apps {
			if len(f) > 0 && f[0] == a {
				got[a] = f
			}
		}
	}
	return got
}

// TestSimOverheadMatchesReviveBench: sim_overhead_pct is the mean of the
// Cp10ms column of revive-bench's Figure 8 over the same four apps.
func TestSimOverheadMatchesReviveBench(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the Quick error-free matrix twice")
	}
	out := reviveBench(t, "-quick", "-fig", "8", "-apps", strings.Join(errorfreeApps, ","), "-j", "1")
	byApp := rows(out, errorfreeApps)
	var sum float64
	for _, a := range errorfreeApps {
		f := byApp[a]
		if len(f) < 2 {
			t.Fatalf("no Figure 8 row for %s in:\n%s", a, out)
		}
		v, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		if err != nil {
			t.Fatal(err)
		}
		sum += v
	}
	apps, err := resolveApps(quickOptions(), errorfreeApps)
	if err != nil {
		t.Fatal(err)
	}
	_, results := errorfreePass(quickOptions(), apps)
	got, want := cpOverheadPct(results), sum/float64(len(errorfreeApps))
	// revive-bench prints one decimal per app.
	if d := got - want; d > 0.05 || d < -0.05 {
		t.Errorf("sim_overhead_pct = %.3f, revive-bench Figure 8 Cp10ms mean = %.3f", got, want)
	}
}

// TestFaultsMatchReviveBench: with the seed that picks node 5, the faults
// workload's node-loss recoveries reproduce revive-bench's Figure 12 rows.
func TestFaultsMatchReviveBench(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the Figure 12 recovery study")
	}
	e := &env{seed: 5}
	o := quickOptions()
	o.Verify = true
	victim := e.victim(revive.EvalConfig(o).Nodes)
	if victim != 5 {
		t.Fatalf("seed 5 picks node %d, want 5", victim)
	}
	out := reviveBench(t, "-quick", "-fig", "12", "-apps", strings.Join(faultApps, ","), "-j", "1")
	byApp := rows(out, faultApps)
	apps, err := resolveApps(o, faultApps)
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range apps {
		r := &report{values: map[string]float64{}}
		c, err := runFaultCell(r, o, app, "node-loss", revive.NodeID(victim))
		if err != nil {
			t.Fatal(err)
		}
		if r.failed != 0 {
			t.Errorf("%s: %v", app.Label, r.problems)
		}
		f := byApp[app.Label]
		if len(f) < 3 {
			t.Fatalf("no Figure 12 row for %s in:\n%s", app.Label, out)
		}
		p2 := fmt.Sprintf("%.1fus", float64(c.rep.Phase2)/1000)
		p3 := fmt.Sprintf("%.1fus", float64(c.rep.Phase3)/1000)
		if p2 != f[1] || p3 != f[2] {
			t.Errorf("%s: Phase 2/3 = %s/%s, revive-bench Figure 12 = %s/%s", app.Label, p2, p3, f[1], f[2])
		}
	}
}
