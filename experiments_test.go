package revive

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"revive/internal/chaos"
)

var update = flag.Bool("update", false, "rewrite the experiment and chaos goldens under testdata/")

// checkGolden compares got with testdata/name, or rewrites the file under
// -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from this run (go test -run Golden -update . rewrites it):\n--- got ---\n%s--- want ---\n%s",
			path, got, want)
	}
}

// TestExperimentGoldens renders the registry through RunExperiments at the
// Quick scale and compares the bytes with the committed goldens: every -all
// entry on all twelve applications (what `revive-bench -quick -all`
// prints), the two entries outside -all on FFT and Radix, and Figure 12
// plus E19 on FFT and Radix under the inline-log backend (its recovery
// path). -update rewrites the files.
func TestExperimentGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("the Quick -all report plus E19, E23 and the inline-log recovery runs")
	}
	var all []string
	for _, e := range Experiments {
		if e.All {
			all = append(all, e.Name)
		}
	}
	for _, c := range []struct {
		golden   string
		apps     []string // nil: all twelve
		strategy string
		names    []string
	}{
		{"bench_quick_all.golden", nil, "", all},
		{"bench_quick_fft_radix.golden", []string{"FFT", "Radix"}, "", []string{"split-domain", "strategy-matrix"}},
		{"bench_quick_inline_log.golden", []string{"FFT", "Radix"}, "inline-log", []string{"figure12", "split-domain"}},
	} {
		t.Run(c.golden, func(t *testing.T) {
			t.Parallel()
			o := Options{Quick: true, Strategy: c.strategy}
			apps := Apps(o)
			if c.apps != nil {
				apps = quickApps(t, c.apps...)
			}
			var got bytes.Buffer
			if err := RunExperiments(&got, &Session{Options: o, Apps: apps}, c.names); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, c.golden, got.Bytes())
		})
	}
}

// TestChaosGoldens runs four 20-campaign seed-42 chaos batches and
// compares each with the stdout of `revive-chaos -campaigns 20 -seed 42
// -v -j 1` plus the batch's flags: the -v campaign lines, then the
// counters and the all-clear line. -update rewrites the files.
func TestChaosGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("four 20-campaign chaos batches")
	}
	for _, c := range []struct {
		golden string
		opts   chaos.Options
	}{
		{"chaos_seed42.golden", chaos.Options{}},
		{"chaos_seed42_split.golden", chaos.Options{CPULoss: true, MemPartial: true}},
		{"chaos_seed42_lossy.golden", chaos.Options{DropProb: 0.01, CorruptProb: 0.001, LinkLoss: true}},
		{"chaos_seed42_inline_log.golden", chaos.Options{Strategy: "inline-log"}},
	} {
		t.Run(c.golden, func(t *testing.T) {
			t.Parallel()
			var got bytes.Buffer
			o := c.opts
			o.Campaigns, o.Seed, o.ShrinkBudget, o.Parallelism = 20, 42, 48, 1
			o.Log = func(f string, a ...any) { fmt.Fprintf(&got, f+"\n", a...) }
			sum := chaos.Run(o)
			if len(sum.Failures) > 0 {
				t.Fatalf("%d campaign(s) failed; first: %v", len(sum.Failures), sum.Failures[0].Outcome.Violations[0])
			}
			fmt.Fprintln(&got, sum.Counters.String())
			fmt.Fprintln(&got, "all campaigns held every invariant")
			checkGolden(t, c.golden, got.Bytes())
		})
	}
}

// TestRunExperimentsRejectsUnknownName: a selection naming an experiment
// the registry lacks fails before any entry runs, even one listed earlier.
func TestRunExperimentsRejectsUnknownName(t *testing.T) {
	var out bytes.Buffer
	err := RunExperiments(&out, &Session{Options: Options{Quick: true}}, []string{"availability", "figure13"})
	if err == nil || !strings.Contains(err.Error(), `"figure13"`) {
		t.Fatalf("err = %v, want an error naming figure13", err)
	}
	if out.Len() != 0 {
		t.Fatalf("wrote %d bytes before rejecting the selection:\n%s", out.Len(), out.String())
	}
}
