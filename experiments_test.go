package revive

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the experiment goldens under testdata/")

// TestExperimentGoldens renders the registry through RunExperiments at the
// Quick scale and compares the bytes with the committed goldens: every -all
// entry on all twelve applications (what `revive-bench -quick -all`
// prints), and the two entries outside -all on FFT and Radix. -update
// rewrites both files.
func TestExperimentGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("the Quick -all report plus E19 and E23")
	}
	var all []string
	for _, e := range Experiments {
		if e.All {
			all = append(all, e.Name)
		}
	}
	for _, c := range []struct {
		golden string
		apps   []string // nil: all twelve
		names  []string
	}{
		{"bench_quick_all.golden", nil, all},
		{"bench_quick_fft_radix.golden", []string{"FFT", "Radix"}, []string{"split-domain", "strategy-matrix"}},
	} {
		t.Run(c.golden, func(t *testing.T) {
			t.Parallel()
			o := Options{Quick: true}
			apps := Apps(o)
			if c.apps != nil {
				apps = quickApps(t, c.apps...)
			}
			var got bytes.Buffer
			if err := RunExperiments(&got, &Session{Options: o, Apps: apps}, c.names); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", c.golden)
			if *update {
				if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("%s differs from the Quick run (go test -run Golden -update . rewrites it):\n--- got ---\n%s--- want ---\n%s",
					path, got.Bytes(), want)
			}
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
