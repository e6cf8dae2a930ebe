package revive

// One benchmark per registry entry, plus the Table 1 event microbenchmark
// and the DESIGN.md section 5 ablations. Each iteration regenerates its
// experiment at the Quick scale (reduced instruction budgets);
// `cmd/revive-bench -all` produces the full-scale numbers recorded in
// EXPERIMENTS.md. Where a single scalar summarizes a result it is printed
// via b.ReportMetric.

import (
	"fmt"
	"io"
	"testing"
)

// benchApps is a 4-app subset spanning the paper's behaviour range: the
// best case (Water-Sp), a mid-range app (Barnes), and the two outliers
// (FFT for checkpoint cost, Radix for log size and miss rate).
func benchApps(b *testing.B, o Options) []App {
	b.Helper()
	var apps []App
	for _, name := range []string{"Water-Sp", "Barnes", "FFT", "Radix"} {
		a, ok := AppByName(name, o)
		if !ok {
			b.Fatalf("app %s missing", name)
		}
		apps = append(apps, a)
	}
	return apps
}

// BenchmarkExperiments regenerates every registry entry on benchApps, one
// sub-benchmark per entry. Each iteration starts a fresh Session, so it
// pays for every sweep its experiment reads.
func BenchmarkExperiments(b *testing.B) {
	o := Options{Quick: true}
	apps := benchApps(b, o)
	for _, e := range Experiments {
		b.Run(e.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e.Write(io.Discard, &Session{Options: o, Apps: apps})
			}
		})
	}
}

// BenchmarkTable1Events measures the per-event cost of the three Table 1
// event classes via a microbenchmark machine (the exact access counts are
// asserted in internal/machine's Table 1 tests).
func BenchmarkTable1Events(b *testing.B) {
	o := Options{Quick: true, Nodes: 8}
	prof := Profile{
		Label: "wb-stream", InstrPerProc: 40_000, MemOpsPer1000: 350,
		HotLines: 64, HotWriteFrac: 0.9,
		ColdFrac: 0.05, ColdLines: 32768, ColdWriteFrac: 0.9,
	}
	for i := 0; i < b.N; i++ {
		m := New(EvalConfig(o))
		m.Load(prof)
		st := m.Run()
		b.ReportMetric(float64(st.MemAccesses[4])/float64(st.MemAccesses[1]+st.MemAccesses[2]+1),
			"parity-acc-per-wb")
	}
}

// --- ablation benches (DESIGN.md section 5) ---

// BenchmarkAblationLBit compares log traffic with and without the Logged
// bit (section 4.1.2: the L bit is an optimization, not needed for
// correctness).
func BenchmarkAblationLBit(b *testing.B) {
	o := Options{Quick: true}
	app, _ := AppByName("FFT", o)
	for i := 0; i < b.N; i++ {
		withBit := New(EvalConfig(o))
		withBit.Load(app)
		stWith := withBit.Run()

		cfg := EvalConfig(o)
		cfg.DisableLBits = true
		without := New(cfg)
		without.Load(app)
		stWithout := without.Run()
		b.ReportMetric(float64(stWithout.MemAccesses[3])/float64(stWith.MemAccesses[3]),
			"log-traffic-ratio")
	}
}

// BenchmarkAblationEagerLog compares execution time with and without
// logging on read-exclusive/upgrade (the acknowledged optimization: eager
// logging keeps the write-back acknowledgment off the log's critical path).
func BenchmarkAblationEagerLog(b *testing.B) {
	o := Options{Quick: true}
	app, _ := AppByName("Radix", o)
	for i := 0; i < b.N; i++ {
		eager := New(EvalConfig(o))
		eager.Load(app)
		stEager := eager.Run()

		cfg := EvalConfig(o)
		cfg.DisableEagerLog = true
		lazy := New(cfg)
		lazy.Load(app)
		stLazy := lazy.Run()
		b.ReportMetric(100*(float64(stLazy.ExecTime)/float64(stEager.ExecTime)-1),
			"lazy-slowdown-%")
	}
}

// BenchmarkAblationGroupSize sweeps the parity group size (section 6.2's
// memory/performance/recovery trade-off).
func BenchmarkAblationGroupSize(b *testing.B) {
	app := "FFT"
	for _, gs := range []int{2, 4, 8, 16} {
		gs := gs
		b.Run(groupName(gs), func(b *testing.B) {
			o := Options{Quick: true, GroupSize: gs}
			a, _ := AppByName(app, o)
			for i := 0; i < b.N; i++ {
				m := New(EvalConfig(o))
				m.Load(a)
				st := m.Run()
				b.ReportMetric(float64(st.ExecTime)/1000, "exec-us")
			}
		})
	}
}

func groupName(gs int) string {
	if gs == 2 {
		return "mirror"
	}
	return fmt.Sprintf("%d+1", gs-1)
}

// BenchmarkAblationParityPlacement compares the paper's distributed parity
// against Plank-style dedicated parity nodes (section 3.1: distribution
// "avoids possible bottlenecks in the parity node(s)").
func BenchmarkAblationParityPlacement(b *testing.B) {
	for _, dedicated := range []bool{false, true} {
		dedicated := dedicated
		name := "distributed"
		if dedicated {
			name = "dedicated"
		}
		b.Run(name, func(b *testing.B) {
			o := Options{Quick: true, DedicatedParity: dedicated}
			app, _ := AppByName("Ocean", o)
			for i := 0; i < b.N; i++ {
				m := New(EvalConfig(o))
				m.Load(app)
				st := m.Run()
				b.ReportMetric(float64(st.ExecTime)/1000, "exec-us")
			}
		})
	}
}

// BenchmarkAblationHybridProtection measures the sections 6.1/8 hybrid:
// a mirrored hot region over a 7+1 parity remainder, against both pure
// organizations.
func BenchmarkAblationHybridProtection(b *testing.B) {
	cases := []struct {
		name         string
		groupSize    int
		mirrorFrames int
	}{
		{"parity7+1", 8, 0},
		{"hybrid", 8, 64},
		{"mirror", 2, 0},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			o := Options{Quick: true, GroupSize: c.groupSize, MirrorFrames: c.mirrorFrames}
			app, _ := AppByName("FFT", o)
			for i := 0; i < b.N; i++ {
				m := New(EvalConfig(o))
				m.Load(app)
				st := m.Run()
				b.ReportMetric(float64(st.ExecTime)/1000, "exec-us")
			}
		})
	}
}

// BenchmarkAblationCheckpointInterval sweeps the checkpoint interval
// (section 6.1: overhead falls as the interval grows).
func BenchmarkAblationCheckpointInterval(b *testing.B) {
	intervals := []Time{50 * Microsecond, 150 * Microsecond, 400 * Microsecond}
	o := Options{Quick: true}
	app, _ := AppByName("FFT", o)
	for _, iv := range intervals {
		iv := iv
		b.Run(fmt.Sprintf("%dus", iv/Microsecond), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := EvalConfig(o)
				cfg.Checkpoint.Interval = iv
				m := New(cfg)
				m.Load(app)
				st := m.Run()
				b.ReportMetric(float64(st.ExecTime)/1000, "exec-us")
			}
		})
	}
}
