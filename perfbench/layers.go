package main

import (
	"fmt"
	"runtime"
	"time"

	"revive"
	"revive/internal/arch"
	"revive/internal/cache"
	"revive/internal/network"
	"revive/internal/sim"
	"revive/internal/stats"
)

// layerPkgs are the cpu_share buckets: the simulator's layers, the serving
// layer, background GC, and everything else (the facade, the benchmark's
// own code, HTTP clients, runtime work no layer frame caused).
var layerPkgs = []string{
	"sim", "cache", "coherence", "core", "mem", "network", "arch", "proc",
	"workload", "machine", "serve", "gc", "other",
}

// trafficClasses are the Figure 9/10 classes, named as metric suffixes.
var trafficClasses = []struct {
	name  string
	class stats.Class
}{
	{"rd_rdx", stats.ClassRead},
	{"exewb", stats.ClassExeWB},
	{"ckpwb", stats.ClassCkpWB},
	{"log", stats.ClassLog},
	{"par", stats.ClassParity},
}

// callProbes are the per-call measurements: name prefix -> ns metric and
// allocs metric names.
var callProbes = []struct{ ns, allocs string }{
	{"sim.event_ns.wheel", "sim.event_allocs.wheel"},
	{"sim.event_ns.overflow", "sim.event_allocs.overflow"},
	{"cache.lookup_ns", "cache.lookup_allocs"},
	{"cache.insert_ns", "cache.insert_allocs"},
	{"mem.rmw_ns", "mem.rmw_allocs"},
	{"network.send_ns", "network.send_allocs"},
	{"arch.parity_xor_ns", "arch.parity_xor_allocs"},
	{"core.wb_ns", "core.wb_allocs"},
}

// perLayer lists the metrics of a traced run, in BENCHMARK.json order.
func perLayer() []metric {
	var out []metric
	add := func(name, unit string) { out = append(out, metric{name, unit}) }
	for _, p := range layerPkgs {
		add("cpu_share."+p, "%")
	}
	for _, v := range revive.Variants {
		add("errorfree.host_s."+string(v), "s")
	}
	for _, a := range errorfreeApps {
		add("errorfree.host_s."+a, "s")
	}
	add("proc.sim_mips", "MIPS")
	add("sim.host_ns_per_event", "ns")
	for _, p := range callProbes {
		add(p.ns, "ns")
		add(p.allocs, "allocs/op")
	}
	add("machine.prefault_s", "s")
	add("machine.recover_ms", "ms")
	add("machine.verify_ms", "ms")
	add("cache.l1_miss_pct", "%")
	add("cache.l2_miss_pct", "%")
	for _, c := range trafficClasses {
		add("mem.acc_per_kinstr."+c.name, "count")
	}
	for _, c := range trafficClasses {
		add("network.bytes_per_instr."+c.name, "B")
	}
	add("core.log_peak_kb", "KB")
	add("core.ckpt_flush_us", "sim_us")
	add("recovery.phase2_us", "sim_us")
	add("recovery.phase3_us", "sim_us")
	add("recovery.entries_restored", "count")
	add("recovery.pages_rebuilt", "count")
	add("serve.journal_append_us", "us")
	add("serve.fsync_p50_us", "us")
	add("serve.cache_get_us", "us")
	add("serve.canonicalize_us", "us")
	add("serve.restart_ms", "ms")
	add("gc.alloc_mb", "MB")
	add("gc.mallocs_k", "count")
	add("gc.cpu_pct", "%")
	add("trace_overhead_pct", "%")
	return out
}

// simCounts aggregates the simulated counters of a workload's ReVive
// simulations into the per-layer simulated metrics. They are deterministic:
// they move only when the model changes.
type simCounts struct {
	instr, l1Hits, l1Misses, l2Hits, l2Misses uint64
	mem, net                                  [stats.NumClasses]uint64
	flush                                     revive.Time
	ckpts                                     int
	radixLogPeak                              uint64
}

func (c *simCounts) add(app string, st *revive.Stats) {
	c.instr += st.Instructions
	c.l1Hits += st.L1Hits
	c.l1Misses += st.L1Misses
	c.l2Hits += st.L2Hits
	c.l2Misses += st.L2Misses
	for i := range c.mem {
		c.mem[i] += st.MemAccesses[i]
		c.net[i] += st.NetBytes[i]
	}
	c.flush += st.CkpFlushTime
	c.ckpts += st.Checkpoints
	if app == "Radix" && st.LogBytesPeak > c.radixLogPeak {
		c.radixLogPeak = st.LogBytesPeak
	}
}

func (c *simCounts) report(r *report) {
	pct := func(a, b uint64) float64 { return 100 * float64(a) / float64(max(a+b, 1)) }
	r.set("cache.l1_miss_pct", pct(c.l1Misses, c.l1Hits))
	r.set("cache.l2_miss_pct", pct(c.l2Misses, c.l2Hits))
	instr := float64(max(c.instr, 1))
	for _, tc := range trafficClasses {
		r.set("mem.acc_per_kinstr."+tc.name, 1000*float64(c.mem[tc.class])/instr)
		r.set("network.bytes_per_instr."+tc.name, float64(c.net[tc.class])/instr)
	}
	r.set("core.log_peak_kb", float64(c.radixLogPeak)/1024)
	if c.ckpts > 0 {
		r.set("core.ckpt_flush_us", float64(c.flush)/float64(c.ckpts)/1000)
	}
}

// cost is one per-call measurement.
type cost struct{ ns, allocs float64 }

// measureCall times op, which performs n calls, in batches until budget
// has passed (at least three batches), and returns the median ns per call
// and the mean heap allocations per call.
func measureCall(budget time.Duration, n int, op func(n int)) cost {
	op(n) // warm caches and grow any reused buffers
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var samples []float64
	calls := 0
	start := time.Now()
	for len(samples) < 3 || time.Since(start) < budget {
		t := time.Now()
		op(n)
		samples = append(samples, float64(time.Since(t).Nanoseconds())/float64(n))
		calls += n
	}
	runtime.ReadMemStats(&after)
	return cost{quantile(samples, 0.5), float64(after.Mallocs-before.Mallocs) / float64(calls)}
}

// probeBudget is the timing budget of each per-call measurement.
const probeBudget = 250 * time.Millisecond

// probeCalls measures each layer's exported calls in isolation, the
// serving layer's calls, and the simulator's host cost per event. The
// results do not depend on the workload, so every traced run reports them.
func probeCalls(e *env, r *report) error {
	if err := probeServe(e, r); err != nil {
		return fmt.Errorf("serve probe: %w", err)
	}
	set := func(i int, c cost) {
		r.set(callProbes[i].ns, c.ns)
		r.set(callProbes[i].allocs, c.allocs)
	}
	set(0, probeEvents(1, 500))         // inside the timing wheel
	set(1, probeEvents(20_000, 40_000)) // beyond the wheel window: the overflow heap
	lookup, insert := probeCache()
	set(2, lookup)
	set(3, insert)

	// DRAM and torus calls run on the components of an assembled machine,
	// so they see the evaluation regime's configuration.
	o := revive.Options{Quick: true, Parallelism: 1}
	m := revive.New(revive.EvalConfig(o))
	memory := m.Mems[0]
	set(4, measure(4096, func(i int) {
		memory.ReadModifyWrite(uint64(i%4096)*arch.LineBytes, xorOne, nil)
	}))
	set(5, probeSend(m))
	var a, b arch.Data
	b[7] = 1
	set(6, measure(1<<16, func(int) { a.XOR(&b) }))
	wb, err := probeWriteBack()
	if err != nil {
		return err
	}
	set(7, wb)
	perEvent, err := probeHostPerEvent()
	if err != nil {
		return err
	}
	r.set("sim.host_ns_per_event", perEvent)
	return nil
}

func xorOne(d *arch.Data) { d[0] ^= 1 }

// measure adapts a per-call body to measureCall.
func measure(n int, call func(i int)) cost {
	return measureCall(probeBudget, n, func(n int) {
		for i := 0; i < n; i++ {
			call(i)
		}
	})
}

// probeEvents measures one schedule-and-dispatch through Engine.At and
// Engine.Step with 64 events outstanding, each rescheduling itself delay
// to delay+spread nanoseconds ahead.
func probeEvents(delay, spread int) cost {
	e := sim.NewEngine()
	k := 0
	var fn func()
	fn = func() {
		k++
		e.At(e.Now()+sim.Time(delay+(k*7919)%spread), fn)
	}
	for i := 0; i < 64; i++ {
		e.At(sim.Time(i), fn)
	}
	return measureCall(probeBudget, 4096, func(n int) {
		for i := 0; i < n; i++ {
			e.Step()
		}
	})
}

// probeCache measures Lookup (three hits to one miss) and Insert (always
// evicting) on an L2 of the evaluation regime's size.
func probeCache() (lookup, insert cost) {
	cfg := cache.L2Default()
	cfg.SizeBytes = 32 * 1024
	c := cache.New(sim.NewEngine(), cfg)
	lines := cfg.SizeBytes / arch.LineBytes
	for i := 0; i < lines; i++ {
		c.Insert(arch.LineAddr(i), cache.Shared, arch.Data{})
	}
	lookup = measure(4096, func(i int) {
		addr := (i * 131) % lines
		if i%4 == 3 {
			addr += lines // not resident
		}
		c.Lookup(arch.LineAddr(addr))
	})
	next := lines
	insert = measureCall(probeBudget, 4096, func(n int) {
		for i := 0; i < n; i++ {
			c.Insert(arch.LineAddr(next), cache.Shared, arch.Data{})
			next++
		}
	})
	return lookup, insert
}

// probeSend measures Network.Send between every ordered pair of distinct
// nodes of the 4x4 torus, including dispatch of the delivery event.
func probeSend(m *revive.Machine) cost {
	nodes := m.Cfg.Nodes
	deliver := func() {}
	k := 0
	return measureCall(probeBudget, 4096, func(n int) {
		for i := 0; i < n; i++ {
			src := k % nodes
			dst := (src + 1 + (k/nodes)%(nodes-1)) % nodes
			k++
			m.Net.Send(network.Message{Src: arch.NodeID(src), Dst: arch.NodeID(dst),
				Bytes: 72, Class: stats.ClassRead, Deliver: deliver})
		}
		for m.Engine.Step() {
		}
	})
}

// wbStream is the Table 1 write-back-heavy profile: nearly every memory
// operation is a store, so almost every line leaves the caches dirty.
var wbStream = revive.Profile{
	Label: "wb-stream", InstrPerProc: 40_000, MemOpsPer1000: 350,
	HotLines: 64, HotWriteFrac: 0.9,
	ColdFrac: 0.05, ColdLines: 32768, ColdWriteFrac: 0.9,
}

// probeWriteBack runs wb-stream on an 8-node ReVive machine three times and
// returns the median host ns and mean allocations per write-back (each one
// a log append plus a parity update).
func probeWriteBack() (cost, error) {
	o := revive.Options{Quick: true, Nodes: 8, Parallelism: 1}
	var samples []float64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var wbs uint64
	for i := 0; i < 3; i++ {
		start := time.Now()
		m := revive.New(revive.EvalConfig(o))
		m.Load(wbStream)
		st := m.Run()
		n := st.MemAccesses[stats.ClassExeWB] + st.MemAccesses[stats.ClassCkpWB]
		if n == 0 {
			return cost{}, fmt.Errorf("wb-stream produced no write-backs")
		}
		samples = append(samples, float64(time.Since(start).Nanoseconds())/float64(n))
		wbs += n
	}
	runtime.ReadMemStats(&after)
	return cost{quantile(samples, 0.5), float64(after.Mallocs-before.Mallocs) / float64(wbs)}, nil
}

// probeHostPerEvent runs one Cp10ms FFT cell of the error-free matrix three
// times and returns the median host ns per simulated event.
func probeHostPerEvent() (float64, error) {
	o := revive.Options{Quick: true, Parallelism: 1}
	app, ok := revive.AppByName("FFT", o)
	if !ok {
		return 0, fmt.Errorf("application FFT missing")
	}
	var samples []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		m := revive.New(revive.EvalConfig(o))
		m.Load(app)
		m.Run()
		samples = append(samples, float64(time.Since(start).Nanoseconds())/float64(m.Engine.Steps()))
	}
	return quantile(samples, 0.5), nil
}
