package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"time"
)

// tracer is the traced half of a traced run: a CPU profile plus the Go
// runtime's allocation and GC-CPU counters, taken around the workload's
// traced passes.
type tracer struct {
	path   string
	file   *os.File
	mem0   runtime.MemStats
	cpu0   cpuSample
	active bool
}

// cpuSample is a reading of the runtime's CPU-time accounting.
type cpuSample struct{ gc, total, idle float64 }

func readCPU() cpuSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return cpuSample{s[0].Value.Float64(), s[1].Value.Float64(), s[2].Value.Float64()}
}

func startTrace(path string) (*tracer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	t := &tracer{path: path, file: f}
	runtime.GC()
	runtime.ReadMemStats(&t.mem0)
	t.cpu0 = readCPU()
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("start CPU profile: %w", err)
	}
	t.active = true
	return t, nil
}

// stop ends the profile, records the gc.* metrics and folds the profile
// into cpu_share.*. The shares must sum to 100%; a fold that does not is a
// failed check.
func (t *tracer) stop(r *report) error {
	pprof.StopCPUProfile()
	t.active = false
	cpu1 := readCPU()
	var mem1 runtime.MemStats
	runtime.ReadMemStats(&mem1)
	if err := t.file.Close(); err != nil {
		return err
	}
	r.set("gc.alloc_mb", float64(mem1.TotalAlloc-t.mem0.TotalAlloc)/(1<<20))
	r.set("gc.mallocs_k", float64(mem1.Mallocs-t.mem0.Mallocs)/1000)
	if busy := (cpu1.total - t.cpu0.total) - (cpu1.idle - t.cpu0.idle); busy > 0 {
		r.set("gc.cpu_pct", 100*(cpu1.gc-t.cpu0.gc)/busy)
	}

	shares, err := foldProfile(t.path)
	if err != nil {
		return err
	}
	var sum float64
	for _, p := range layerPkgs {
		r.set("cpu_share."+p, shares[p])
		sum += shares[p]
	}
	r.check(sum > 99 && sum < 101, "cpu_share sums to %.3f%%, not 100%%", sum)
	return nil
}

// close stops an unfinished profile on an error path.
func (t *tracer) close() {
	if t != nil && t.active {
		pprof.StopCPUProfile()
		t.file.Close()
		t.active = false
	}
}

// foldProfile attributes every CPU-profile sample to the innermost
// revive/internal/<layer> frame of its stack, so runtime and allocator time
// counts against the layer that caused it. Stacks with no such frame go to
// gc when they are background GC work, and to other otherwise. It returns
// each bucket's percentage of all samples. Only the toolchain's own
// `go tool pprof` reads the profile.
func foldProfile(path string) (map[string]float64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, "go", "tool", "pprof", "-traces", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, strings.TrimSpace(stderr.String()))
	}
	known := map[string]bool{}
	for _, p := range layerPkgs {
		known[p] = true
	}
	ns := map[string]float64{}
	var total float64
	var value float64
	var frames []string
	flush := func() {
		if frames == nil {
			return
		}
		b := bucketOf(frames, known)
		ns[b] += value
		total += value
		frames = nil
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if frames == nil {
			// The first line of a sample block: "<value> <leaf frame>".
			d, err := time.ParseDuration(fields[0])
			if err != nil || len(fields) < 2 {
				continue // header lines (File:, Type:, Duration: ...)
			}
			value = float64(d)
			frames = []string{fields[1]}
			continue
		}
		frames = append(frames, fields[0])
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if total == 0 {
		return nil, fmt.Errorf("CPU profile %s holds no samples", path)
	}
	shares := map[string]float64{}
	for b, v := range ns {
		shares[b] = 100 * v / total
	}
	return shares, nil
}

// bucketOf names the cpu_share bucket of one stack, leaf first.
func bucketOf(frames []string, known map[string]bool) string {
	const prefix = "revive/internal/"
	for _, f := range frames {
		if !strings.HasPrefix(f, prefix) {
			continue
		}
		pkg := f[len(prefix):]
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		if known[pkg] {
			return pkg
		}
		// A helper package (stats, trace, obs, sweep ...) counts against
		// the layer that called it.
	}
	for _, f := range frames {
		if strings.HasPrefix(f, "runtime.gcBgMarkWorker") {
			return "gc"
		}
	}
	return "other"
}
