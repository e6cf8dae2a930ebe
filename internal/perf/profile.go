// Package perf holds the CLIs' offline profiling hook: revive-bench and
// revive-sim take -cpuprofile/-memprofile and write standard pprof files
// through StartProfiles. revive-serve started with -pprof additionally
// mounts net/http/pprof under /debug/pprof/ for live CPU, heap, goroutine
// and block profiles of the running daemon. Host-time measurement lives in
// the standalone perfbench module.
package perf

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// StartProfiles begins CPU profiling to cpuPath (when non-empty) and
// arranges a heap profile to memPath (when non-empty). It returns a stop
// function that finishes both; callers must invoke it on every exit path
// explicitly — os.Exit skips deferred calls, so a plain defer silently
// truncates the CPU profile on error exits. The stop function is
// idempotent.
func StartProfiles(cpuPath, memPath string) (stop func(), err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	stopped := false
	return func() {
		if stopped {
			return
		}
		stopped = true
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "cpu profile:", err)
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "heap profile:", err)
				return
			}
			runtime.GC() // profile reachable memory, not GC timing noise
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "heap profile:", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "heap profile:", err)
			}
		}
	}, nil
}
