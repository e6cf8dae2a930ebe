package core

import (
	"testing"

	"revive/internal/arch"
	"revive/internal/cache"
	"revive/internal/coherence"
	"revive/internal/mem"
	"revive/internal/network"
	"revive/internal/sim"
	"revive/internal/stats"
)

// cachedRig is newCtrlRig with cache controllers and the ReVive extension
// installed at every home: write-backs travel the full path from a cache
// through the directory into the controller.
type cachedRig struct {
	engine *sim.Engine
	amap   *arch.AddressMap
	ctrls  []*Controller
	caches []*coherence.CacheCtrl
}

func newCachedRig() *cachedRig {
	engine := sim.NewEngine()
	st := stats.New()
	tracker := &coherence.Tracker{}
	topo := arch.Topology{Nodes: 8, GroupSize: 8}
	amap := arch.NewAddressMap(topo)
	netCfg := network.DefaultConfig()
	netCfg.DimX, netCfg.DimY = 4, 2
	net := network.MustNew(engine, netCfg, st)
	r := &cachedRig{engine: engine, amap: amap}
	var dirs []*coherence.DirCtrl
	for n := 0; n < 8; n++ {
		m := mem.New(engine, mem.DefaultConfig())
		dirs = append(dirs, coherence.NewDirCtrl(engine, arch.NodeID(n),
			coherence.DefaultDirConfig(), m, net, amap, st, tracker))
		r.caches = append(r.caches, coherence.NewCacheCtrl(engine, arch.NodeID(n),
			cache.L1Default(), cache.L2Default(), coherence.DefaultBusConfig(), net, amap, st, tracker))
	}
	for n := 0; n < 8; n++ {
		r.ctrls = append(r.ctrls, NewController(engine, arch.NodeID(n), topo, amap,
			dirs, net, st, tracker))
	}
	for n := 0; n < 8; n++ {
		dirs[n].SetCaches(r.caches)
		dirs[n].SetExtension(r.ctrls[n])
		r.caches[n].SetDirs(dirs)
		r.ctrls[n].Wire(r.ctrls)
		r.ctrls[n].InitEpoch()
	}
	return r
}

// writeBackCycle has node 1 dirty a line homed at node 2 and write it back
// through the directory (a checkpoint-flush write-back). before runs first
// in every cycle.
func (r *cachedRig) writeBackCycle(t *testing.T, before func()) (cycle func(), line arch.LineAddr) {
	a := arch.PageNum(100).FirstLine().Addr()
	r.amap.TouchLine(a.Line(), 2)
	noop := func() {}
	v := uint64(0)
	cycle = func() {
		before()
		v++
		r.caches[1].Store(a, v, noop)
		r.engine.Run()
		r.caches[1].FlushDirty(noop)
		r.engine.Run()
	}
	cycle()
	return cycle, a.Line()
}

func warm(n int, cycle func()) float64 {
	for i := 0; i < n; i++ {
		cycle()
	}
	return testing.AllocsPerRun(1000, cycle)
}

// A write-back of an already-logged line (Figure 4: data write and parity
// update) through the directory allocates nothing. The first cycle's
// read-exclusive logs the line eagerly (Figure 5(a)) and sets its L bit;
// every later store upgrades the retained clean copy silently, so each
// cycle is one logged write-back.
func TestReviveWriteBackLoggedZeroAlloc(t *testing.T) {
	r := newCachedRig()
	home := r.ctrls[2]
	cycle, line := r.writeBackCycle(t, func() {})
	if !home.Logged(line) {
		t.Fatal("line not logged by its read-exclusive")
	}
	logged := home.Events.WBLogged
	if allocs := warm(4000, cycle); allocs != 0 {
		t.Fatalf("logged write-back allocates %.1f per cycle, want 0", allocs)
	}
	if home.Events.WBLogged-logged < 4000 || home.Events.WBNotLogged != 0 {
		t.Fatalf("events: %d logged, %d not logged", home.Events.WBLogged-logged, home.Events.WBNotLogged)
	}
	if home.PendingDebts() != 0 {
		t.Fatal("ledger not settled")
	}
}

// A write-back of a line not yet logged this interval (Figure 5(b): the
// extra read, the log append with its parity, then the data write and its
// parity) through the directory allocates nothing. Each cycle gang-clears
// the home's L bits first and truncates the log back to the epoch-0
// marker afterwards, as TestAppendLogZeroAlloc does, so the log's own
// growth stays out of the measurement.
func TestReviveWriteBackNotLoggedZeroAlloc(t *testing.T) {
	r := newCachedRig()
	home := r.ctrls[2]
	cycle, _ := r.writeBackCycle(t, func() {
		home.lbits.clear()
		if err := home.log.TruncateAtMarker(0); err != nil {
			t.Fatal(err)
		}
	})
	notLogged := home.Events.WBNotLogged
	if allocs := warm(4000, cycle); allocs != 0 {
		t.Fatalf("Figure 5(b) write-back allocates %.1f per cycle, want 0", allocs)
	}
	if home.Events.WBNotLogged-notLogged < 4000 {
		t.Fatalf("only %d not-yet-logged write-backs", home.Events.WBNotLogged-notLogged)
	}
	if home.PendingDebts() != 0 {
		t.Fatal("ledger not settled")
	}
}
