package coherence

import (
	"testing"

	"revive/internal/arch"
)

// Steady-state allocation pins for the protocol paths. Each test warms its
// cycle up for several thousand iterations — long enough for the record
// free lists to fill and for every timing-wheel bucket the cycle touches to
// have its backing array — and then requires zero allocations per cycle.

// warm runs cycle n times, then returns its steady-state allocations.
func warm(n int, cycle func()) float64 {
	for i := 0; i < n; i++ {
		cycle()
	}
	return testing.AllocsPerRun(1000, cycle)
}

// An L2-hit load whose L1 victim is dirty: five Modified lines share one L1
// set (four ways), so loading them round-robin always misses L1, hits L2,
// and evicts a dirty L1 line that merges back into L2.
func TestL2HitDirtyVictimZeroAlloc(t *testing.T) {
	c := newCluster(2)
	noop := func() {}
	var lines [5]arch.Addr
	for i := range lines {
		lines[i] = addrOnPage(1+i, 0, 0) // line = page*64: same L1 set
		c.caches[0].Store(lines[i], uint64(i+1), noop)
		c.run(t)
	}
	cc := c.caches[0]
	k := 0
	load := func() {
		cc.Load(lines[k%len(lines)], noop)
		k++
		c.engine.Run()
	}
	hits := c.st.L2Hits
	if allocs := warm(4000, load); allocs != 0 {
		t.Fatalf("L2-hit load with a dirty L1 victim allocates %.1f per op, want 0", allocs)
	}
	if got := c.st.L2Hits - hits; got != uint64(k) {
		t.Fatalf("%d of %d loads hit L2", got, k)
	}
	if cc.L1().DirtyCount() != 4 || cc.L2().DirtyCount() != 5 {
		t.Fatalf("dirty lines L1=%d L2=%d, want 4 and 5", cc.L1().DirtyCount(), cc.L2().DirtyCount())
	}
}

// A read miss served from memory: node 1 drops its shared copy (silently,
// as a shared eviction does) and reads the line again from its home.
func TestGETSMissZeroAlloc(t *testing.T) {
	c := newCluster(2)
	a := addrOnPage(1, 3, 0)
	c.load(0, a) // home at node 0
	c.run(t)
	c.load(1, a) // line becomes shared
	c.run(t)
	cc := c.caches[1]
	noop := func() {}
	misses := c.st.L2Misses
	n := 0
	cycle := func() {
		cc.InvalidateAll()
		cc.Load(a, noop)
		c.engine.Run()
		n++
	}
	if allocs := warm(4000, cycle); allocs != 0 {
		t.Fatalf("GETS miss allocates %.1f per op, want 0", allocs)
	}
	if got := c.st.L2Misses - misses; got != uint64(n) {
		t.Fatalf("%d misses in %d cycles", got, n)
	}
	if st, _, _, _ := c.dirs[0].StateOf(a.Line()); st != "shared" {
		t.Fatalf("directory state %s, want shared", st)
	}
}

// sharedByAll makes a line shared by every node of a 4-node cluster (home
// at node 0) and returns it. The first write cycle also invalidates node
// 0; from then on the sharers are nodes 1, 2 and 3.
func sharedByAll(t *testing.T, c *cluster) arch.Addr {
	a := addrOnPage(1, 5, 0)
	for n := 0; n < 4; n++ {
		c.load(n, a)
		c.run(t)
	}
	return a
}

// A read-exclusive that invalidates two sharers. Node 3 drops its shared
// copy so its store misses (GETX, not UPG); nodes 1 and 2 then re-read the
// line, so every cycle finds the same two sharers.
func TestGETXInvalidatesSharersZeroAlloc(t *testing.T) {
	c := newCluster(4)
	a := sharedByAll(t, c)
	noop := func() {}
	v := uint64(0)
	cycle := func() {
		c.caches[3].InvalidateAll()
		v++
		c.caches[3].Store(a, v, noop)
		c.engine.Run()
		c.caches[1].Load(a, noop)
		c.caches[2].Load(a, noop)
		c.engine.Run()
	}
	misses := c.st.L2Misses
	if allocs := warm(3000, cycle); allocs != 0 {
		t.Fatalf("GETX with two sharers allocates %.1f per cycle, want 0", allocs)
	}
	if got := c.st.L2Misses - misses; got != 3*v {
		t.Fatalf("%d misses in %d cycles, want 3 per cycle (GETX and two GETS)", got, v)
	}
	if got := c.memLine(a.Line()); got != lineWith(0, v) {
		t.Fatal("memory does not hold the last store after the sharing write-back")
	}
}

// An upgrade: node 3 holds a shared copy and writes it, invalidating nodes
// 1 and 2, which then re-read the line.
func TestUpgradeZeroAlloc(t *testing.T) {
	c := newCluster(4)
	a := sharedByAll(t, c)
	noop := func() {}
	v := uint64(0)
	cycle := func() {
		v++
		c.caches[3].Store(a, v, noop)
		c.engine.Run()
		c.caches[1].Load(a, noop)
		c.caches[2].Load(a, noop)
		c.engine.Run()
	}
	misses := c.st.L2Misses
	if allocs := warm(3000, cycle); allocs != 0 {
		t.Fatalf("UPG allocates %.1f per cycle, want 0", allocs)
	}
	// Each cycle: two read misses; the store hits L1 and upgrades.
	if got := c.st.L2Misses - misses; got != 2*v {
		t.Fatalf("%d misses in %d cycles, want 2 per cycle", got, v)
	}
}

// A write-back through the directory of the baseline machine (no ReVive
// extension): node 1 dirties a line homed at node 0 and writes it back.
func TestWriteBackZeroAlloc(t *testing.T) {
	c := newCluster(2)
	a := addrOnPage(1, 7, 0)
	c.load(0, a) // home at node 0
	c.run(t)
	noop := func() {}
	v := uint64(0)
	cycle := func() {
		v++
		c.caches[1].Store(a, v, noop)
		c.engine.Run()
		c.caches[1].FlushDirty(noop)
		c.engine.Run()
	}
	if allocs := warm(4000, cycle); allocs != 0 {
		t.Fatalf("write-back allocates %.1f per cycle, want 0", allocs)
	}
	if got := c.memLine(a.Line()); got != lineWith(0, v) {
		t.Fatal("memory does not hold the last write-back")
	}
}

// A checkpoint flush of a warm hierarchy: 48 dirty lines, some dirty in L1
// and all in L2, more than the flush window keeps in flight.
func TestFlushDirtyZeroAlloc(t *testing.T) {
	c := newCluster(2)
	cc := c.caches[0]
	noop := func() {}
	var lines [48]arch.Addr
	for i := range lines {
		lines[i] = addrOnPage(1+i/8, i%8*3, 8)
	}
	v := uint64(0)
	cycle := func() {
		v++
		for _, a := range lines {
			cc.Store(a, v, noop)
			c.engine.Run()
		}
		cc.FlushDirty(noop)
		c.engine.Run()
	}
	cycle()
	if cc.L2().DirtyCount() != 0 {
		t.Fatal("flush left dirty lines")
	}
	if allocs := warm(1000, cycle); allocs != 0 {
		t.Fatalf("FlushDirty of %d lines allocates %.1f per cycle, want 0", len(lines), allocs)
	}
	for _, a := range lines {
		if got := c.memLine(a.Line()); got != lineWith(8, v) {
			t.Fatalf("line %#x not flushed", a.Line())
		}
	}
}
