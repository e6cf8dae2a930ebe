package core

import (
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"revive/internal/arch"
)

// lineOn is the physical and global address of line off of page, held in
// frame f: the mapping callers produce (one page per frame, the slot offset
// equal to the line's page offset).
func lineOn(f arch.Frame, page arch.PageNum, off int) (arch.PhysLine, arch.LineAddr) {
	return arch.PhysLine{Frame: f, Off: uint8(off)}, page.FirstLine() + arch.LineAddr(off)
}

// White-box: the gang-clear wraps the generation counter. Frame 3 is set in
// generation 1; after the wrap the counter is 1 again, so without the
// physical zeroing the long-dead entry would alias the fresh generation and
// its line would falsely read as logged.
func TestLBitGenerationWraparound(t *testing.T) {
	tb := newLBitTable()
	p3, l3 := lineOn(3, 30, 5)
	tb.set(p3, l3)      // frame 3 written in generation 1
	tb.gen = ^uint64(0) // force the next clear to wrap
	p7, l7 := lineOn(7, 70, 9)
	tb.set(p7, l7)
	if tb.get(p3) {
		t.Fatal("frame set in a stale generation reads as set")
	}
	if !tb.get(p7) {
		t.Fatal("frame set in the current generation reads as clear")
	}
	if tb.frames[3].gen != 1 || tb.frames[7].gen != ^uint64(0) {
		t.Fatalf("frame generations = %d, %d; want 1, %d", tb.frames[3].gen, tb.frames[7].gen, ^uint64(0))
	}
	tb.clear()
	if tb.gen != 1 {
		t.Fatalf("generation after wraparound = %d, want 1", tb.gen)
	}
	for i, e := range tb.frames {
		if e != (lbitFrame{}) {
			t.Fatalf("frame %d = %+v after wraparound clear, want zero", i, e)
		}
	}
	if tb.get(p3) || tb.get(p7) {
		t.Fatal("L bits survived the wraparound gang-clear")
	}
	p1, l1 := lineOn(1, 10, 0)
	tb.set(p1, l1)
	if !tb.get(p1) || tb.frames[1].gen != 1 {
		t.Fatal("table unusable after wraparound")
	}
	// A frame first set in the new generation may now hold any page.
	p3b, l3b := lineOn(3, 31, 5)
	tb.set(p3b, l3b)
	if !tb.get(p3b) || tb.frames[3].page != 31 {
		t.Fatal("frame 3 did not take its new page")
	}
}

// A frame holds one page: within a generation, an L bit for a second page
// on the same frame is a caller bug and panics. After a gang-clear the
// frame may be set for another page.
func TestLBitSecondPageOnFramePanics(t *testing.T) {
	tb := newLBitTable()
	p, l := lineOn(2, 40, 1)
	tb.set(p, l)
	tb.set(lineOn(2, 40, 2)) // same page: fine
	tb.clear()
	tb.set(lineOn(2, 41, 1)) // new generation: the frame may change page
	defer func() {
		if recover() == nil {
			t.Fatal("second page on one frame did not panic")
		}
	}()
	tb.set(lineOn(2, 42, 3))
}

// The table costs 24 bytes per frame — 64 lines — instead of the 16 bytes
// per line of a stamp-and-address array, and grows only to the highest
// frame set (with doubling).
func TestLBitTableFootprint(t *testing.T) {
	if sz := unsafe.Sizeof(lbitFrame{}); sz != 24 {
		t.Fatalf("lbitFrame is %d bytes, want 24", sz)
	}
	tb := newLBitTable()
	const frames = 1000
	for f := arch.Frame(0); f < frames; f++ {
		tb.set(lineOn(f, arch.PageNum(5000+f), int(f)%arch.LinesPerPage))
	}
	if n := len(tb.frames); n < frames || n > 2*frames {
		t.Fatalf("table covers %d frames after setting %d", n, frames)
	}
	if bytes := uintptr(cap(tb.frames)) * unsafe.Sizeof(lbitFrame{}); bytes > 2*frames*24 {
		t.Fatalf("table holds %d bytes for %d frames, want at most %d", bytes, frames, 2*frames*24)
	}
}

// The section 4.1.2 ablation: with DisableLBits the L bit is still
// maintained but needsLog ignores it, so every write intent re-logs the
// line instead of being filtered by the bit.
func TestDisableLBitsForcesRelogging(t *testing.T) {
	engine, ctrls, amap := newCtrlRig()
	c := ctrls[3]
	c.DisableLBits = true
	line := arch.PageNum(5).FirstLine() + 9
	phys := amap.TouchLine(line, 3)
	for i := 0; i < 3; i++ {
		done := false
		c.WriteIntent(line, phys, func() { done = true })
		engine.Run()
		if !done {
			t.Fatal("write intent never released")
		}
	}
	// Initial marker + one entry per intent (compare TestWriteIntentLogsOnce:
	// with L bits enabled the same sequence logs exactly once).
	if got := c.Log().Entries(); got != 4 {
		t.Fatalf("log entries = %d, want 4 (marker + one per write intent)", got)
	}
	if c.Events.RDXNotLogged != 3 {
		t.Fatalf("RDXNotLogged = %d, want 3", c.Events.RDXNotLogged)
	}
	if !c.Logged(line) {
		t.Fatal("the ablation must ignore the L bit, not stop maintaining it")
	}
}

// Pin the tentpole win: set, get and the O(1) gang-clear are allocation-
// free once the table covers the touched slot, and so is the debt ledger's
// steady-state accrue/pay cycle (re-inserting a just-deleted key reuses the
// map's buckets).
func TestLBitAndLedgerZeroAlloc(t *testing.T) {
	tb := newLBitTable()
	tb.set(lineOn(512, 512, 0)) // grow once, outside the measured loop
	p37, l37 := lineOn(37, 37, 37)
	if allocs := testing.AllocsPerRun(1000, func() {
		tb.set(p37, l37)
		if !tb.get(p37) {
			t.Fatal("bit lost")
		}
		tb.clear()
	}); allocs != 0 {
		t.Fatalf("L-bit set/get/clear allocates %.1f per op, want 0", allocs)
	}

	_, ctrls, amap := newCtrlRig()
	c := ctrls[0]
	phys := amap.TouchLine(arch.PageNum(3).FirstLine(), 0)
	var oldD, newD arch.Data
	newD[0] = 0xFF
	delta := oldD
	delta.XOR(&newD)
	if allocs := testing.AllocsPerRun(1000, func() {
		c.accrue(phys, oldD, newD)
		c.payDebt(c.topo.ParityOf(phys), delta)
	}); allocs != 0 {
		t.Fatalf("debt accrue/pay cycle allocates %.1f per op, want 0", allocs)
	}
	if c.PendingDebts() != 0 {
		t.Fatal("ledger not settled after matched accrue/pay cycles")
	}
}

// Randomized cross-check of the per-frame table against a plain map
// reference: interleaved sets, gets, gang-clears and growth must agree line
// for line, and the enumeration must yield exactly the reference's lines in
// ascending order. Lines map to slots the way callers map them: each frame
// holds one page (here an arbitrary injective, non-monotone choice, so
// frame order and line order differ) and the slot offset is the line's
// page offset.
func TestLBitTableMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tb := newLBitTable()
	ref := make(map[arch.PhysLine]arch.LineAddr)
	const frames = 64
	pageOf := func(f int) arch.PageNum { return arch.PageNum((f*37)%frames*3 + 1) }
	pick := func() (arch.PhysLine, arch.LineAddr) {
		f := rng.Intn(frames)
		return lineOn(arch.Frame(f), pageOf(f), rng.Intn(arch.LinesPerPage))
	}
	for op := 0; op < 20000; op++ {
		switch r := rng.Intn(100); {
		case r < 55: // set
			p, line := pick()
			tb.set(p, line)
			ref[p] = line
		case r < 97: // get
			p, _ := pick()
			_, want := ref[p]
			if got := tb.get(p); got != want {
				t.Fatalf("op %d: get(%+v) = %v, reference says %v", op, p, got, want)
			}
		default: // gang-clear
			tb.clear()
			clear(ref)
		}
	}
	want := make([]arch.LineAddr, 0, len(ref))
	for _, l := range ref {
		want = append(want, l)
	}
	slices.Sort(want)
	got := make([]arch.LineAddr, 0, len(ref))
	tb.forEach(func(l arch.LineAddr) { got = append(got, l) })
	if !slices.Equal(got, want) {
		t.Fatalf("enumeration mismatch: got %d lines, reference has %d", len(got), len(want))
	}
}
