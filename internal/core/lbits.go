package core

import (
	"math/bits"
	"slices"

	"revive/internal/arch"
)

// lbitTable is the Logged-bit table of section 3.2.1, modeled the way the
// hardware builds it: dense, indexed by the line's physical position in
// the node's local memory, gang-cleared at every checkpoint commit in a
// single operation.
//
// The table keeps one entry per page frame: a 64-bit mask with one L bit
// per line of the frame, the global page the frame holds (for enumeration)
// and the generation the mask was last written in. A mask counts only
// when its generation equals the table's, so the gang-clear is one
// increment — O(1) and allocation-free, like the hardware's one-cycle
// flash clear. An entry is 24 bytes per 64 lines.
//
// The table is indexed physically rather than by global line address
// because the global space is sparse (workloads place private regions at
// widely separated page numbers) while frames are handed out by a per-node
// cursor, so the table's size tracks the node's allocated memory. Entries
// for log frames are simply never set.
type lbitTable struct {
	gen    uint64
	frames []lbitFrame
}

// lbitFrame is one frame's L bits.
type lbitFrame struct {
	gen  uint64       // generation mask was last written in
	mask uint64       // bit i: line i of the frame is logged
	page arch.PageNum // the global page the frame holds
}

func newLBitTable() lbitTable {
	return lbitTable{gen: 1}
}

// set marks the line at p logged in the current generation, growing the
// table to cover newly allocated frames. line is p's global address. A
// frame holds one page, so setting a line of a different page on a frame
// already set this generation panics.
func (t *lbitTable) set(p arch.PhysLine, line arch.LineAddr) {
	f := int(p.Frame)
	if f >= len(t.frames) {
		t.grow(f)
	}
	e := &t.frames[f]
	page := line.Page()
	if e.gen != t.gen {
		e.gen, e.mask, e.page = t.gen, 0, page
	} else if e.page != page {
		panic("core: L bit for a second page on one frame")
	}
	e.mask |= 1 << p.Off
}

func (t *lbitTable) grow(f int) {
	n := f + 1
	if n < 2*len(t.frames) {
		n = 2 * len(t.frames)
	}
	frames := make([]lbitFrame, n)
	copy(frames, t.frames)
	t.frames = frames
}

// get reports whether the line at p is logged in the current generation.
func (t *lbitTable) get(p arch.PhysLine) bool {
	f := int(p.Frame)
	return f < len(t.frames) && t.frames[f].gen == t.gen && t.frames[f].mask&(1<<p.Off) != 0
}

// clear is the gang-clear: every frame's mask becomes stale at once. On
// generation wraparound the entries are physically zeroed so that masks
// written in a long-dead generation cannot alias the fresh one.
func (t *lbitTable) clear() {
	t.gen++
	if t.gen == 0 {
		clear(t.frames)
		t.gen = 1
	}
}

// forEach calls fn for every set line, in ascending global line order.
func (t *lbitTable) forEach(fn func(arch.LineAddr)) {
	var set []arch.LineAddr
	for _, e := range t.frames {
		if e.gen != t.gen {
			continue
		}
		for m := e.mask; m != 0; m &= m - 1 {
			set = append(set, e.page.FirstLine()+arch.LineAddr(bits.TrailingZeros64(m)))
		}
	}
	slices.Sort(set)
	for _, l := range set {
		fn(l)
	}
}
