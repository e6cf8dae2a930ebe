// Package mem models one node's local DRAM: 16 banks of open-row DDR with
// the Table 3 timing (60 ns row miss), a shared data port that bounds
// bandwidth, and functional line storage. The functional half is essential
// to ReVive: logs, parity and data hold real bytes so that rollback and
// parity reconstruction can be verified byte-for-byte.
package mem

import (
	"math/bits"
	"slices"

	"revive/internal/arch"
	"revive/internal/sim"
)

// Config carries the DRAM timing parameters (Table 3: "100MHz 16-bank DDR,
// 128 bits wide, 60ns row miss").
type Config struct {
	Banks int // number of independent banks (16)
	// RowHit and RowMiss are access latencies in ns. A bank is occupied
	// for the full latency of each access (DRAM banks are not pipelined
	// within a single access).
	RowHit  sim.Time
	RowMiss sim.Time
	// PortOccupancy is the data-port time per 64-byte line transfer.
	// Two PC1600 modules in parallel give 3.2 GB/s, i.e. 20 ns per line.
	PortOccupancy sim.Time
	// RowBytes is the size of a DRAM row for open-row hit detection.
	RowBytes uint64
}

// DefaultConfig returns the paper's Table 3 memory parameters.
func DefaultConfig() Config {
	return Config{
		Banks:         16,
		RowHit:        30,
		RowMiss:       60,
		PortOccupancy: 20,
		RowBytes:      8 * 1024,
	}
}

type bank struct {
	busy    *sim.Resource
	openRow uint64
	valid   bool
}

// page is one frame's functional content: bit i of mask is set iff line i
// is non-zero, and lines holds exactly those lines, packed in offset order,
// so line i sits at index popcount(mask & (1<<i - 1)).
type page struct {
	mask  uint64
	lines []arch.Data
}

// lineBit is the presence-mask bit of the line holding addr.
func lineBit(addr uint64) uint64 {
	return 1 << (addr >> arch.LineShift & (arch.LinesPerPage - 1))
}

// slot returns the packed index line bit has (or would have) in lines.
func (p *page) slot(bit uint64) int { return bits.OnesCount64(p.mask & (bit - 1)) }

// Memory is one node's DRAM module: timed access plus functional storage.
// Addresses are node-local byte offsets (see arch.PhysLine.MemAddr).
type Memory struct {
	engine *sim.Engine
	cfg    Config
	port   *sim.Resource
	banks  []bank
	// pages is the functional store, indexed by frame (addr >> PageShift)
	// and grown on the first non-zero write to a frame. A zero line is
	// never stored, so an absent line, a frame past the end and a line
	// written back to zero all read as zero. stored counts present lines.
	pages  []page
	stored int
	lost   bool

	// Partial device loss: local byte addresses in [lostLo, lostHi) are
	// destroyed while the rest of the module survives (a CXL-era failure
	// mode: one device of a pooled module dies). Active when lostHi > lostLo.
	lostLo, lostHi uint64

	// opFree is the free list of pooled read/rmw completions and scratch
	// the RMW working line; both avoid a heap allocation per access on the
	// hot path (the engine is single-threaded, so a plain slice suffices).
	opFree  []*memOp
	scratch arch.Data

	// Accesses counts line accesses (reads+writes) for utilization and
	// Figure 10 cross-checks.
	Accesses uint64
}

// memOp is a pooled timed-completion record: the line content to deliver
// plus the caller's continuation, with fire bound once so scheduling it
// does not allocate.
type memOp struct {
	m      *Memory
	d      arch.Data
	done   func(arch.Data)
	fireFn func()
}

// fire delivers the content and returns the op to the pool first, so a
// continuation that synchronously issues another access reuses it.
func (op *memOp) fire() {
	m, d, done := op.m, op.d, op.done
	op.done = nil
	m.opFree = append(m.opFree, op)
	done(d)
}

func (m *Memory) getOp(d arch.Data, done func(arch.Data)) *memOp {
	if n := len(m.opFree); n > 0 {
		op := m.opFree[n-1]
		m.opFree = m.opFree[:n-1]
		op.d, op.done = d, done
		return op
	}
	op := &memOp{m: m, d: d, done: done}
	op.fireFn = op.fire
	return op
}

// New returns an empty (all-zero) memory. It allocates no line storage.
func New(engine *sim.Engine, cfg Config) *Memory {
	m := &Memory{
		engine: engine,
		cfg:    cfg,
		port:   sim.NewResource(engine),
		banks:  make([]bank, cfg.Banks),
	}
	for i := range m.banks {
		m.banks[i].busy = sim.NewResource(engine)
	}
	return m
}

// access books the bank and port for one line access and returns the
// completion time.
func (m *Memory) access(addr uint64) sim.Time {
	m.Accesses++
	line := addr &^ uint64(arch.LineBytes-1)
	b := &m.banks[int(line>>arch.LineShift)%len(m.banks)]
	row := line / m.cfg.RowBytes
	lat := m.cfg.RowMiss
	if b.valid && b.openRow == row {
		lat = m.cfg.RowHit
	}
	b.openRow, b.valid = row, true
	bankDone := b.busy.Reserve(lat) + lat
	portStart := m.port.ReserveAt(bankDone, m.cfg.PortOccupancy)
	return portStart + m.cfg.PortOccupancy
}

// lineLost reports whether the line holding addr is destroyed — either the
// whole module is lost or the line falls inside a partially-lost range.
func (m *Memory) lineLost(addr uint64) bool {
	if m.lost {
		return true
	}
	line := addr &^ uint64(arch.LineBytes-1)
	return line >= m.lostLo && line < m.lostHi
}

// Read performs a timed read of the line at addr, delivering its content to
// done at completion. Reading lost memory panics: components must check
// Lost()/LineLost() and take the recovery path instead.
func (m *Memory) Read(addr uint64, done func(arch.Data)) {
	if m.lineLost(addr) {
		panic("mem: read of lost memory")
	}
	op := m.getOp(m.peek(addr), done)
	m.engine.At(m.access(addr), op.fireFn)
}

// Write performs a timed write of the line at addr. done may be nil.
func (m *Memory) Write(addr uint64, d arch.Data, done func()) {
	if m.lineLost(addr) {
		panic("mem: write to lost memory")
	}
	m.poke(addr, d)
	at := m.access(addr)
	if done != nil {
		m.engine.At(at, done)
	}
}

// ReadModifyWrite reads the line, applies f to it, writes the result, and
// calls done with the old content. It books two bank accesses (the parity
// update's read-XOR-write in Figure 4). done may be nil.
func (m *Memory) ReadModifyWrite(addr uint64, f func(*arch.Data), done func(old arch.Data)) {
	if m.lineLost(addr) {
		panic("mem: rmw of lost memory")
	}
	old := m.peek(addr)
	m.access(addr) // read
	m.scratch = old
	f(&m.scratch)
	m.poke(addr, m.scratch)
	at := m.access(addr) // write
	if done != nil {
		op := m.getOp(old, done)
		m.engine.At(at, op.fireFn)
	}
}

func (m *Memory) peek(addr uint64) arch.Data {
	f := addr >> arch.PageShift
	if f >= uint64(len(m.pages)) {
		return arch.Data{}
	}
	p := &m.pages[f]
	bit := lineBit(addr)
	if p.mask&bit == 0 {
		return arch.Data{}
	}
	return p.lines[p.slot(bit)]
}

func (m *Memory) poke(addr uint64, d arch.Data) {
	f := addr >> arch.PageShift
	zero := d.IsZero()
	if f >= uint64(len(m.pages)) {
		if zero {
			return
		}
		m.pages = append(m.pages, make([]page, f+1-uint64(len(m.pages)))...)
	}
	p := &m.pages[f]
	bit := lineBit(addr)
	i := p.slot(bit)
	switch {
	case p.mask&bit != 0 && zero:
		p.lines = slices.Delete(p.lines, i, i+1)
		p.mask &^= bit
		m.stored--
	case p.mask&bit != 0:
		p.lines[i] = d
	case !zero:
		p.lines = slices.Insert(p.lines, i, d)
		p.mask |= bit
		m.stored++
	}
}

// Peek returns the line content with no timing effect (verification and
// recovery reconstruction use it). Peeking lost memory panics.
func (m *Memory) Peek(addr uint64) arch.Data {
	if m.lineLost(addr) {
		panic("mem: peek of lost memory")
	}
	return m.peek(addr)
}

// Poke sets the line content with no timing effect.
func (m *Memory) Poke(addr uint64, d arch.Data) {
	if m.lineLost(addr) {
		panic("mem: poke of lost memory")
	}
	m.poke(addr, d)
}

// MarkLost destroys the memory's contents, modeling permanent node loss.
// It subsumes any partially-lost range (the escalation ladder: a partial
// loss whose module then dies entirely is just a full loss).
func (m *Memory) MarkLost() {
	m.lost = true
	m.pages, m.stored = nil, 0
	m.lostLo, m.lostHi = 0, 0
}

// MarkLostRange destroys the lines in the local byte-address range [lo, hi),
// modeling partial device loss: one device of the module dies while the
// rest stays readable. A second overlapping or disjoint range widens the
// damage to the convex hull (the range stays contiguous, per the fault
// model). Marking a range on a fully-lost memory is a no-op.
func (m *Memory) MarkLostRange(lo, hi uint64) {
	if m.lost || hi <= lo {
		return
	}
	if m.lostHi > m.lostLo { // widen an existing range
		lo = min(lo, m.lostLo)
		hi = max(hi, m.lostHi)
	}
	m.lostLo, m.lostHi = lo, hi
	for f := lo >> arch.PageShift; f < uint64(len(m.pages)) && f<<arch.PageShift < hi; f++ {
		p := &m.pages[f]
		kept, i := p.lines[:0], 0
		for mask := p.mask; mask != 0; mask &= mask - 1 {
			off := uint64(bits.TrailingZeros64(mask))
			if line := f<<arch.PageShift | off<<arch.LineShift; line >= lo && line < hi {
				p.mask &^= 1 << off
				m.stored--
			} else {
				kept = append(kept, p.lines[i])
			}
			i++
		}
		clear(p.lines[len(kept):])
		p.lines = kept
	}
}

// Restore brings a lost memory back as an empty module (a replacement or
// re-initialized module whose content must be rebuilt from parity).
func (m *Memory) Restore() {
	m.lost = false
	m.lostLo, m.lostHi = 0, 0
	m.pages, m.stored = nil, 0
}

// RestoreRange replaces the partially-lost device: the range becomes
// readable again (as zeroes) and its content must be rebuilt from parity.
func (m *Memory) RestoreRange() {
	m.lostLo, m.lostHi = 0, 0
}

// Lost reports whether the memory's content has been destroyed entirely.
func (m *Memory) Lost() bool { return m.lost }

// PartialLost reports whether a partially-lost range is active.
func (m *Memory) PartialLost() bool { return m.lostHi > m.lostLo }

// LostRange returns the partially-lost local byte-address range [lo, hi);
// lo == hi when no partial loss is active.
func (m *Memory) LostRange() (lo, hi uint64) { return m.lostLo, m.lostHi }

// LineLost reports whether the line holding addr is unreadable (full or
// partial loss). Recovery and verification use it to scope reconstruction.
func (m *Memory) LineLost(addr uint64) bool { return m.lineLost(addr) }

// LinesStored returns how many non-zero lines the memory holds.
func (m *Memory) LinesStored() int { return m.stored }

// Image is an immutable copy of a memory's functional content: the
// checkpoint images the rollback oracle compares recovered memory against.
// It keeps the store's layout — a presence mask per frame and the present
// lines packed frame by frame — in three flat slices, so taking one costs
// a few allocations, not one per line.
type Image struct {
	masks []uint64    // presence mask per frame; no trailing empty frames
	first []uint32    // index in lines of each frame's first present line
	lines []arch.Data // present lines, frame by frame in offset order
}

// Image copies the memory's entire functional content. A lost memory's
// image is empty.
func (m *Memory) Image() Image {
	n := len(m.pages)
	for n > 0 && m.pages[n-1].mask == 0 {
		n--
	}
	img := Image{
		masks: make([]uint64, n),
		first: make([]uint32, n),
		lines: make([]arch.Data, 0, m.stored),
	}
	for f, p := range m.pages[:n] {
		img.masks[f] = p.mask
		img.first[f] = uint32(len(img.lines))
		img.lines = append(img.lines, p.lines...)
	}
	return img
}

// frame returns the image's mask and packed lines of frame f.
func (img Image) frame(f uint64) (uint64, []arch.Data) {
	if f >= uint64(len(img.masks)) {
		return 0, nil
	}
	mask := img.masks[f]
	first := int(img.first[f])
	return mask, img.lines[first : first+bits.OnesCount64(mask)]
}

// Peek returns the recorded content of the line holding addr.
func (img Image) Peek(addr uint64) arch.Data {
	mask, lines := img.frame(addr >> arch.PageShift)
	bit := lineBit(addr)
	if mask&bit == 0 {
		return arch.Data{}
	}
	return lines[bits.OnesCount64(mask&(bit-1))]
}

// Equal reports whether two images hold the same content line for line.
func (img Image) Equal(other Image) bool {
	return slices.Equal(img.masks, other.masks) && slices.Equal(img.lines, other.lines)
}

// FrameEqual reports whether frame f of the memory holds exactly the
// content img recorded for it. It compares whole frames at once; it is
// false whenever any line of the frame may be lost, so a caller that then
// compares line by line through Peek still meets the lost-memory panic.
func (m *Memory) FrameEqual(f arch.Frame, img Image) bool {
	lo := uint64(f) << arch.PageShift
	if m.lost || (m.lostHi > m.lostLo && lo < m.lostHi && lo+arch.PageBytes > m.lostLo) {
		return false
	}
	var p page
	if uint64(f) < uint64(len(m.pages)) {
		p = m.pages[f]
	}
	mask, lines := img.frame(uint64(f))
	return p.mask == mask && slices.Equal(p.lines, lines)
}

// PortBusy reports the cumulative busy time of the data port (utilization
// reporting).
func (m *Memory) PortBusy() sim.Time { return m.port.BusyTime() }
