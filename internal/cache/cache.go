// Package cache models the node's two cache levels: set-associative,
// write-back, 64-byte lines, LRU replacement, with MESI line states and
// functional data (Table 3: 16 KB 4-way L1, 128 KB 4-way L2). The cache is
// a mechanical container — lookup, insert, evict, state changes, timing
// port — while the coherence package owns the protocol that drives it.
package cache

import (
	"fmt"
	"math/bits"

	"revive/internal/arch"
	"revive/internal/sim"
)

// State is a MESI cache-line state.
type State uint8

const (
	// Invalid: the line is not present.
	Invalid State = iota
	// Shared: read-only copy; memory is up to date; others may share.
	Shared
	// Exclusive: the only cached copy; clean (memory up to date).
	Exclusive
	// Modified: the only cached copy; dirty (memory is stale).
	Modified
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// CanWrite reports whether a processor may silently write a line in this
// state (the silent E->M upgrade of MESI).
func (s State) CanWrite() bool { return s == Exclusive || s == Modified }

// Config sizes one cache level.
type Config struct {
	SizeBytes int
	Ways      int
	// HitLatency is the access latency (2 ns L1, 12 ns L2).
	HitLatency sim.Time
	// Occupancy is the port busy time per access; it bounds the cache's
	// throughput to one access per Occupancy.
	Occupancy sim.Time
}

// L1Default and L2Default return the Table 3 cache configurations.
func L1Default() Config { return Config{SizeBytes: 16 * 1024, Ways: 4, HitLatency: 2, Occupancy: 1} }
func L2Default() Config { return Config{SizeBytes: 128 * 1024, Ways: 4, HitLatency: 12, Occupancy: 3} }

// Slot names one way of one set, numbered set*ways+way. Lookup and Probe
// return the slot holding a line, or NoSlot on a miss; the slot stays
// valid until the line is evicted, dropped or invalidated.
type Slot int32

// NoSlot is the miss result of Lookup and Probe.
const NoSlot Slot = -1

// Line is a copy of one cache entry, as Insert and InsertPinned report an
// evicted victim.
type Line struct {
	Addr  arch.LineAddr
	State State
	Data  arch.Data
}

// stateBits is the width of the MESI state packed below each tag's line
// address. A line address is at most 58 bits wide (64-bit byte addresses,
// 64-byte lines), so address<<2 | state never overflows.
const (
	stateBits = 2
	stateMask = 1<<stateBits - 1
)

// Cache is one cache level. It is driven from the simulation event loop.
//
// Tags live apart from data: tags[slot] packs the line address above its
// MESI state (an Invalid way has state 0), so a set lookup scans one
// contiguous run of words. The LRU stamps and the 64-byte payloads sit in
// parallel arrays indexed by the same slot.
type Cache struct {
	cfg       Config
	port      *sim.Resource
	ways      int
	waysShift uint // log2(ways): a set's first slot is set<<waysShift
	setMask   uint64
	tags      []uint64
	use       []uint64
	data      []arch.Data
	useTick   uint64

	// Hits and Misses count Lookup results.
	Hits, Misses uint64
}

// New builds an empty cache. The line count must be a multiple of Ways, and
// both Ways and the set count must be powers of two.
func New(engine *sim.Engine, cfg Config) *Cache {
	lines := cfg.SizeBytes / arch.LineBytes
	if cfg.Ways <= 0 || cfg.Ways&(cfg.Ways-1) != 0 {
		panic("cache: associativity must be a power of two")
	}
	if lines%cfg.Ways != 0 {
		panic("cache: line count not a multiple of associativity")
	}
	nsets := lines / cfg.Ways
	if nsets&(nsets-1) != 0 {
		panic("cache: set count must be a power of two")
	}
	return &Cache{
		cfg: cfg, port: sim.NewResource(engine), ways: cfg.Ways,
		waysShift: uint(bits.TrailingZeros(uint(cfg.Ways))), setMask: uint64(nsets - 1),
		tags: make([]uint64, lines), use: make([]uint64, lines), data: make([]arch.Data, lines),
	}
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return int(c.setMask) + 1 }

// setBase is the first slot of the set addr maps to.
func (c *Cache) setBase(addr arch.LineAddr) int {
	return int(uint64(addr)&c.setMask) << c.waysShift
}

// find returns the slot holding addr, or NoSlot. A valid tag for addr is
// addr<<2 plus a state of 1..3, so one unsigned comparison against
// addr<<2 + 1 matches it: an Invalid way or another address wraps to a
// large difference.
func (c *Cache) find(addr arch.LineAddr) Slot {
	base := c.setBase(addr)
	first := uint64(addr)<<stateBits + 1
	for i, t := range c.tags[base : base+c.ways] {
		if t-first < stateMask {
			return Slot(base + i)
		}
	}
	return NoSlot
}

// Access reserves the cache port for one access and returns its completion
// time (start + hit latency). Timing only; pair with the functional calls.
func (c *Cache) Access() sim.Time {
	return c.port.Reserve(c.cfg.Occupancy) + c.cfg.HitLatency
}

// AccessAt is Access for an operation that cannot start before earliest
// (e.g. an L2 access chained after the L1 lookup that missed).
func (c *Cache) AccessAt(earliest sim.Time) sim.Time {
	return c.port.ReserveAt(earliest, c.cfg.Occupancy) + c.cfg.HitLatency
}

// Lookup finds the line, updating LRU and hit/miss counters. It repeats
// find's scan so that it stays small enough to inline into the load and
// store paths.
func (c *Cache) Lookup(addr arch.LineAddr) Slot {
	base := c.setBase(addr)
	first := uint64(addr)<<stateBits + 1
	for i, t := range c.tags[base : base+c.ways] {
		if t-first < stateMask {
			c.useTick++
			c.use[base+i] = c.useTick
			c.Hits++
			return Slot(base + i)
		}
	}
	c.Misses++
	return NoSlot
}

// Probe finds the line without touching LRU or counters (used by coherence
// interventions and checkpoint flushes).
func (c *Cache) Probe(addr arch.LineAddr) Slot { return c.find(addr) }

// State returns the MESI state of slot s.
func (c *Cache) State(s Slot) State { return State(c.tags[s] & stateMask) }

// SetState changes the state of slot s, keeping its address. Setting
// Invalid removes the line.
func (c *Cache) SetState(s Slot, st State) {
	c.tags[s] = c.tags[s]&^stateMask | uint64(st)
}

// Addr returns the line address held in slot s.
func (c *Cache) Addr(s Slot) arch.LineAddr { return arch.LineAddr(c.tags[s] >> stateBits) }

// Data returns the payload of slot s, for reading or writing in place.
func (c *Cache) Data(s Slot) *arch.Data { return &c.data[s] }

// Victim picks the slot a fill of addr will take: the last Invalid way of
// its set, otherwise the least-recently-used way for which pinned (if
// non-nil) returns false. It reports the occupant being displaced —
// vstate is Invalid when the way is free — and leaves it in place: the
// occupant's data stays readable through Data until Fill overwrites the
// slot. Victim panics if addr is already present (always a protocol bug)
// or every way of a full set is pinned (the coherence layer pins lines
// with in-flight requests; with the machine's bounded number of
// outstanding requests per node this cannot happen in a correct protocol).
func (c *Cache) Victim(addr arch.LineAddr, pinned func(arch.LineAddr) bool) (s Slot, vaddr arch.LineAddr, vstate State) {
	base := c.setBase(addr)
	first := uint64(addr)<<stateBits + 1
	free, lru := NoSlot, NoSlot
	oldest := ^uint64(0) // no stamp reaches it; the first way with the least stamp wins
	for i, t := range c.tags[base : base+c.ways] {
		if t&stateMask == 0 {
			free = Slot(base + i)
			continue
		}
		if t-first < stateMask {
			panic("cache: double insert of " + fmt.Sprint(addr))
		}
		if u := c.use[base+i]; u < oldest {
			oldest, lru = u, Slot(base+i)
		}
	}
	if free != NoSlot {
		return free, 0, Invalid
	}
	// The set is full. The least-recently-used way is the victim unless it
	// is pinned; pins are rare, so the predicate usually runs once.
	if pinned != nil && pinned(c.Addr(lru)) {
		lru = NoSlot
		for i := base; i < base+c.ways; i++ {
			if pinned(c.Addr(Slot(i))) {
				continue
			}
			if lru == NoSlot || c.use[i] < c.use[lru] {
				lru = Slot(i)
			}
		}
		if lru == NoSlot {
			panic("cache: all ways pinned")
		}
	}
	return lru, c.Addr(lru), c.State(lru)
}

// Fill places a line into slot s (chosen by Victim), overwriting whatever
// the slot held, and marks it most recently used.
func (c *Cache) Fill(s Slot, addr arch.LineAddr, st State, data *arch.Data) {
	c.useTick++
	c.tags[s] = uint64(addr)<<stateBits | uint64(st)
	c.use[s] = c.useTick
	c.data[s] = *data
}

// Insert places a line, evicting the LRU entry of the set if needed. It
// returns a copy of the evicted line (valid only if evicted is true).
// Inserting a line that is already present panics.
func (c *Cache) Insert(addr arch.LineAddr, state State, data arch.Data) (victim Line, evicted bool) {
	return c.InsertPinned(addr, state, data, nil)
}

// InsertPinned is Insert with victim pinning, as Victim describes.
func (c *Cache) InsertPinned(addr arch.LineAddr, state State, data arch.Data,
	pinned func(arch.LineAddr) bool) (victim Line, evicted bool) {
	s, vaddr, vstate := c.Victim(addr, pinned)
	if vstate != Invalid {
		victim, evicted = Line{Addr: vaddr, State: vstate, Data: c.data[s]}, true
	}
	c.Fill(s, addr, state, &data)
	return victim, evicted
}

// Drop removes the line, returning the state it had (Invalid if it was
// not present).
func (c *Cache) Drop(addr arch.LineAddr) State {
	s := c.find(addr)
	if s == NoSlot {
		return Invalid
	}
	st := c.State(s)
	c.SetState(s, Invalid)
	return st
}

// InvalidateAll empties the cache, returning how many lines were dropped.
// Rollback recovery uses it: everything modified since the checkpoint is
// discarded.
func (c *Cache) InvalidateAll() int {
	n := 0
	for i, t := range c.tags {
		if t&stateMask != 0 {
			c.tags[i] = t &^ stateMask
			n++
		}
	}
	return n
}

// AppendDirty appends the slot of every Modified line to buf, in slot
// order, and returns the extended buffer (checkpoint flush).
func (c *Cache) AppendDirty(buf []Slot) []Slot {
	for i, t := range c.tags {
		if State(t&stateMask) == Modified {
			buf = append(buf, Slot(i))
		}
	}
	return buf
}

// ValidLines counts non-Invalid entries.
func (c *Cache) ValidLines() int {
	n := 0
	for _, t := range c.tags {
		if t&stateMask != 0 {
			n++
		}
	}
	return n
}

// DirtyCount counts Modified entries.
func (c *Cache) DirtyCount() int {
	n := 0
	for _, t := range c.tags {
		if State(t&stateMask) == Modified {
			n++
		}
	}
	return n
}
