package cache

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"revive/internal/arch"
	"revive/internal/sim"
)

func newL1() *Cache {
	return New(sim.NewEngine(), L1Default())
}

func d(b byte) arch.Data {
	var out arch.Data
	for i := range out {
		out[i] = b
	}
	return out
}

func TestGeometry(t *testing.T) {
	c := newL1()
	// 16KB / 64B = 256 lines / 4 ways = 64 sets.
	if c.Sets() != 64 {
		t.Fatalf("Sets = %d, want 64", c.Sets())
	}
	c2 := New(sim.NewEngine(), L2Default())
	if c2.Sets() != 512 {
		t.Fatalf("L2 Sets = %d, want 512", c2.Sets())
	}
}

// New rejects geometries the set indexing cannot address: associativity
// and set count must be powers of two.
func TestNewRejectsBadGeometry(t *testing.T) {
	for _, cfg := range []Config{
		{SizeBytes: 12 * arch.LineBytes, Ways: 3},
		{SizeBytes: 24 * arch.LineBytes, Ways: 4},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) did not panic", cfg)
				}
			}()
			New(sim.NewEngine(), cfg)
		}()
	}
}

func TestLookupMissThenHit(t *testing.T) {
	c := newL1()
	if c.Lookup(10) != NoSlot {
		t.Fatal("lookup hit in empty cache")
	}
	c.Insert(10, Shared, d(1))
	s := c.Lookup(10)
	if s == NoSlot || c.State(s) != Shared || *c.Data(s) != d(1) || c.Addr(s) != 10 {
		t.Fatalf("lookup after insert = slot %d", s)
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", c.Hits, c.Misses)
	}
}

func TestProbeDoesNotCount(t *testing.T) {
	c := newL1()
	c.Insert(10, Modified, d(2))
	c.Probe(10)
	c.Probe(11)
	if c.Hits != 0 || c.Misses != 0 {
		t.Fatal("Probe affected hit/miss counters")
	}
}

func TestDoubleInsertPanics(t *testing.T) {
	c := newL1()
	c.Insert(10, Shared, d(1))
	defer func() {
		if recover() == nil {
			t.Fatal("double insert did not panic")
		}
	}()
	c.Insert(10, Exclusive, d(2))
}

func TestLRUEviction(t *testing.T) {
	c := newL1()
	// Fill one set: addresses congruent mod 64 share a set.
	addrs := []arch.LineAddr{0, 64, 128, 192}
	for i, a := range addrs {
		c.Insert(a, Shared, d(byte(i)))
	}
	// Touch all but the first so it becomes LRU.
	c.Lookup(64)
	c.Lookup(128)
	c.Lookup(192)
	victim, evicted := c.Insert(256, Shared, d(9))
	if !evicted {
		t.Fatal("no eviction from full set")
	}
	if victim.Addr != 0 || victim.Data != d(0) {
		t.Fatalf("evicted %d, want 0 (LRU)", victim.Addr)
	}
}

// Victim names the displaced occupant without disturbing it: its data stays
// readable until Fill overwrites the slot.
func TestVictimLeavesOccupantUntilFill(t *testing.T) {
	c := newL1()
	for i, a := range []arch.LineAddr{0, 64, 128, 192} {
		c.Insert(a, Modified, d(byte(i+1)))
	}
	c.Lookup(0) // 64 becomes LRU
	s, vaddr, vstate := c.Victim(256, nil)
	if vaddr != 64 || vstate != Modified || *c.Data(s) != d(2) {
		t.Fatalf("Victim = (%d, %v, %x), want (64, M, 02...)", vaddr, vstate, c.Data(s)[:1])
	}
	if c.Probe(64) != s {
		t.Fatal("victim left the cache before Fill")
	}
	nd := d(9)
	c.Fill(s, 256, Exclusive, &nd)
	if c.Probe(64) != NoSlot || c.Probe(256) != s || c.State(s) != Exclusive || *c.Data(s) != nd {
		t.Fatal("Fill did not replace the victim")
	}
	// Pinning skips the LRU way.
	c.Lookup(128)
	c.Lookup(192)
	c.Lookup(256)
	s, vaddr, _ = c.Victim(320, func(a arch.LineAddr) bool { return a == 0 })
	if vaddr != 128 || c.Addr(s) != 128 {
		t.Fatalf("pinned Victim = %d, want 128", vaddr)
	}
}

func TestInsertIntoInvalidSlotNoEviction(t *testing.T) {
	c := newL1()
	c.Insert(0, Shared, d(1))
	c.Drop(0)
	_, evicted := c.Insert(64, Shared, d(2))
	if evicted {
		t.Fatal("eviction despite free (dropped) slot")
	}
}

func TestInvalidate(t *testing.T) {
	c := newL1()
	c.Insert(5, Modified, d(7))
	if s := c.Probe(5); s == NoSlot || *c.Data(s) != d(7) {
		t.Fatal("inserted line not present")
	}
	if was := c.Drop(5); was != Modified {
		t.Fatalf("Drop = %v, want M", was)
	}
	if c.Probe(5) != NoSlot {
		t.Fatal("line still present after Drop")
	}
	if was := c.Drop(5); was != Invalid {
		t.Fatal("second Drop found the line")
	}
	c.Insert(6, Shared, d(1))
	s := c.Probe(6)
	c.SetState(s, Invalid)
	if c.Probe(6) != NoSlot || c.ValidLines() != 0 {
		t.Fatal("SetState(Invalid) left the line present")
	}
}

func TestInvalidateAll(t *testing.T) {
	c := newL1()
	for i := arch.LineAddr(0); i < 100; i++ {
		c.Insert(i, Exclusive, d(1))
	}
	if n := c.InvalidateAll(); n != 100 {
		t.Fatalf("InvalidateAll = %d, want 100", n)
	}
	if c.ValidLines() != 0 {
		t.Fatal("lines remain after InvalidateAll")
	}
}

func TestDirtyLinesAndCounts(t *testing.T) {
	c := newL1()
	c.Insert(1, Modified, d(1))
	c.Insert(2, Shared, d(2))
	c.Insert(3, Modified, d(3))
	c.Insert(4, Exclusive, d(4))
	buf := make([]Slot, 0, 8)
	dirty := c.AppendDirty(buf)
	if len(dirty) != 2 || c.DirtyCount() != 2 {
		t.Fatalf("dirty = %d lines, count %d; want 2, 2", len(dirty), c.DirtyCount())
	}
	if c.Addr(dirty[0]) != 1 || c.Addr(dirty[1]) != 3 || *c.Data(dirty[1]) != d(3) {
		t.Fatalf("dirty slots hold %d, %d; want 1, 3 in slot order", c.Addr(dirty[0]), c.Addr(dirty[1]))
	}
	if &dirty[0] != &buf[:1][0] {
		t.Fatal("AppendDirty did not reuse the caller's buffer")
	}
	if c.ValidLines() != 4 {
		t.Fatalf("ValidLines = %d, want 4", c.ValidLines())
	}
}

func TestStateCanWrite(t *testing.T) {
	if Invalid.CanWrite() || Shared.CanWrite() {
		t.Fatal("I/S must not be writable")
	}
	if !Exclusive.CanWrite() || !Modified.CanWrite() {
		t.Fatal("E/M must be writable")
	}
}

func TestAccessTimingSerializesOnPort(t *testing.T) {
	e := sim.NewEngine()
	c := New(e, L1Default())
	t1 := c.Access()
	t2 := c.Access()
	if t1 != 2 { // start 0 + latency 2
		t.Fatalf("first access completes at %d, want 2", t1)
	}
	if t2 != 3 { // start 1 (occupancy) + latency 2
		t.Fatalf("second access completes at %d, want 3", t2)
	}
}

// A line address uses at most 58 bits; the widest one round-trips through
// the packed tag with every state.
func TestTagPackingWidestAddress(t *testing.T) {
	c := newL1()
	top := arch.LineAddr(1<<58 - 1)
	for _, st := range []State{Shared, Exclusive, Modified} {
		c.Insert(top, st, d(3))
		s := c.Probe(top)
		if s == NoSlot || c.Addr(s) != top || c.State(s) != st {
			t.Fatalf("state %v: tag round trip failed", st)
		}
		c.Drop(top)
	}
}

// Property: the cache never holds two valid entries for the same address,
// and never exceeds its capacity, under any insert/drop sequence.
func TestPropertySingleCopyAndCapacity(t *testing.T) {
	f := func(ops []struct {
		Addr uint8
		Inv  bool
	}) bool {
		c := newL1()
		capacity := c.Config().SizeBytes / arch.LineBytes
		for _, op := range ops {
			a := arch.LineAddr(op.Addr)
			if op.Inv {
				c.Drop(a)
				continue
			}
			if c.Probe(a) == NoSlot {
				c.Insert(a, Shared, d(byte(op.Addr)))
			}
		}
		if c.ValidLines() > capacity {
			return false
		}
		// Duplicate scan: every valid slot holds a distinct address, and
		// Probe finds each one in the slot that holds it.
		seen := map[arch.LineAddr]int{}
		for s := Slot(0); int(s) < capacity; s++ {
			if c.State(s) == Invalid {
				continue
			}
			seen[c.Addr(s)]++
			if c.Probe(c.Addr(s)) != s {
				return false
			}
		}
		for _, n := range seen {
			if n != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: inserted data is returned intact until eviction or overwrite.
func TestPropertyDataIntegrity(t *testing.T) {
	f := func(vals []byte) bool {
		c := newL1()
		want := map[arch.LineAddr]arch.Data{}
		for i, v := range vals {
			a := arch.LineAddr(i)
			if victim, ev := c.Insert(a, Modified, d(v)); ev {
				if want[victim.Addr] != victim.Data {
					return false
				}
				delete(want, victim.Addr)
			}
			want[a] = d(v)
		}
		for a, w := range want {
			s := c.Probe(a)
			if s == NoSlot || *c.Data(s) != w {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// --- differential test against the previous representation ---

// refLine and refCache are the cache as it was built before tags moved
// apart from data: a slice of sets, each a slice of 88-byte lines carrying
// address, state, payload and LRU stamp together. The production cache
// must agree with it on every observable.
type refLine struct {
	Addr  arch.LineAddr
	State State
	Data  arch.Data
	use   uint64
}

type refCache struct {
	sets         [][]refLine
	setMask      uint64
	useTick      uint64
	Hits, Misses uint64
}

func newRefCache(cfg Config) *refCache {
	lines := cfg.SizeBytes / arch.LineBytes
	nsets := lines / cfg.Ways
	sets := make([][]refLine, nsets)
	backing := make([]refLine, lines)
	for i := range sets {
		sets[i] = backing[i*cfg.Ways : (i+1)*cfg.Ways]
	}
	return &refCache{sets: sets, setMask: uint64(nsets - 1)}
}

func (c *refCache) set(addr arch.LineAddr) []refLine { return c.sets[uint64(addr)&c.setMask] }

func (c *refCache) Lookup(addr arch.LineAddr) *refLine {
	for i := range c.set(addr) {
		l := &c.set(addr)[i]
		if l.State != Invalid && l.Addr == addr {
			c.useTick++
			l.use = c.useTick
			c.Hits++
			return l
		}
	}
	c.Misses++
	return nil
}

func (c *refCache) Probe(addr arch.LineAddr) *refLine {
	for i := range c.set(addr) {
		l := &c.set(addr)[i]
		if l.State != Invalid && l.Addr == addr {
			return l
		}
	}
	return nil
}

// InsertPinned reports a double insert or a fully pinned set as ok=false
// instead of panicking, so the op loop can check both caches refuse alike.
func (c *refCache) InsertPinned(addr arch.LineAddr, state State, data arch.Data,
	pinned func(arch.LineAddr) bool) (victim refLine, evicted, ok bool) {
	set := c.set(addr)
	var slot *refLine
	for i := range set {
		l := &set[i]
		if l.State != Invalid && l.Addr == addr {
			return victim, false, false
		}
		if l.State == Invalid {
			slot = l
		}
	}
	if slot == nil {
		for i := range set {
			l := &set[i]
			if pinned != nil && pinned(l.Addr) {
				continue
			}
			if slot == nil || l.use < slot.use {
				slot = l
			}
		}
		if slot == nil {
			return victim, false, false
		}
		victim, evicted = *slot, true
	}
	c.useTick++
	*slot = refLine{Addr: addr, State: state, Data: data, use: c.useTick}
	return victim, evicted, true
}

func (c *refCache) count(match func(State) bool) int {
	n := 0
	for _, set := range c.sets {
		for i := range set {
			if match(set[i].State) {
				n++
			}
		}
	}
	return n
}

// insertRecovering runs an insert on the production cache, converting its
// protocol-bug panics into ok=false.
func insertRecovering(c *Cache, addr arch.LineAddr, st State, data arch.Data,
	pinned func(arch.LineAddr) bool) (victim Line, evicted, ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	victim, evicted = c.InsertPinned(addr, st, data, pinned)
	return victim, evicted, true
}

// diffCaches drives the production cache and the reference through the op
// stream encoded in ops (four bytes per op) and reports the first
// disagreement. A small geometry (8 sets of 4 ways) and a narrow address
// range keep sets full and victims frequent.
func diffCaches(ops []byte) error {
	cfg := Config{SizeBytes: 32 * arch.LineBytes, Ways: 4, HitLatency: 1, Occupancy: 1}
	c := New(sim.NewEngine(), cfg)
	ref := newRefCache(cfg)
	var dirty []Slot
	for i := 0; i+4 <= len(ops); i += 4 {
		op, a, arg, fill := ops[i]%8, arch.LineAddr(ops[i+1]%64), ops[i+2], ops[i+3]
		st := State(arg%3 + 1) // a valid state: S, E or M
		var data arch.Data
		binary.LittleEndian.PutUint64(data[8*int(arg%8):], uint64(fill)<<8|uint64(i))
		switch op {
		case 0, 1: // Lookup
			s, l := c.Lookup(a), ref.Lookup(a)
			if (s == NoSlot) != (l == nil) {
				return fmt.Errorf("op %d: Lookup(%d) hit=%v, reference hit=%v", i/4, a, s != NoSlot, l != nil)
			}
			if l != nil && (c.Addr(s) != l.Addr || c.State(s) != l.State || *c.Data(s) != l.Data) {
				return fmt.Errorf("op %d: Lookup(%d) content differs", i/4, a)
			}
		case 2: // Probe
			s, l := c.Probe(a), ref.Probe(a)
			if (s == NoSlot) != (l == nil) || (l != nil && (c.State(s) != l.State || *c.Data(s) != l.Data)) {
				return fmt.Errorf("op %d: Probe(%d) differs", i/4, a)
			}
		case 3, 4: // Insert / InsertPinned
			var pinned func(arch.LineAddr) bool
			if op == 4 {
				// Pin two of the eight addresses sharing a set, or (one
				// time in eight) everything, so a full set refuses.
				pinned = func(p arch.LineAddr) bool { return fill%8 == 7 || uint8(p>>3)%4 == fill%4 }
			}
			v, ev, ok := insertRecovering(c, a, st, data, pinned)
			rv, rev, rok := ref.InsertPinned(a, st, data, pinned)
			if ok != rok || ev != rev {
				return fmt.Errorf("op %d: Insert(%d) ok=%v evicted=%v, reference ok=%v evicted=%v", i/4, a, ok, ev, rok, rev)
			}
			if ev && (v.Addr != rv.Addr || v.State != rv.State || v.Data != rv.Data) {
				return fmt.Errorf("op %d: Insert(%d) evicted %d/%v, reference %d/%v", i/4, a, v.Addr, v.State, rv.Addr, rv.State)
			}
		case 5: // Drop
			was := Invalid
			if l := ref.Probe(a); l != nil {
				was = l.State
				l.State = Invalid
			}
			if got := c.Drop(a); got != was {
				return fmt.Errorf("op %d: Drop(%d) = %v, reference %v", i/4, a, got, was)
			}
		case 6: // SetState on a resident line (Invalid included)
			s, l := c.Probe(a), ref.Probe(a)
			if (s == NoSlot) != (l == nil) {
				return fmt.Errorf("op %d: SetState probe of %d differs", i/4, a)
			}
			if l != nil {
				to := State(arg % 4)
				c.SetState(s, to)
				l.State = to
			}
		case 7: // InvalidateAll, rarely
			if arg%16 != 0 {
				continue
			}
			n := c.InvalidateAll()
			rn := 0
			for _, set := range ref.sets {
				for j := range set {
					if set[j].State != Invalid {
						set[j].State = Invalid
						rn++
					}
				}
			}
			if n != rn {
				return fmt.Errorf("op %d: InvalidateAll = %d, reference %d", i/4, n, rn)
			}
		}
		if c.Hits != ref.Hits || c.Misses != ref.Misses {
			return fmt.Errorf("op %d: hits/misses %d/%d, reference %d/%d", i/4, c.Hits, c.Misses, ref.Hits, ref.Misses)
		}
		if dc, rd := c.DirtyCount(), ref.count(func(s State) bool { return s == Modified }); dc != rd {
			return fmt.Errorf("op %d: DirtyCount %d, reference %d", i/4, dc, rd)
		}
		if vl, rv := c.ValidLines(), ref.count(func(s State) bool { return s != Invalid }); vl != rv {
			return fmt.Errorf("op %d: ValidLines %d, reference %d", i/4, vl, rv)
		}
		// The dirty enumeration order (the checkpoint flush order) must
		// match the reference's set-then-way order, which pins the way
		// each fill takes.
		dirty = c.AppendDirty(dirty[:0])
		j := 0
		for _, set := range ref.sets {
			for w := range set {
				if set[w].State != Modified {
					continue
				}
				if j >= len(dirty) || c.Addr(dirty[j]) != set[w].Addr || *c.Data(dirty[j]) != set[w].Data {
					return fmt.Errorf("op %d: dirty line %d differs from the reference's", i/4, j)
				}
				j++
			}
		}
	}
	return nil
}

// TestCacheMatchesReference drives the tag/data-split cache and the
// previous slice-of-lines cache through long random op streams.
func TestCacheMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for run := 0; run < 40; run++ {
		ops := make([]byte, 4*2000)
		rng.Read(ops)
		if err := diffCaches(ops); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
	}
}

// FuzzCacheOps is the coverage-guided form of TestCacheMatchesReference.
// The seed corpus lives in testdata/fuzz/FuzzCacheOps.
func FuzzCacheOps(f *testing.F) {
	f.Add([]byte{3, 0, 2, 1, 3, 8, 2, 2, 3, 16, 2, 3, 3, 24, 2, 4, 3, 32, 0, 5, 0, 8, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if err := diffCaches(ops); err != nil {
			t.Fatal(err)
		}
	})
}

// The slot API allocates nothing: a lookup, a victim choice with a pinning
// predicate, a fill, and a dirty-slot enumeration into a reused buffer.
func TestSlotOpsZeroAlloc(t *testing.T) {
	c := newL1()
	for a := arch.LineAddr(0); a < 256; a++ {
		c.Insert(a, Modified, d(byte(a)))
	}
	pinned := func(a arch.LineAddr) bool { return a%7 == 0 }
	buf := c.AppendDirty(nil)
	next := arch.LineAddr(256)
	nd := d(5)
	if allocs := testing.AllocsPerRun(1000, func() {
		c.Lookup(next - 1)
		s, _, _ := c.Victim(next, pinned)
		c.Fill(s, next, Modified, &nd)
		next++
		buf = c.AppendDirty(buf[:0])
	}); allocs != 0 {
		t.Fatalf("slot operations allocate %.1f per op, want 0", allocs)
	}
	if len(buf) != 256 {
		t.Fatalf("AppendDirty found %d dirty lines, want 256", len(buf))
	}
}
