package mem

import (
	"testing"
	"testing/quick"

	"revive/internal/arch"
	"revive/internal/sim"
)

func newTestMem() (*sim.Engine, *Memory) {
	e := sim.NewEngine()
	return e, New(e, DefaultConfig())
}

func lineData(b byte) arch.Data {
	var d arch.Data
	for i := range d {
		d[i] = b
	}
	return d
}

func TestReadOfUnwrittenLineIsZero(t *testing.T) {
	e, m := newTestMem()
	var got arch.Data
	done := false
	m.Read(0x1000, func(d arch.Data) { got = d; done = true })
	e.Run()
	if !done {
		t.Fatal("read never completed")
	}
	if !got.IsZero() {
		t.Fatal("unwritten line not zero")
	}
}

func TestWriteThenReadReturnsData(t *testing.T) {
	e, m := newTestMem()
	want := lineData(0xAB)
	m.Write(0x40, want, nil)
	var got arch.Data
	m.Read(0x40, func(d arch.Data) { got = d })
	e.Run()
	if got != want {
		t.Fatal("read did not return written data")
	}
}

func TestAccessTakesRowMissLatency(t *testing.T) {
	e, m := newTestMem()
	var completed sim.Time
	m.Read(0, func(arch.Data) { completed = e.Now() })
	e.Run()
	// First access: row miss (60) + port (20).
	if completed != 80 {
		t.Fatalf("first access completed at %d, want 80", completed)
	}
}

func TestRowHitIsFaster(t *testing.T) {
	// Two reads to the same row on the same bank: second pays row-hit.
	e, m := newTestMem()
	var t1, t2 sim.Time
	m.Read(0, func(arch.Data) { t1 = e.Now() })
	e.Run()
	// Same line again: same bank, same row -> 30 + 20, but bank was free.
	m.Read(0, func(arch.Data) { t2 = e.Now() })
	e.Run()
	if d := t2 - t1; d != 50 {
		t.Fatalf("row-hit access took %d, want 50", d)
	}
}

func TestDifferentBanksOverlap(t *testing.T) {
	e, m := newTestMem()
	var done []sim.Time
	// Lines 0 and 1 map to banks 0 and 1: bank latencies overlap, the
	// shared port serializes only the 20ns transfers.
	m.Read(0*arch.LineBytes, func(arch.Data) { done = append(done, e.Now()) })
	m.Read(1*arch.LineBytes, func(arch.Data) { done = append(done, e.Now()) })
	e.Run()
	if done[0] != 80 {
		t.Fatalf("first done at %d, want 80", done[0])
	}
	if done[1] != 100 { // bank done at 60, port free at 80, +20
		t.Fatalf("second done at %d, want 100", done[1])
	}
}

func TestSameBankSerializes(t *testing.T) {
	e, m := newTestMem()
	cfg := DefaultConfig()
	var done []sim.Time
	// Same bank (same line), different rows: both row misses, serialized.
	a1 := uint64(0)
	a2 := cfg.RowBytes * uint64(cfg.Banks) // same bank 0, different row
	m.Read(a1, func(arch.Data) { done = append(done, e.Now()) })
	m.Read(a2, func(arch.Data) { done = append(done, e.Now()) })
	e.Run()
	if done[0] != 80 || done[1] != 140 { // second: bank 60..120, port +20
		t.Fatalf("done times = %v, want [80 140]", done)
	}
}

func TestReadModifyWrite(t *testing.T) {
	e, m := newTestMem()
	m.Write(0x80, lineData(0x0F), nil)
	e.Run()
	delta := lineData(0xF0)
	var old arch.Data
	m.ReadModifyWrite(0x80, func(d *arch.Data) { d.XOR(&delta) }, func(o arch.Data) { old = o })
	e.Run()
	if old != lineData(0x0F) {
		t.Fatal("RMW old value wrong")
	}
	if got := m.Peek(0x80); got != lineData(0xFF) {
		t.Fatal("RMW result wrong")
	}
}

func TestRMWCountsTwoAccesses(t *testing.T) {
	e, m := newTestMem()
	m.ReadModifyWrite(0, func(*arch.Data) {}, nil)
	e.Run()
	if m.Accesses != 2 {
		t.Fatalf("RMW accesses = %d, want 2", m.Accesses)
	}
}

func TestSubLineAddressesAlias(t *testing.T) {
	e, m := newTestMem()
	m.Write(0x100, lineData(1), nil)
	var got arch.Data
	m.Read(0x100+17, func(d arch.Data) { got = d })
	e.Run()
	if got != lineData(1) {
		t.Fatal("sub-line address did not alias to same line")
	}
}

func TestZeroLineIsNotStored(t *testing.T) {
	_, m := newTestMem()
	m.Poke(0x40, lineData(5))
	if m.LinesStored() != 1 {
		t.Fatalf("LinesStored = %d, want 1", m.LinesStored())
	}
	m.Poke(0x40, arch.Data{})
	if m.LinesStored() != 0 {
		t.Fatalf("LinesStored after zeroing = %d, want 0", m.LinesStored())
	}
}

func TestMarkLostDestroysAndPanics(t *testing.T) {
	_, m := newTestMem()
	m.Poke(0, lineData(9))
	m.MarkLost()
	if !m.Lost() {
		t.Fatal("Lost() false after MarkLost")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Peek of lost memory did not panic")
		}
	}()
	m.Peek(0)
}

func TestRestoreAfterLoss(t *testing.T) {
	_, m := newTestMem()
	m.Poke(0, lineData(9))
	m.MarkLost()
	m.Restore()
	if m.Lost() {
		t.Fatal("still lost after Restore")
	}
	if got := m.Peek(0); !got.IsZero() {
		t.Fatal("Restore kept old contents")
	}
}

func TestImageIsDeepCopy(t *testing.T) {
	_, m := newTestMem()
	m.Poke(0x40, lineData(3))
	img := m.Image()
	m.Poke(0x40, lineData(4))
	if img.Peek(0x40) != lineData(3) {
		t.Fatal("image mutated by later write")
	}
}

// Property: a sequence of pokes followed by peeks behaves like a map of
// line-aligned addresses (last write wins).
func TestPropertyLastWriteWins(t *testing.T) {
	f := func(ops []struct {
		Addr uint16
		Val  byte
	}) bool {
		_, m := newTestMem()
		model := map[uint64]arch.Data{}
		for _, op := range ops {
			a := uint64(op.Addr) &^ uint64(arch.LineBytes-1)
			d := lineData(op.Val)
			m.Poke(a, d)
			model[a] = d
		}
		for a, want := range model {
			if m.Peek(a) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: accesses never complete before the minimum possible latency
// (row hit + port) and Accesses counts every operation.
func TestPropertyMinimumLatency(t *testing.T) {
	f := func(addrsRaw []uint16) bool {
		e, m := newTestMem()
		issued := e.Now()
		ok := true
		for _, a := range addrsRaw {
			m.Read(uint64(a), func(arch.Data) {
				if e.Now()-issued < 50 { // rowHit 30 + port 20
					ok = false
				}
			})
		}
		e.Run()
		return ok && m.Accesses == uint64(len(addrsRaw))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Pin the hot-path win: timed reads and read-modify-writes reuse pooled
// completion ops and the RMW scratch line, so the steady state of the
// parity/log memory traffic allocates nothing.
func TestAccessZeroAlloc(t *testing.T) {
	e, m := newTestMem()
	var d arch.Data
	d[0] = 1
	m.Poke(0, d)
	readDone := func(arch.Data) {}
	xor := func(l *arch.Data) { l.XOR(&d) }
	m.Read(0, readDone)
	m.ReadModifyWrite(0, xor, readDone)
	e.Run()
	if allocs := testing.AllocsPerRun(1000, func() {
		m.Read(0, readDone)
		e.Run()
	}); allocs != 0 {
		t.Fatalf("steady-state Read allocates %.1f per op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		m.ReadModifyWrite(0, xor, readDone)
		e.Run()
	}); allocs != 0 {
		t.Fatalf("steady-state ReadModifyWrite allocates %.1f per op, want 0", allocs)
	}
}

func TestMarkLostRangeDestroysOnlyTheRange(t *testing.T) {
	_, m := newTestMem()
	m.Poke(0x000, lineData(1)) // below the range: survives
	m.Poke(0x100, lineData(2)) // inside: destroyed
	m.Poke(0x300, lineData(3)) // above: survives
	m.MarkLostRange(0x100, 0x200)
	if m.Lost() {
		t.Fatal("partial loss reported the whole module lost")
	}
	if !m.PartialLost() {
		t.Fatal("PartialLost() false after MarkLostRange")
	}
	if lo, hi := m.LostRange(); lo != 0x100 || hi != 0x200 {
		t.Fatalf("LostRange = [%#x, %#x), want [0x100, 0x200)", lo, hi)
	}
	if m.LineLost(0x000) || m.LineLost(0x300) {
		t.Fatal("surviving lines flagged lost")
	}
	if !m.LineLost(0x100) || !m.LineLost(0x1c0) {
		t.Fatal("lines inside the range not flagged lost")
	}
	if got := m.Peek(0x000); got != lineData(1) {
		t.Fatal("surviving line below the range lost its content")
	}
	if got := m.Peek(0x300); got != lineData(3) {
		t.Fatal("surviving line above the range lost its content")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Peek inside the lost range did not panic")
		}
	}()
	m.Peek(0x100)
}

func TestMarkLostRangeWidensToConvexHull(t *testing.T) {
	_, m := newTestMem()
	m.Poke(0x240, lineData(7)) // between the two marked ranges
	m.MarkLostRange(0x100, 0x200)
	m.MarkLostRange(0x300, 0x400)
	lo, hi := m.LostRange()
	if lo != 0x100 || hi != 0x400 {
		t.Fatalf("two disjoint ranges gave [%#x, %#x), want the hull [0x100, 0x400)", lo, hi)
	}
	// The hull swallowed the line between the ranges: it is lost too.
	if !m.LineLost(0x240) {
		t.Fatal("line between the widened ranges not flagged lost")
	}
}

func TestRestoreRangeClearsPartialLoss(t *testing.T) {
	_, m := newTestMem()
	m.Poke(0x100, lineData(5))
	m.MarkLostRange(0x100, 0x200)
	m.RestoreRange()
	if m.PartialLost() || m.LineLost(0x100) {
		t.Fatal("still partially lost after RestoreRange")
	}
	if got := m.Peek(0x100); !got.IsZero() {
		t.Fatal("RestoreRange kept destroyed content; it must read as zeroes until rebuilt")
	}
}

func TestMarkLostSubsumesPartialRange(t *testing.T) {
	_, m := newTestMem()
	m.MarkLostRange(0x100, 0x200)
	m.MarkLost()
	if !m.Lost() || m.PartialLost() {
		t.Fatal("full loss did not subsume the partial range")
	}
	// And the other direction: a range marked on a fully-lost module is a
	// no-op, not a downgrade.
	m.MarkLostRange(0x300, 0x400)
	if m.PartialLost() {
		t.Fatal("partial mark downgraded a full loss")
	}
}
