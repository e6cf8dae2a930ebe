package mem

import (
	"math/rand"
	"testing"

	"revive/internal/arch"
)

// The differential checks below drive the compact frame-indexed store and a
// plain map reference with the same operations. Each operation is four
// bytes: kind, two address bytes and a value byte. Addresses fall in the
// first refFrames frames (with a sub-line offset, so unaligned addresses
// are exercised too); a value of zero writes a line back to zero.
const (
	refFrames = 6
	refLines  = refFrames * arch.LinesPerPage
	// farAddr lies far beyond any frame the operations touch.
	farAddr = uint64(1) << 40
)

// memModel is the reference: line-aligned address -> non-zero content,
// plus the loss state.
type memModel struct {
	lines          map[uint64]arch.Data
	lost           bool
	lostLo, lostHi uint64
}

func (r *memModel) lineLost(addr uint64) bool {
	line := addr &^ uint64(arch.LineBytes-1)
	return r.lost || (line >= r.lostLo && line < r.lostHi)
}

func (r *memModel) set(addr uint64, d arch.Data) {
	line := addr &^ uint64(arch.LineBytes-1)
	if d.IsZero() {
		delete(r.lines, line)
	} else {
		r.lines[line] = d
	}
}

// panics reports whether fn panicked.
func panics(fn func()) (p bool) {
	defer func() { p = recover() != nil }()
	fn()
	return false
}

// checkMemoryOps applies ops to a fresh memory and to the reference, and
// after every operation checks Peek, LinesStored, Image and FrameEqual
// against the reference.
func checkMemoryOps(t testing.TB, ops []byte) {
	e, m := newTestMem()
	ref := &memModel{lines: map[uint64]arch.Data{}}
	prevImg, prevRef := m.Image(), map[uint64]arch.Data{}
	for step := 0; step+4 <= len(ops); step += 4 {
		kind, val := ops[step]%16, ops[step+3]
		raw := uint64(ops[step+1])<<8 | uint64(ops[step+2])
		addr := raw%refLines*arch.LineBytes + raw%arch.LineBytes
		// access runs an operation on addr, which must panic exactly when
		// the reference says the line is lost.
		access := func(fn func()) {
			if got, want := panics(fn), ref.lineLost(addr); got != want {
				t.Fatalf("step %d: access at %#x panicked=%v, reference lost=%v", step, addr, got, want)
			}
		}
		switch kind {
		case 0, 1, 2, 3:
			access(func() { m.Poke(addr, lineData(val)) })
			if !ref.lineLost(addr) {
				ref.set(addr, lineData(val))
			}
		case 4:
			access(func() { m.Poke(addr, arch.Data{}) })
			if !ref.lineLost(addr) {
				ref.set(addr, arch.Data{})
			}
		case 5, 6:
			access(func() { m.Write(addr, lineData(val), nil) })
			if !ref.lineLost(addr) {
				ref.set(addr, lineData(val))
			}
		case 7, 8:
			delta := lineData(val)
			access(func() { m.ReadModifyWrite(addr, func(d *arch.Data) { d.XOR(&delta) }, nil) })
			if !ref.lineLost(addr) {
				d := ref.lines[addr&^uint64(arch.LineBytes-1)]
				d.XOR(&delta)
				ref.set(addr, d)
			}
		case 9:
			// A zero write far beyond every frame is a no-op that must
			// not grow the store.
			if !m.Lost() {
				m.Poke(farAddr+addr, arch.Data{})
			}
		case 10, 11:
			lo := raw % (refFrames * arch.PageBytes)
			if val%2 == 0 { // line-aligned bounds half the time
				lo &^= arch.LineBytes - 1
			}
			hi := lo + uint64(val)*(arch.LineBytes/2)
			m.MarkLostRange(lo, hi)
			if !ref.lost && hi > lo {
				if ref.lostHi > ref.lostLo {
					lo, hi = min(lo, ref.lostLo), max(hi, ref.lostHi)
				}
				ref.lostLo, ref.lostHi = lo, hi
				for line := range ref.lines {
					if line >= lo && line < hi {
						delete(ref.lines, line)
					}
				}
			}
		case 12:
			m.RestoreRange()
			ref.lostLo, ref.lostHi = 0, 0
		case 13:
			m.MarkLost()
			ref.lost, ref.lostLo, ref.lostHi = true, 0, 0
			clear(ref.lines)
		case 14:
			m.Restore()
			ref.lost, ref.lostLo, ref.lostHi = false, 0, 0
			clear(ref.lines)
		case 15:
			access(func() { m.Read(addr, func(arch.Data) {}) })
		}
		e.Run()
		checkAgainstModel(t, step, m, ref, prevImg, prevRef)
		prevImg, prevRef = m.Image(), cloneLines(ref.lines)
	}
}

func checkAgainstModel(t testing.TB, step int, m *Memory, ref *memModel,
	prevImg Image, prevRef map[uint64]arch.Data) {
	if len(m.pages) > refFrames {
		t.Fatalf("step %d: store grew to %d frames; only %d were written", step, len(m.pages), refFrames)
	}
	if got, want := m.LinesStored(), len(ref.lines); got != want {
		t.Fatalf("step %d: LinesStored = %d, reference holds %d", step, got, want)
	}
	if m.Lost() != ref.lost {
		t.Fatalf("step %d: Lost() = %v, reference %v", step, m.Lost(), ref.lost)
	}
	img := m.Image()
	for i := uint64(0); i < refLines; i++ {
		addr := i * arch.LineBytes
		want := ref.lines[addr]
		if got := img.Peek(addr); got != want {
			t.Fatalf("step %d: Image.Peek(%#x) = %x, reference %x", step, addr, got[:8], want[:8])
		}
		if got, wantLost := m.LineLost(addr), ref.lineLost(addr); got != wantLost {
			t.Fatalf("step %d: LineLost(%#x) = %v, reference %v", step, addr, got, wantLost)
		}
		if ref.lineLost(addr) {
			continue
		}
		if got := m.Peek(addr + i%arch.LineBytes); got != want {
			t.Fatalf("step %d: Peek(%#x) = %x, reference %x", step, addr, got[:8], want[:8])
		}
	}
	if !ref.lost {
		if got := m.Peek(farAddr); !got.IsZero() {
			t.Fatalf("step %d: Peek far beyond the store is not zero", step)
		}
	}
	if got := img.Peek(farAddr); !got.IsZero() {
		t.Fatalf("step %d: Image.Peek far beyond the store is not zero", step)
	}
	if got, want := img.Equal(prevImg), equalLines(ref.lines, prevRef); got != want {
		t.Fatalf("step %d: Image.Equal(previous) = %v, reference says %v", step, got, want)
	}
	for f := arch.Frame(0); f <= refFrames; f++ {
		lo := uint64(f) << arch.PageShift
		mayBeLost := ref.lost || (lo < ref.lostHi && lo+arch.PageBytes > ref.lostLo)
		want := !mayBeLost
		for off := uint64(0); want && off < arch.LinesPerPage; off++ {
			want = ref.lines[lo+off*arch.LineBytes] == prevRef[lo+off*arch.LineBytes]
		}
		if got := m.FrameEqual(f, prevImg); got != want {
			t.Fatalf("step %d: FrameEqual(%d, previous) = %v, want %v", step, f, got, want)
		}
	}
}

func cloneLines(lines map[uint64]arch.Data) map[uint64]arch.Data {
	out := make(map[uint64]arch.Data, len(lines))
	for k, v := range lines {
		out[k] = v
	}
	return out
}

func equalLines(a, b map[uint64]arch.Data) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// TestStoreMatchesMapReference drives long random operation sequences
// through the compact store and the map reference.
func TestStoreMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for run := 0; run < 20; run++ {
		ops := make([]byte, 4*600)
		rng.Read(ops)
		// Keep most values small so XOR updates often cancel to zero.
		for i := 3; i < len(ops); i += 4 {
			if ops[i] >= 128 {
				ops[i] %= 4
			}
		}
		checkMemoryOps(t, ops)
	}
}

// FuzzMemoryOps runs the same differential check on fuzzer-chosen
// operation sequences (seed corpus in testdata/fuzz/FuzzMemoryOps).
func FuzzMemoryOps(f *testing.F) {
	f.Add([]byte{0, 0, 1, 7, 4, 0, 1, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4*256 {
			ops = ops[:4*256]
		}
		checkMemoryOps(t, ops)
	})
}

// New must not allocate line storage, and Image must copy the store in a
// constant number of allocations regardless of how many lines it holds.
func TestImageAllocsConstant(t *testing.T) {
	_, m := newTestMem()
	if m.pages != nil {
		t.Fatal("New allocated line storage")
	}
	for i := uint64(0); i < 4096; i++ {
		m.Poke(i*3*arch.LineBytes, lineData(byte(i%255+1)))
	}
	if allocs := testing.AllocsPerRun(20, func() { _ = m.Image() }); allocs > 3 {
		t.Fatalf("Image allocates %.0f times for %d lines, want at most 3", allocs, m.LinesStored())
	}
}
