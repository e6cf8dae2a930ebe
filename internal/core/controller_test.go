package core

import (
	"testing"
	"testing/quick"

	"revive/internal/arch"
	"revive/internal/coherence"
	"revive/internal/mem"
	"revive/internal/network"
	"revive/internal/sim"
	"revive/internal/stats"
)

// newCtrlRig wires a minimal 8-node machine fragment (no caches, no procs)
// sufficient to exercise the controller's ledger and log paths directly.
func newCtrlRig() (*sim.Engine, []*Controller, *arch.AddressMap) {
	engine := sim.NewEngine()
	st := stats.New()
	tracker := &coherence.Tracker{}
	topo := arch.Topology{Nodes: 8, GroupSize: 8}
	amap := arch.NewAddressMap(topo)
	netCfg := network.DefaultConfig()
	netCfg.DimX, netCfg.DimY = 4, 2
	net := network.MustNew(engine, netCfg, st)
	var dirs []*coherence.DirCtrl
	for n := 0; n < 8; n++ {
		m := mem.New(engine, mem.DefaultConfig())
		dirs = append(dirs, coherence.NewDirCtrl(engine, arch.NodeID(n),
			coherence.DefaultDirConfig(), m, net, amap, st, tracker))
	}
	var ctrls []*Controller
	for n := 0; n < 8; n++ {
		ctrls = append(ctrls, NewController(engine, arch.NodeID(n), topo, amap,
			dirs, net, st, tracker))
	}
	for n := 0; n < 8; n++ {
		ctrls[n].Wire(ctrls)
		ctrls[n].InitEpoch()
	}
	return engine, ctrls, amap
}

func TestLedgerSettlesAfterWrite(t *testing.T) {
	engine, ctrls, amap := newCtrlRig()
	c := ctrls[2]
	line := arch.PageNum(100).FirstLine()
	phys := amap.TouchLine(line, 2)
	var data arch.Data
	data[0] = 0xAA
	acked, released := false, false
	c.Write(line, phys, data, false, func() { acked = true }, func() { released = true })
	engine.Run()
	if !acked || !released {
		t.Fatal("write sequence incomplete")
	}
	// All parity deltas applied: the ledger is empty.
	for n, ctrl := range ctrls {
		if ctrl.PendingDebts() != 0 {
			t.Fatalf("node %d has %d unsettled debts after quiescence", n, ctrl.PendingDebts())
		}
	}
}

func TestLedgerNonEmptyMidFlight(t *testing.T) {
	engine, ctrls, amap := newCtrlRig()
	c := ctrls[2]
	line := arch.PageNum(100).FirstLine()
	phys := amap.TouchLine(line, 2)
	var data arch.Data
	data[7] = 1
	c.Write(line, phys, data, false, func() {}, func() {})
	// Step until the first memory poke accrues debt; the parity round
	// that would settle it is still in flight.
	engine.RunWhile(func() bool { return c.PendingDebts() == 0 })
	if c.PendingDebts() == 0 {
		t.Fatal("no debt ever recorded during the write sequence")
	}
	// Reconciliation settles the ledger and restores the invariant.
	engine.Reset()
	for _, ctrl := range ctrls {
		ctrl.ReconcileParity()
	}
	if c.PendingDebts() != 0 {
		t.Fatal("reconciliation left debts")
	}
	// Parity invariant by hand: the parity line equals the XOR of its
	// whole stripe (which also contains other nodes' log frames at the
	// same frame index).
	topo := arch.Topology{Nodes: 8, GroupSize: 8}
	par := topo.ParityOf(phys)
	var want arch.Data
	for _, q := range topo.DataLinesOf(par) {
		d := ctrls[q.Node].dirs[q.Node].Mem().Peek(q.MemAddr())
		want.XOR(&d)
	}
	got := ctrls[par.Node].dirs[par.Node].Mem().Peek(par.MemAddr())
	if got != want {
		t.Fatalf("parity %x != stripe XOR %x after reconcile", got[:8], want[:8])
	}
}

func TestWriteIntentLogsOnce(t *testing.T) {
	engine, ctrls, amap := newCtrlRig()
	c := ctrls[3]
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
	// Initial marker + exactly one data entry.
	if got := c.Log().Entries(); got != 2 {
		t.Fatalf("log entries = %d, want 2 (marker + one entry)", got)
	}
	if c.Events.RDXNotLogged != 1 {
		t.Fatalf("RDXNotLogged = %d, want 1", c.Events.RDXNotLogged)
	}
}

func TestCommitEpochClearsLBits(t *testing.T) {
	engine, ctrls, amap := newCtrlRig()
	c := ctrls[3]
	line := arch.PageNum(5).FirstLine()
	phys := amap.TouchLine(line, 3)
	c.WriteIntent(line, phys, func() {})
	engine.Run()
	if !c.Logged(line) {
		t.Fatal("L bit not set")
	}
	c.CommitEpoch(1, 2)
	if c.Logged(line) {
		t.Fatal("L bit survived the gang-clear")
	}
}

// Property: the ledger's XOR algebra — any interleaving of accruals and
// matching pay-downs nets to zero; unmatched accruals remain.
func TestPropertyLedgerAlgebra(t *testing.T) {
	_, ctrls, amap := newCtrlRig()
	c := ctrls[1]
	topo := arch.Topology{Nodes: 8, GroupSize: 8}
	f := func(writes []struct {
		Page uint8
		Off  uint8
		Val  uint8
	}) bool {
		type rec struct {
			target arch.PhysLine
			delta  arch.Data
		}
		var open []rec
		for _, w := range writes {
			l := arch.PageNum(200+uint64(w.Page)%8).FirstLine() + arch.LineAddr(w.Off%64)
			phys := amap.TouchLine(l, 1)
			if phys.Node != 1 {
				continue
			}
			m := c.dirs[1].Mem()
			old := m.Peek(phys.MemAddr())
			var newData arch.Data
			newData[0] = w.Val
			c.accrue(phys, old, newData)
			m.Poke(phys.MemAddr(), newData)
			delta := old
			delta.XOR(&newData)
			open = append(open, rec{target: topo.ParityOf(phys), delta: delta})
		}
		// Pay every recorded delta down: the ledger must empty.
		for _, r := range open {
			c.payDebt(r.target, r.delta)
		}
		return c.PendingDebts() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Pin the pooled continuation records: once a sequence's records exist,
// a whole parity round trip — send, the home's read-XOR-write, the
// acknowledgment, the ledger pay-down — allocates nothing.
func TestParityRoundTripZeroAlloc(t *testing.T) {
	engine, ctrls, amap := newCtrlRig()
	c := ctrls[2]
	line := arch.PageNum(100).FirstLine()
	phys := amap.TouchLine(line, 2)
	target := c.topo.ParityOf(phys)
	var oldD, newD arch.Data
	newD[0] = 0x5A
	delta := oldD
	delta.XOR(&newD)
	done := func() {}
	round := func() {
		c.accrue(phys, oldD, newD)
		c.sendParity(parityUpdate{target: target, delta: delta,
			step: StepDataParityApplied, line: line}, done)
		engine.Run()
	}
	round()
	if allocs := testing.AllocsPerRun(1000, round); allocs != 0 {
		t.Fatalf("parity round trip allocates %.1f per op, want 0", allocs)
	}
	if c.PendingDebts() != 0 {
		t.Fatal("ledger not settled after the round trips")
	}
}

// The Figure 4 data write (re-read of D, write of D', acknowledgment and
// the parity round) allocates nothing in the steady state.
func TestDataWriteZeroAlloc(t *testing.T) {
	engine, ctrls, amap := newCtrlRig()
	c := ctrls[2]
	line := arch.PageNum(100).FirstLine()
	phys := amap.TouchLine(line, 2)
	var data arch.Data
	ack, release := func() {}, func() {}
	write := func() {
		data[0]++ // a new value every time, so D' differs from D
		c.dataWrite(line, phys, data, false, ack, release)
		engine.Run()
	}
	write()
	if allocs := testing.AllocsPerRun(1000, write); allocs != 0 {
		t.Fatalf("dataWrite allocates %.1f per op, want 0", allocs)
	}
	if got := c.dirs[2].Mem().Peek(phys.MemAddr()); got != data {
		t.Fatal("memory does not hold the last write")
	}
}

// A log append (entry data and header, marker validation, the log-parity
// round) allocates nothing once its records exist. Truncating back to the
// epoch-0 marker after each append makes every append reuse the same slot,
// as the ring does after reclamation, so the log's own growth (a new frame
// every few dozen entries) stays out of the measurement.
func TestAppendLogZeroAlloc(t *testing.T) {
	engine, ctrls, _ := newCtrlRig()
	c := ctrls[3]
	line := arch.PageNum(7).FirstLine()
	var old arch.Data
	done := func() {}
	appendOne := func() {
		old[0]++
		c.appendLog(line, old, done)
		engine.Run()
		if err := c.log.TruncateAtMarker(0); err != nil {
			t.Fatal(err)
		}
	}
	appendOne()
	if allocs := testing.AllocsPerRun(1000, appendOne); allocs != 0 {
		t.Fatalf("appendLog allocates %.1f per op, want 0", allocs)
	}
	if c.PendingDebts() != 0 {
		t.Fatal("ledger not settled after the appends")
	}
}

// Property: a ledger key round-trips to its parity line, and keys order
// exactly as (node, frame, offset) — the order ReconcileParity settles in.
func TestPropertyDebtKeyOrderAndRoundTrip(t *testing.T) {
	line := func(n uint8, f uint32, off uint8) arch.PhysLine {
		return arch.PhysLine{Node: arch.NodeID(n), Frame: arch.Frame(f), Off: off % arch.LinesPerPage}
	}
	less := func(a, b arch.PhysLine) bool {
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		if a.Frame != b.Frame {
			return a.Frame < b.Frame
		}
		return a.Off < b.Off
	}
	f := func(an uint8, af uint32, ao uint8, bn uint8, bf uint32, bo uint8) bool {
		full := line(an, af, ao)
		// Small ranges make ties on node and frame common.
		a, b := line(an%3, af%3, ao%3), line(bn%3, bf%3, bo%3)
		return keyOf(full).line() == full && (keyOf(a) < keyOf(b)) == less(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
