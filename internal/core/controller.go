package core

import (
	"slices"

	"revive/internal/arch"
	"revive/internal/coherence"
	"revive/internal/mem"
	"revive/internal/network"
	"revive/internal/sim"
	"revive/internal/stats"
	"revive/internal/trace"
)

// Step identifies an ordered point in ReVive's log/parity/data update
// sequence. The race-condition tests of section 4.2 inject node loss at
// exactly these points and verify that recovery still restores the
// checkpoint state.
type Step int

const (
	// StepLogDataWritten: the log entry's old-data line and (unvalidated)
	// header are in memory.
	StepLogDataWritten Step = iota
	// StepLogMarkerWritten: the entry's Marker is validated in memory.
	StepLogMarkerWritten
	// StepLogParityApplied: the parity of the entry's data line is
	// updated at the parity home.
	StepLogParityApplied
	// StepLogMarkerParityApplied: the parity of the entry's header line
	// (with the Marker) is updated — strictly after StepLogParityApplied
	// per the atomic-log-update race rule.
	StepLogMarkerParityApplied
	// StepDataWritten: the new data D' is in memory.
	StepDataWritten
	// StepDataParityApplied: the data parity update is applied.
	StepDataParityApplied
)

// String returns a short label for logging and tests.
func (s Step) String() string {
	return [...]string{"log-data", "log-marker", "log-parity", "log-marker-parity",
		"data", "data-parity"}[s]
}

// Steps returns every protocol step in sequence order. The chaos harness
// enumerates injection points from it.
func Steps() []Step {
	return []Step{StepLogDataWritten, StepLogMarkerWritten, StepLogParityApplied,
		StepLogMarkerParityApplied, StepDataWritten, StepDataParityApplied}
}

// ParseStep maps a String() label back to its Step.
func ParseStep(name string) (Step, bool) {
	for _, s := range Steps() {
		if s.String() == name {
			return s, true
		}
	}
	return 0, false
}

// EventCounts tallies the Table 1 event classes, plus the inline-log
// strategy's fit/overflow split (zero under every other backend).
type EventCounts struct {
	WBLogged     uint64 // write-back to memory, already logged (Figure 4)
	RDXNotLogged uint64 // read-exclusive/upgrade, not yet logged (Figure 5(a))
	WBNotLogged  uint64 // write-back, not yet logged (Figure 5(b))

	// InlineFits counts not-yet-logged write-backs whose undo entry fit
	// in the line's spare capacity (inline-log strategy); InlineOverflows
	// counts the ones that spilled to the classic out-of-line log.
	InlineFits      uint64
	InlineOverflows uint64
}

// Controller is one node's ReVive directory-controller extension: the
// Logged-bit table, the hardware log, and the parity-update engine. It
// implements coherence.Extension for lines homed at its node, and handles
// incoming parity updates for parity pages it hosts.
type Controller struct {
	engine  *sim.Engine
	node    arch.NodeID
	topo    arch.Topology
	amap    *arch.AddressMap
	dirs    []*coherence.DirCtrl
	net     network.Fabric
	st      *stats.Stats
	tracker *coherence.Tracker
	peers   []*Controller // indexed by node; set by Wire

	// strategy is the machine's recovery-strategy backend: it decides
	// what WriteIntent/Write/CommitEpoch actually do. NewController
	// installs the default (revive); machine.New overrides it with the
	// machine-wide instance via SetStrategy before any traffic runs.
	strategy Strategy

	log   *HWLog
	lbits lbitTable
	epoch uint64
	// debt is the parity ledger: for every memory line this controller
	// has written whose parity update has not yet been applied remotely,
	// the accumulated XOR delta owed to its parity line. It models the
	// controller's transient-state buffers: writes accrue debt the
	// instant they hit memory; the remote parity application pays it
	// down; after a fail-stop error, recovery Phase 1 settles whatever
	// remains (ReconcileParity). XOR accumulation makes the ledger
	// order-independent.
	debt map[debtKey]arch.Data
	// reconScratch is ReconcileParity's reusable target-sorting buffer;
	// wbFree, logFree and roundFree are the free lists of the write-back,
	// log-append and parity round-trip records. They keep the steady-state
	// event loop allocation-free (single-threaded engine: no
	// synchronization needed).
	reconScratch []debtKey
	wbFree       []*writeBack
	logFree      []*logAppend
	roundFree    []*parityRound

	// DisableLBits is the section 4.1.2 ablation: without the L bit the
	// old content is logged on *every* write-back (still correct; the
	// log is restored newest-first).
	DisableLBits bool
	// DisableEagerLog is the acknowledgments-section ablation: without
	// logging on read-exclusive/upgrade (Figure 5(a)), every first
	// write-back takes the slow Figure 5(b) path that delays the
	// acknowledgment.
	DisableEagerLog bool
	// StepHook, if set, observes every Step transition (race tests).
	StepHook func(Step, arch.LineAddr)
	// BugDataBeforeLog is a deliberately broken build for validating the
	// chaos harness (never set by any production configuration): it
	// inverts the section 4.2 log-before-data ordering on the write-back
	// path, so the log captures the *new* content instead of the
	// checkpoint content. A healthy run is unaffected — parity stays
	// consistent — but any rollback then restores the wrong bytes, which
	// the campaigns' byte-exact oracle must catch.
	BugDataBeforeLog bool
	// halted abandons in-progress update sequences at their next step
	// boundary (fail-stop freeze injected from a StepHook).
	halted bool

	// Events tallies Table 1 event classes.
	Events EventCounts
}

// NewController builds the ReVive extension for one node.
func NewController(engine *sim.Engine, node arch.NodeID, topo arch.Topology,
	amap *arch.AddressMap, dirs []*coherence.DirCtrl, net network.Fabric,
	st *stats.Stats, tracker *coherence.Tracker) *Controller {
	return &Controller{
		engine: engine, node: node, topo: topo, amap: amap, dirs: dirs, net: net,
		st: st, tracker: tracker,
		strategy: reviveStrategy{},
		log:      NewHWLog(node, amap, dirs[node].Mem()),
		lbits:    newLBitTable(),
		debt:     make(map[debtKey]arch.Data),
	}
}

// SetStrategy installs the machine's recovery-strategy backend. Call it
// before any simulated traffic; the instance is shared by all of the
// machine's controllers (conelog keeps machine-global dependence state
// there).
func (c *Controller) SetStrategy(s Strategy) { c.strategy = s }

// Strategy returns the installed backend.
func (c *Controller) Strategy() Strategy { return c.strategy }

// Wire connects the per-node controllers so parity updates can be handled
// at their destination.
func (c *Controller) Wire(peers []*Controller) { c.peers = peers }

// Log exposes the node's hardware log (statistics and recovery).
func (c *Controller) Log() *HWLog { return c.log }

// Node returns the controller's node.
func (c *Controller) Node() arch.NodeID { return c.node }

// Epoch returns the current checkpoint epoch.
func (c *Controller) Epoch() uint64 { return c.epoch }

// Logged reports the L bit of a line (tests).
func (c *Controller) Logged(line arch.LineAddr) bool {
	phys, ok := c.amap.LookupLine(line)
	if !ok || phys.Node != c.node {
		return false
	}
	return c.lbits.get(lineIndex(phys))
}

// ForEachLBit calls fn for every line whose Logged bit is set, in ascending
// line order. Invariant checkers cross-check the L-bit table against the
// log.
func (c *Controller) ForEachLBit(fn func(arch.LineAddr)) {
	c.lbits.forEach(fn)
}

func (c *Controller) hook(s Step, line arch.LineAddr) {
	if c.StepHook != nil {
		c.StepHook(s, line)
	}
}

// hookAbort fires the step hook and reports whether the sequence must be
// abandoned (the hook injected a fail-stop freeze).
func (c *Controller) hookAbort(s Step, line arch.LineAddr) bool {
	c.hook(s, line)
	return c.halted
}

// Halt abandons all in-progress update sequences at their next step
// boundary (fail-stop). Unhalt re-enables the controller for resumption.
func (c *Controller) Halt()   { c.halted = true }
func (c *Controller) Unhalt() { c.halted = false }

func (c *Controller) needsLog(phys arch.PhysLine) bool {
	return !c.lbits.get(lineIndex(phys)) || c.DisableLBits
}

func (c *Controller) local(p arch.PhysLine) arch.PhysLine {
	p.Node = c.node
	return p
}

// --- coherence.Extension ---

// WriteIntent dispatches the Figure 5(a) flow (read-exclusive or upgrade
// for a line homed at this node) to the installed strategy.
func (c *Controller) WriteIntent(line arch.LineAddr, phys arch.PhysLine, release func()) {
	c.strategy.WriteIntent(c, line, phys, release)
}

// Write dispatches the write-back flows (Figure 5(b) logging and the
// Figure 4 data write + parity update) to the installed strategy.
func (c *Controller) Write(line arch.LineAddr, phys arch.PhysLine, data arch.Data,
	ckp bool, ack, release func()) {
	c.strategy.Write(c, line, phys, data, ckp, ack, release)
}

// --- pooled continuation records ---
//
// Each multi-step sequence below (the Figure 4 data write, a log append,
// a parity round trip) runs on a record taken from a per-controller free
// list, whose continuations are method values bound once when the record
// is first built — the pattern of mem.memOp. A sequence therefore
// allocates nothing in the steady state. A record abandoned mid-sequence
// (fail-stop freeze, fabric loss) is simply never returned to its list.

// popRecord takes a record from a free list, or returns nil if it is empty.
func popRecord[T any](free *[]*T) *T {
	n := len(*free)
	if n == 0 {
		return nil
	}
	r := (*free)[n-1]
	(*free)[n-1] = nil
	*free = (*free)[:n-1]
	return r
}

// writeBack carries one Figure 4 data write through its continuations.
type writeBack struct {
	c            *Controller
	line         arch.LineAddr
	phys         arch.PhysLine
	old, data    arch.Data
	ckp          bool
	ack, release func()

	readFn    func(arch.Data) // the re-read of D completed
	writtenFn func()          // D' is in memory
}

func (c *Controller) newWriteBack() *writeBack {
	if w := popRecord(&c.wbFree); w != nil {
		return w
	}
	w := &writeBack{c: c}
	w.readFn, w.writtenFn = w.read, w.written
	return w
}

// dataWrite performs the Figure 4 sequence: read current D (the re-read the
// paper keeps because the directory controller has no data cache), write
// D', acknowledge, update the data parity, release. Under mirroring the
// reads and XOR are omitted (section 3.2.1).
func (c *Controller) dataWrite(line arch.LineAddr, phys arch.PhysLine, data arch.Data,
	ckp bool, ack, release func()) {
	m := c.dirs[c.node].Mem()
	w := c.newWriteBack()
	w.line, w.phys, w.data, w.ckp, w.ack, w.release = line, phys, data, ckp, ack, release
	w.old = m.Peek(phys.MemAddr())
	if c.topo.MirroredFrame(phys.Frame) {
		// Mirroring omits the old-data read and the XOR (section
		// 3.2.1); the delta it ships degenerates to the new content
		// because the mirror copy equals the old data.
		w.write()
		return
	}
	c.st.Mem(stats.ClassParity) // Table 1: the extra read of D
	m.Read(phys.MemAddr(), w.readFn)
}

func (w *writeBack) read(arch.Data) { w.write() }

func (w *writeBack) write() {
	c := w.c
	c.st.Mem(wbClass(w.ckp))
	c.accrue(c.local(w.phys), w.old, w.data)
	c.dirs[c.node].Mem().Write(w.phys.MemAddr(), w.data, w.writtenFn)
}

func (w *writeBack) written() {
	c := w.c
	if c.hookAbort(StepDataWritten, w.line) {
		return
	}
	w.ack()
	u := parityUpdate{
		target: c.topo.ParityOf(c.local(w.phys)),
		delta:  w.old,
		step:   StepDataParityApplied,
		line:   w.line,
	}
	u.delta.XOR(&w.data)
	release := w.release
	w.ack, w.release = nil, nil
	c.wbFree = append(c.wbFree, w)
	c.sendParity(u, release)
}

func wbClass(ckp bool) stats.Class {
	if ckp {
		return stats.ClassCkpWB
	}
	return stats.ClassExeWB
}

// logAppend carries one log entry through its continuations.
type logAppend struct {
	c        *Controller
	line     arch.LineAddr
	hdr, dat arch.PhysLine
	// bareHdr is the header without marker; oldHdr and oldDat the log
	// lines' previous content (reused slots hold stale entries).
	bareHdr, oldHdr, oldDat arch.Data
	entry                   arch.Data // the logged (old) content of line
	u                       parityUpdate
	done                    func()

	writtenFn func()          // the entry's data line is in memory
	readFn    func(arch.Data) // the log-parity read of the data line completed
}

func (c *Controller) newLogAppend() *logAppend {
	if a := popRecord(&c.logFree); a != nil {
		return a
	}
	a := &logAppend{c: c}
	a.writtenFn, a.readFn = a.written, a.read
	return a
}

// appendLog writes one log entry (old content of line) and updates the log
// parity, then runs done. Sequence per section 4.2: entry data + header
// written, marker validated, then one parity round covering the entry (data
// line parity strictly before header/marker parity).
func (c *Controller) appendLog(line arch.LineAddr, old arch.Data, done func()) {
	c.st.Trace.Instant(trace.LogAppend, int(c.node), uint64(line))
	m := c.dirs[c.node].Mem()
	s := c.log.Reserve()
	a := c.newLogAppend()
	a.line, a.entry, a.done = line, old, done
	a.hdr = c.local(s.headerLine())
	a.dat = c.local(s.dataLine())

	// Old content of the log lines for the parity delta. Table 1 charges
	// this read to the log-parity step.
	a.oldHdr = m.Peek(a.hdr.MemAddr())
	a.oldDat = m.Peek(a.dat.MemAddr())

	// Write the entry: data line (timed, the Table 1 "copy data to log"
	// access) and header without marker (piggybacked on the same burst).
	a.bareHdr = encodeHeader(header{line: line, epoch: c.epoch})
	c.accrue(a.hdr, a.oldHdr, a.bareHdr)
	m.Poke(a.hdr.MemAddr(), a.bareHdr)
	c.st.Mem(stats.ClassLog)
	c.accrue(a.dat, a.oldDat, old)
	m.Write(a.dat.MemAddr(), old, a.writtenFn)
}

func (a *logAppend) written() {
	c := a.c
	if c.hookAbort(StepLogDataWritten, a.line) {
		return
	}
	// Validate the Marker (atomic-log-update race: an entry is used by
	// recovery only once its marker is in memory).
	m := c.dirs[c.node].Mem()
	newHdr := encodeHeader(header{line: a.line, epoch: c.epoch, marker: markerValid})
	c.accrue(a.hdr, a.bareHdr, newHdr)
	m.Poke(a.hdr.MemAddr(), newHdr)
	if c.hookAbort(StepLogMarkerWritten, a.line) {
		return
	}

	a.u = parityUpdate{
		target:    c.topo.ParityOf(a.dat),
		delta:     a.oldDat,
		step:      StepLogParityApplied,
		line:      a.line,
		auxValid:  true,
		auxTarget: c.topo.ParityOf(a.hdr),
		auxDelta:  a.oldHdr,
		auxStep:   StepLogMarkerParityApplied,
	}
	a.u.delta.XOR(&a.entry)
	a.u.auxDelta.XOR(&newHdr)
	if c.topo.MirroredFrame(a.dat.Frame) {
		a.send()
		return
	}
	// Table 1: "update log parity" includes reading the old log line
	// content at the home (skipped under mirroring).
	c.st.Mem(stats.ClassParity)
	m.Read(a.dat.MemAddr(), a.readFn)
}

func (a *logAppend) read(arch.Data) { a.send() }

func (a *logAppend) send() {
	c, u, done := a.c, a.u, a.done
	a.done = nil
	c.logFree = append(c.logFree, a)
	c.sendParity(u, done)
}

// writeCkptMarker appends the checkpoint-commit marker entry for epoch
// (phase two of the two-phase commit, section 4.2), then runs done.
func (c *Controller) writeCkptMarker(epoch uint64, done func()) {
	if !c.topo.HasDataFrames(c.node) {
		// A dedicated parity node homes no data, so its log is empty
		// and needs no commit marker.
		done()
		return
	}
	c.st.Trace.Instant(trace.CkptMarker, int(c.node), epoch)
	m := c.dirs[c.node].Mem()
	s := c.log.Reserve()
	hdr := c.local(s.headerLine())
	oldHdr := m.Peek(hdr.MemAddr())
	newHdr := encodeHeader(header{epoch: epoch, marker: markerCkpt})
	c.st.Mem(stats.ClassLog)
	c.accrue(hdr, oldHdr, newHdr)
	m.Write(hdr.MemAddr(), newHdr, func() {
		delta := oldHdr
		delta.XOR(&newHdr)
		c.sendParity(parityUpdate{
			target: c.topo.ParityOf(hdr),
			delta:  delta,
			step:   StepLogMarkerParityApplied,
			line:   0,
		}, done)
	})
}

// CommitEpoch dispatches the checkpoint commit (epoch advance, logging
// state reset, log reclamation) to the installed strategy.
func (c *Controller) CommitEpoch(epoch uint64, retain int) {
	c.strategy.CommitEpoch(c, epoch, retain)
}

// --- distributed parity protocol ---

// parityUpdate is one parity-update message: the XOR delta for a target
// parity line (or the full new content under mirroring), optionally
// carrying a piggybacked header-line update for log entries.
type parityUpdate struct {
	target arch.PhysLine
	delta  arch.Data
	step   Step
	line   arch.LineAddr

	auxValid  bool
	auxTarget arch.PhysLine
	auxDelta  arch.Data
	auxStep   Step
}

// debtKey is a parity line packed into one word for the ledger: the node
// above the line's local memory address (a 32-bit frame plus the page
// offset). Keys order by (node, frame, offset), and a plain integer key
// takes the map's fast path.
type debtKey uint64

const debtNodeShift = 32 + arch.PageShift

func keyOf(p arch.PhysLine) debtKey {
	return debtKey(uint64(p.Node)<<debtNodeShift | p.MemAddr())
}

func (k debtKey) line() arch.PhysLine {
	return arch.PhysLine{
		Node:  arch.NodeID(k >> debtNodeShift),
		Frame: arch.Frame(k >> arch.PageShift), // truncation drops the node
		Off:   uint8(k>>arch.LineShift) & (arch.LinesPerPage - 1),
	}
}

// accrue records parity debt for a write of new over old at data line
// phys, at the instant the memory content changes.
func (c *Controller) accrue(phys arch.PhysLine, old, new arch.Data) {
	d := old
	d.XOR(&new)
	c.settle(keyOf(c.topo.ParityOf(phys)), &d)
}

// payDebt cancels delta from the ledger once the remote parity application
// has happened.
func (c *Controller) payDebt(target arch.PhysLine, delta arch.Data) {
	c.settle(keyOf(target), &delta)
}

// settle folds delta into the ledger entry for k, dropping the entry once
// it nets to zero.
func (c *Controller) settle(k debtKey, delta *arch.Data) {
	d := c.debt[k]
	d.XOR(delta)
	if d.IsZero() {
		delete(c.debt, k)
	} else {
		c.debt[k] = d
	}
}

// ReconcileParity settles the ledger after a fail-stop error (recovery
// Phase 1): every outstanding delta whose parity memory survives is applied
// directly, in sorted target order so that recovery work — and any stats or
// traces it emits — is independent of Go's randomized map-iteration order.
// Deltas whose target parity node is itself lost are moot (Phase 4 rebuilds
// those parity pages from the surviving data) but are counted and traced so
// the rebuild accounting stays complete. A lost node's own controller must
// call DropPending instead — its buffers died with it (and its data is
// reconstructed anyway).
func (c *Controller) ReconcileParity() {
	keys := c.reconScratch[:0]
	for k := range c.debt {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		target := k.line()
		m := c.dirs[target.Node].Mem()
		if m.LineLost(target.MemAddr()) {
			// Fully lost node, or the target parity line sits inside a
			// partially-lost range: either way the parity copy is gone
			// and will be rebuilt from data, so the delta is moot.
			c.st.ParityDebtsDropped++
			c.st.Trace.Instant(trace.ParityDebtDropped, int(c.node), target.MemAddr())
			continue
		}
		c.applyDelta(m, target, c.debt[k])
	}
	c.reconScratch = keys[:0]
	clear(c.debt)
}

// DropPending discards the ledger (the controller itself was lost).
func (c *Controller) DropPending() {
	clear(c.debt)
}

// PendingDebts reports outstanding ledger entries (tests).
func (c *Controller) PendingDebts() int { return len(c.debt) }

// parityRound carries one parity update from its originator to the
// parity line's home and the acknowledgment back (Figure 4's messages 3
// and 4).
//
// Each round is registered with its originating controller until the
// acknowledgment returns. The registry models the controller's transient-
// state buffers: on a fail-stop error, surviving controllers reconcile
// their in-flight updates during recovery Phase 1 (the messages are
// protected by error-detection codes, section 3.1.2); only updates whose
// originating or target controller died are genuinely lost, and those are
// exactly the cases the section 4.2 race arguments cover.
type parityRound struct {
	parityUpdate
	from *Controller // originator, for ledger pay-down and the ack
	done func()

	deliverFn func()           // the update reaches the parity home
	applyFn   func()           // the home's controller-pipeline pass ends
	xorFn     func(*arch.Data) // the modify step of the read-XOR-write
	rmwFn     func(arch.Data)  // the read-XOR-write completed
	writtenFn func()           // the mirror-copy write completed
	ackFn     func()           // the acknowledgment reaches the originator
}

func (c *Controller) newParityRound() *parityRound {
	if r := popRecord(&c.roundFree); r != nil {
		return r
	}
	r := &parityRound{from: c}
	r.deliverFn, r.applyFn, r.xorFn = r.deliver, r.apply, r.xor
	r.rmwFn, r.writtenFn, r.ackFn = r.rmwDone, r.written, r.ack
	return r
}

// sendParity transmits the update to the parity line's home node and runs
// done when the acknowledgment returns. The caller's directory entry stays
// busy for the duration.
func (c *Controller) sendParity(u parityUpdate, done func()) {
	c.tracker.Inc()
	c.st.Trace.AsyncBegin(trace.ParityUpdate, int(c.node), uint64(u.line))
	r := c.newParityRound()
	r.parityUpdate, r.done = u, done
	c.net.Send(network.Message{
		Src: c.node, Dst: u.target.Node, Bytes: network.DataBytes, Class: stats.ClassParity,
		Deliver: r.deliverFn,
	})
}

// home is the controller hosting the round's parity line.
func (r *parityRound) home() *Controller { return r.from.peers[r.target.Node] }

func (r *parityRound) deliver() {
	h := r.home()
	h.engine.At(h.dirs[h.node].Occupy(), r.applyFn)
}

// apply applies the update at the parity line's home after its controller-
// pipeline pass: read-XOR-write of the parity line (the same XOR
// functionally under mirroring, where the "parity" is a copy and the reads
// are skipped — only the timing differs), then the piggybacked header
// update — strictly after the data parity, per the atomic-log-update race
// rule. Each application pays down the originator's ledger at the instant
// the parity content changes.
func (r *parityRound) apply() {
	h := r.home()
	m := h.dirs[h.node].Mem()
	r.from.payDebt(r.target, r.delta)
	if h.topo.MirroredFrame(r.target.Frame) {
		newVal := m.Peek(r.target.MemAddr())
		newVal.XOR(&r.delta)
		h.st.Mem(stats.ClassParity)
		m.Write(r.target.MemAddr(), newVal, r.writtenFn)
		return
	}
	h.st.Mem(stats.ClassParity)
	h.st.Mem(stats.ClassParity)
	m.ReadModifyWrite(r.target.MemAddr(), r.xorFn, r.rmwFn)
}

func (r *parityRound) xor(p *arch.Data) { p.XOR(&r.delta) }

func (r *parityRound) rmwDone(arch.Data) { r.written() }

// written runs once the parity line holds the update: the piggybacked
// header update follows, then the acknowledgment leaves for the originator.
func (r *parityRound) written() {
	h := r.home()
	if h.hookAbort(r.step, r.line) {
		return
	}
	if r.auxValid {
		h.applyDelta(h.dirs[h.node].Mem(), r.auxTarget, r.auxDelta)
		r.from.payDebt(r.auxTarget, r.auxDelta)
		if h.hookAbort(r.auxStep, r.line) {
			return // frozen at the aux step: the ack dies in flight
		}
	}
	r.from.net.Send(network.Message{
		Src: r.target.Node, Dst: r.from.node, Bytes: network.ControlBytes,
		Class: stats.ClassParity, Deliver: r.ackFn,
	})
}

func (r *parityRound) ack() {
	c, done := r.from, r.done
	c.st.Trace.AsyncEnd(trace.ParityUpdate, int(c.node), uint64(r.line))
	c.tracker.Dec()
	r.done = nil
	c.roundFree = append(c.roundFree, r)
	done()
}

// applyDelta folds a piggybacked (uncharged) line update into memory.
// Under mirroring the "parity" copy equals the old data, so the XOR yields
// exactly the new data — one formula covers both organizations.
func (c *Controller) applyDelta(m *mem.Memory, target arch.PhysLine, delta arch.Data) {
	cur := m.Peek(target.MemAddr())
	cur.XOR(&delta)
	m.Poke(target.MemAddr(), cur)
}

// InitEpoch writes the initial checkpoint marker (epoch 0) directly with
// consistent parity, modeling machine initialization: the boot image is
// checkpoint 0, so a rollback before the first periodic checkpoint is
// well-defined.
func (c *Controller) InitEpoch() {
	if !c.topo.HasDataFrames(c.node) {
		return
	}
	s := c.log.Reserve()
	c.pokeWithParity(c.local(s.headerLine()),
		encodeHeader(header{epoch: 0, marker: markerCkpt}))
}

// pokeWithParity updates a line and its parity functionally (no simulated
// time). Initialization and recovery's restoration writes use it; both
// happen outside normal timed execution. The XOR covers mirroring too (the
// copy equals the old data).
func (c *Controller) pokeWithParity(p arch.PhysLine, newData arch.Data) {
	m := c.dirs[p.Node].Mem()
	old := m.Peek(p.MemAddr())
	m.Poke(p.MemAddr(), newData)
	par := c.topo.ParityOf(p)
	pmem := c.dirs[par.Node].Mem()
	if pmem.LineLost(par.MemAddr()) {
		return // the parity copy is gone; phase 4 will rebuild the group
	}
	cur := pmem.Peek(par.MemAddr())
	cur.XOR(&old)
	cur.XOR(&newData)
	pmem.Poke(par.MemAddr(), cur)
}
