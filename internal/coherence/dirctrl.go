package coherence

import (
	"fmt"
	"slices"

	"revive/internal/arch"
	"revive/internal/mem"
	"revive/internal/network"
	"revive/internal/sim"
	"revive/internal/stats"
)

// dirState is the stable directory state of a line at its home.
type dirState uint8

const (
	dirUncached dirState = iota // no cached copies
	dirShared                   // read-only copies at `sharers`
	dirExcl                     // single (possibly dirty) copy at `owner`
)

// reqKind tags a request in a directory entry's pending queue.
type reqKind uint8

const (
	reqGETS reqKind = iota
	reqGETX
	reqUPG
	reqWB
	reqRepl
)

// pendingReq is one queued request for a busy line. Typed (rather than an
// opaque closure) so that a transaction waiting for the owner's data can
// find and consume a queued eviction from that owner.
type pendingReq struct {
	kind reqKind
	req  arch.NodeID
	data arch.Data
	ckp  bool
	keep bool
}

// evictKind tags the message that answers a transaction's wait for the
// owner's copy.
type evictKind uint8

const (
	evFetchResp evictKind = iota // intervention answered from the owner's cache
	evWB                         // owner's write-back crossed the intervention
	evRepl                       // owner's clean replacement hint crossed it
)

// ownerData is the answer a transaction receives when it asked the owner
// for a line: either the intervention response, or — when the probe missed
// because the owner evicted the line concurrently — the eviction message
// itself, consumed by the waiting transaction.
type ownerData struct {
	kind  evictKind
	dirty bool
	data  arch.Data
	ckp   bool // consumed WB was checkpoint-flush traffic
}

// dirEntry is the per-line directory state plus transaction serialization.
type dirEntry struct {
	state   dirState
	sharers SharerSet
	owner   arch.NodeID

	busy    bool
	waiting []pendingReq

	// Active-transaction continuations, bound methods of the line's txn
	// record. ownerWait is non-nil while the transaction waits for data
	// from the owner (a crossing WB/REPL from that owner is consumed by
	// it); invWait counts outstanding invalidation acknowledgments.
	ownerWait     func(ownerData)
	ownerWaitNode arch.NodeID
	// staleProbeResp counts probe responses that are still in flight but
	// already answered by a crossing eviction message (the eviction is
	// FIFO-ordered ahead of the probe's miss response, so the response
	// must be discarded when it arrives).
	staleProbeResp int
	invWait        int
	invDone        func()
}

// DirCtrl is one node's home directory controller: it serializes all
// transactions for lines homed at this node, drives the local memory, and
// invokes the ReVive extension hooks at the protocol points of Figures 4
// and 5 of the paper.
//
// Protocol state changes take effect at message arrival; timing (pipeline
// occupancy, memory latency, network latency) only delays the visible
// completions. This keeps state transitions atomic in arrival order, which
// is what the real controller's serialization guarantees.
type DirCtrl struct {
	engine  *sim.Engine
	node    arch.NodeID
	cfg     DirConfig
	mem     *mem.Memory
	amap    *arch.AddressMap
	st      *stats.Stats
	tracker *Tracker
	ext     Extension
	caches  []*CacheCtrl
	pipe    *sim.Resource
	entries map[arch.LineAddr]*dirEntry

	msgs    msgPool // free list of the messages this controller sends
	txnFree []*txn  // free list of transaction records

	// DroppedWBKeep counts checkpoint write-backs that arrived after
	// ownership had already migrated (benign race; the data traveled
	// with the intervention instead).
	DroppedWBKeep uint64
}

// NewDirCtrl builds the home controller for one node. Wire the cache
// controllers afterwards with SetCaches.
func NewDirCtrl(engine *sim.Engine, node arch.NodeID, cfg DirConfig, m *mem.Memory,
	net network.Fabric, amap *arch.AddressMap, st *stats.Stats, tracker *Tracker) *DirCtrl {
	return &DirCtrl{
		engine: engine, node: node, cfg: cfg, mem: m, amap: amap,
		st: st, tracker: tracker,
		pipe:    sim.NewResource(engine),
		entries: make(map[arch.LineAddr]*dirEntry),
		msgs:    msgPool{net: net},
	}
}

// SetCaches wires the machine's cache controllers (indexed by node).
func (d *DirCtrl) SetCaches(caches []*CacheCtrl) { d.caches = caches }

// SetExtension installs the ReVive hooks. nil is the baseline machine.
func (d *DirCtrl) SetExtension(ext Extension) { d.ext = ext }

// Node returns the controller's node.
func (d *DirCtrl) Node() arch.NodeID { return d.node }

// Mem returns the node's local memory (the ReVive extension drives it for
// log writes and parity updates).
func (d *DirCtrl) Mem() *mem.Memory { return d.mem }

// Occupy books one pass through the controller pipeline and returns the
// completion time. The ReVive parity handler at a parity page's home uses
// this, so parity updates contend with regular directory work exactly as
// in the paper.
func (d *DirCtrl) Occupy() sim.Time {
	return d.pipe.Reserve(d.cfg.Occupancy) + d.cfg.Latency
}

func (d *DirCtrl) entry(line arch.LineAddr) *dirEntry {
	e := d.entries[line]
	if e == nil {
		e = &dirEntry{}
		d.entries[line] = e
	}
	return e
}

// Entries returns the number of directory entries materialized.
func (d *DirCtrl) Entries() int { return len(d.entries) }

// dispatch starts pr as the line's active transaction, or queues it.
func (d *DirCtrl) dispatch(line arch.LineAddr, pr pendingReq) {
	e := d.entry(line)
	if e.busy {
		e.waiting = append(e.waiting, pr)
		return
	}
	e.busy = true
	d.tracker.Inc()
	d.run(e, line, pr)
}

// run starts pr on a transaction record.
func (d *DirCtrl) run(e *dirEntry, line arch.LineAddr, pr pendingReq) {
	t := d.newTxn()
	t.e, t.line, t.kind, t.req, t.ckp = e, line, pr.kind, pr.req, pr.ckp
	switch pr.kind {
	case reqGETS:
		t.gets()
	case reqGETX:
		t.getx()
	case reqUPG:
		t.upg()
	case reqWB:
		t.wb(&pr.data, pr.keep)
	case reqRepl:
		t.repl()
	}
}

// release ends the line's active transaction and starts the next queued
// request, if any.
func (d *DirCtrl) release(line arch.LineAddr) {
	e := d.entry(line)
	if !e.busy {
		panic("coherence: release of idle entry")
	}
	if e.ownerWait != nil || e.invWait != 0 {
		panic("coherence: release with pending continuations")
	}
	e.busy = false
	d.tracker.Dec()
	if len(e.waiting) > 0 {
		next := e.waiting[0]
		// Shift down rather than reslice, so the queue keeps its backing
		// array (queues are a few requests long).
		n := copy(e.waiting, e.waiting[1:])
		e.waiting = e.waiting[:n]
		e.busy = true
		d.tracker.Inc()
		d.run(e, line, next)
	}
}

func (d *DirCtrl) phys(line arch.LineAddr) arch.PhysLine {
	p, ok := d.amap.LookupLine(line)
	if !ok || p.Node != d.node {
		panic(fmt.Sprintf("coherence: node %d is not home of line %#x", d.node, line))
	}
	return p
}

// cacheMsg addresses a message from this home to dst's cache controller.
// The caller fills in the payload and transmits it.
func (d *DirCtrl) cacheMsg(kind msgKind, dst arch.NodeID, line arch.LineAddr, bytes int,
	class stats.Class) *msg {
	m := d.msgs.get(kind, d.node, dst, line, bytes, class)
	m.cache = d.caches[dst]
	return m
}

// feedOwnerWait hands the waiting transaction its answer. When the answer
// is a crossing eviction message (not the probe response itself), the
// probe's eventual miss response becomes stale and will be discarded.
func (d *DirCtrl) feedOwnerWait(line arch.LineAddr, od ownerData) {
	e := d.entry(line)
	w := e.ownerWait
	e.ownerWait = nil
	if od.kind != evFetchResp {
		e.staleProbeResp++
	}
	w(od)
}

// --- message handlers (run when a home-bound message leaves the pipeline) ---

// wbArrived handles a write-back. keep=false is an eviction (the owner
// gives the line up); keep=true is a checkpoint-flush write-back where the
// owner retains a clean exclusive copy. ckp marks checkpoint traffic.
func (d *DirCtrl) wbArrived(req arch.NodeID, line arch.LineAddr, data *arch.Data, ckp, keep bool) {
	e := d.entry(line)
	// A write-back crossing an intervention in flight is consumed by the
	// waiting transaction as the owner's answer. The evictor is still
	// acknowledged (it tracks the write-back as outstanding).
	if e.ownerWait != nil && e.ownerWaitNode == req && !keep {
		d.ackWB(req, line, ckp)
		d.feedOwnerWait(line, ownerData{kind: evWB, dirty: true, data: *data, ckp: ckp})
		return
	}
	d.dispatch(line, pendingReq{kind: reqWB, req: req, data: *data, ckp: ckp, keep: keep})
}

// replArrived handles a clean-exclusive replacement hint.
func (d *DirCtrl) replArrived(req arch.NodeID, line arch.LineAddr) {
	e := d.entry(line)
	if e.ownerWait != nil && e.ownerWaitNode == req {
		d.feedOwnerWait(line, ownerData{kind: evRepl})
		return
	}
	d.dispatch(line, pendingReq{kind: reqRepl, req: req})
}

// fetchRespArrived delivers an intervention answer to the waiting
// transaction.
func (d *DirCtrl) fetchRespArrived(from arch.NodeID, line arch.LineAddr, found, dirty bool, data *arch.Data) {
	e := d.entry(line)
	if e.ownerWait == nil || e.ownerWaitNode != from {
		if e.staleProbeResp > 0 && !found {
			// The transaction already consumed the owner's crossing
			// eviction; this is the probe's late miss response.
			e.staleProbeResp--
			return
		}
		panic("coherence: unexpected fetch response")
	}
	if found {
		d.feedOwnerWait(line, ownerData{kind: evFetchResp, dirty: dirty, data: *data})
		return
	}
	// The owner evicted concurrently. Its WB or Repl either already sits
	// in this line's queue (it arrived while the entry was busy) or is
	// still in flight (it will be consumed on arrival).
	for i, pr := range e.waiting {
		if pr.req != from || (pr.kind != reqWB && pr.kind != reqRepl) || pr.keep {
			continue
		}
		e.waiting = append(e.waiting[:i], e.waiting[i+1:]...)
		if pr.kind == reqWB {
			d.ackWB(from, line, pr.ckp)
		}
		w := e.ownerWait
		e.ownerWait = nil
		if pr.kind == reqWB {
			w(ownerData{kind: evWB, dirty: true, data: pr.data, ckp: pr.ckp})
		} else {
			w(ownerData{kind: evRepl})
		}
		return
	}
	// Keep waiting: the eviction message is still in flight and will be
	// consumed on arrival (this response itself resolves nothing).
}

// invAckArrived delivers one invalidation acknowledgment to the waiting
// transaction.
func (d *DirCtrl) invAckArrived(line arch.LineAddr) {
	e := d.entry(line)
	if e.invWait <= 0 {
		panic("coherence: unexpected invalidation ack")
	}
	e.invWait--
	if e.invWait == 0 {
		fn := e.invDone
		e.invDone = nil
		fn()
	}
}

// --- transactions (run with the entry busy) ---

// txn is the active transaction of one busy directory entry, from dispatch
// to release. The home serializes each line, so a busy entry has exactly
// one record. Like msg, records are pooled per controller and their
// continuations — the memory read feeding a data reply, the owner's answer
// to an intervention, the last invalidation acknowledgment, the memory
// write's acknowledgment and completion, the write-intent release — are
// method values bound once, so a transaction allocates nothing in the
// steady state. A record abandoned by a fail-stop freeze is never
// returned to its list.
type txn struct {
	d     *DirCtrl
	e     *dirEntry
	line  arch.LineAddr
	kind  reqKind // reqGETS, reqGETX (also an upgrade fallen back), reqUPG, reqWB, reqRepl
	req   arch.NodeID
	ckp   bool        // reqWB: checkpoint traffic
	owner arch.NodeID // reqGETS on an exclusive line: the previous owner
	fill  cacheFill   // the permission a pending memory read will grant
	step  txnStep     // what follows the pending memory read's reply

	memReadFn    func(arch.Data) // replyFromMemory's read completed
	ownerFn      func(ownerData) // the owner answered (or its eviction crossed)
	invDoneFn    func()          // every invalidation is acknowledged
	ackFn        func()          // writeMemory: the write-back may be acknowledged
	writtenFn    func()          // writeMemory: the write sequence is complete
	memWrittenFn func()          // baseline writeMemory: the DRAM write completed
	releaseFn    func()          // writeIntent: the entry may leave its transient state
}

// txnStep selects what a transaction does once the memory read behind its
// data reply completes.
type txnStep uint8

const (
	stepGrantExclusive txnStep = iota // read: the requester becomes the clean exclusive owner
	stepAddSharer                     // read: the requester joins the sharers
	stepGrantWrite                    // read-exclusive: the requester becomes the owner; write intent follows
)

func (d *DirCtrl) newTxn() *txn {
	if n := len(d.txnFree); n > 0 {
		t := d.txnFree[n-1]
		d.txnFree[n-1] = nil
		d.txnFree = d.txnFree[:n-1]
		return t
	}
	t := &txn{d: d}
	t.memReadFn, t.ownerFn, t.invDoneFn = t.memRead, t.ownerAnswer, t.invDone
	t.ackFn, t.writtenFn, t.memWrittenFn, t.releaseFn = t.ack, t.written, t.memWritten, t.release
	return t
}

// release ends the transaction: the record rejoins the free list before
// the entry is released, so the next queued request reuses it.
func (t *txn) release() {
	d, line := t.d, t.line
	t.e = nil
	d.txnFree = append(d.txnFree, t)
	d.release(line)
}

func (t *txn) gets() {
	e := t.e
	switch e.state {
	case dirUncached:
		t.replyFromMemory(cacheFillExclusive, stepGrantExclusive)
	case dirShared:
		t.replyFromMemory(cacheFillShared, stepAddSharer)
	case dirExcl:
		if e.owner == t.req {
			panic("coherence: GETS from current owner")
		}
		t.owner = e.owner
		t.probeOwner(e.owner, false)
	}
}

func (t *txn) getx() {
	e := t.e
	switch e.state {
	case dirUncached:
		t.replyFromMemory(cacheFillModified, stepGrantWrite)
	case dirShared:
		t.invalidateSharers(e.sharers.CopyWithout(t.req))
	case dirExcl:
		if e.owner == t.req {
			panic("coherence: GETX from current owner")
		}
		t.probeOwner(e.owner, true)
	}
}

func (t *txn) upg() {
	e := t.e
	if e.state != dirShared || !e.sharers.Has(t.req) {
		// The requester's shared copy is gone (invalidated by an
		// earlier-serialized write): fall back to a full read-exclusive.
		t.kind = reqGETX
		t.getx()
		return
	}
	t.invalidateSharers(e.sharers.CopyWithout(t.req))
}

// invDone continues a read-exclusive or upgrade once every other sharer
// has acknowledged its invalidation.
func (t *txn) invDone() {
	if t.kind == reqGETX {
		t.replyFromMemory(cacheFillModified, stepGrantWrite)
		return
	}
	// Upgrade permission is granted immediately (Figure 5(a)); no data
	// reply is needed.
	d, e := t.d, t.e
	e.state, e.owner = dirExcl, t.req
	e.sharers.Clear()
	d.cacheMsg(msgUpgAck, t.req, t.line, network.ControlBytes, stats.ClassRead).transmit()
	t.writeIntent()
}

// ownerAnswer continues a read or read-exclusive of an exclusively held
// line with the owner's answer, or with the owner's crossing eviction.
func (t *txn) ownerAnswer(od ownerData) {
	d, e := t.d, t.e
	if t.kind == reqGETS {
		switch od.kind {
		case evFetchResp:
			d.reply(t.req, t.line, cacheFillShared, &od.data)
			e.state = dirShared
			e.sharers.Clear()
			e.sharers.Add(t.owner)
			e.sharers.Add(t.req)
			if od.dirty {
				// Sharing write-back: the owner's dirty data is written
				// to memory — a memory write, so ReVive logs and updates
				// parity (section 3.2.1).
				t.writeMemory(&od.data, false)
				return
			}
			t.release()
		case evWB:
			// Owner gave the line up; requester becomes exclusive.
			d.reply(t.req, t.line, cacheFillExclusive, &od.data)
			e.state, e.owner = dirExcl, t.req
			t.writeMemory(&od.data, od.ckp)
		case evRepl:
			t.replyFromMemory(cacheFillExclusive, stepGrantExclusive)
		}
		return
	}
	switch od.kind {
	case evFetchResp:
		// Ownership transfer: memory is not written. The checkpoint
		// content stays in memory; it was logged when the first writer
		// took ownership, or will be logged at the eventual write-back
		// (Figure 5(b)).
		d.reply(t.req, t.line, cacheFillModified, &od.data)
		e.state, e.owner = dirExcl, t.req
		t.writeIntent()
	case evWB:
		d.reply(t.req, t.line, cacheFillModified, &od.data)
		e.state, e.owner = dirExcl, t.req
		t.writeMemory(&od.data, od.ckp)
	case evRepl:
		t.replyFromMemory(cacheFillModified, stepGrantWrite)
	}
}

func (t *txn) wb(data *arch.Data, keep bool) {
	d, e := t.d, t.e
	if e.state != dirExcl || e.owner != t.req {
		if keep {
			// Ownership migrated while the checkpoint write-back was
			// in flight; the data traveled with the intervention.
			d.DroppedWBKeep++
			d.ackWB(t.req, t.line, t.ckp)
			t.release()
			return
		}
		panic(fmt.Sprintf("coherence: WB from non-owner (state=%d owner=%d req=%d)",
			e.state, e.owner, t.req))
	}
	if !keep {
		e.state, e.owner = dirUncached, 0
	}
	t.writeMemory(data, t.ckp)
}

func (t *txn) repl() {
	e := t.e
	switch {
	case e.state == dirExcl && e.owner == t.req:
		e.state, e.owner = dirUncached, 0
	case e.state == dirShared:
		e.sharers.Remove(t.req)
		if e.sharers.Empty() {
			e.state = dirUncached
		}
	}
	t.release()
}

// --- building blocks ---

func wbClass(ckp bool) stats.Class {
	if ckp {
		return stats.ClassCkpWB
	}
	return stats.ClassExeWB
}

func (d *DirCtrl) ackWB(req arch.NodeID, line arch.LineAddr, ckp bool) {
	d.cacheMsg(msgWBAck, req, line, network.ControlBytes, wbClass(ckp)).transmit()
}

// reply sends a data reply to the requester's cache controller.
func (d *DirCtrl) reply(req arch.NodeID, line arch.LineAddr, fill cacheFill, data *arch.Data) {
	m := d.cacheMsg(msgFill, req, line, network.DataBytes, stats.ClassRead)
	m.fill, m.data = fill, *data
	m.transmit()
}

// replyFromMemory reads the line from local memory and sends it to the
// requester with the given permission; memRead then applies step.
func (t *txn) replyFromMemory(fill cacheFill, step txnStep) {
	d := t.d
	t.fill, t.step = fill, step
	d.st.Mem(stats.ClassRead)
	d.mem.Read(d.phys(t.line).MemAddr(), t.memReadFn)
}

func (t *txn) memRead(data arch.Data) {
	t.d.reply(t.req, t.line, t.fill, &data)
	e := t.e
	switch t.step {
	case stepGrantExclusive:
		e.state, e.owner = dirExcl, t.req
		t.release()
	case stepAddSharer:
		e.sharers.Add(t.req)
		t.release()
	case stepGrantWrite:
		e.state, e.owner = dirExcl, t.req
		e.sharers.Clear()
		t.writeIntent()
	}
}

// probeOwner sends an intervention (inv=false: downgrading fetch, inv=true:
// invalidating fetch) and parks the transaction until the owner's answer —
// or a crossing eviction message — arrives.
func (t *txn) probeOwner(owner arch.NodeID, inv bool) {
	d, e := t.d, t.e
	e.ownerWait = t.ownerFn
	e.ownerWaitNode = owner
	m := d.cacheMsg(msgProbe, owner, t.line, network.ControlBytes, stats.ClassRead)
	m.inv = inv
	m.transmit()
}

// invalidateSharers sends invalidations to every node in mask and runs
// invDone once all acknowledgments are in. An empty mask completes
// immediately. The mask must be an independent copy
// (SharerSet.CopyWithout): invDone clears the entry's own set while these
// invalidations may still be in flight.
func (t *txn) invalidateSharers(mask SharerSet) {
	d, e := t.d, t.e
	count := mask.Count()
	if count == 0 {
		t.invDone()
		return
	}
	e.invWait = count
	e.invDone = t.invDoneFn
	line := t.line
	mask.ForEach(func(dst arch.NodeID) {
		d.cacheMsg(msgInval, dst, line, network.ControlBytes, stats.ClassRead).transmit()
	})
}

// writeMemory performs the (possibly ReVive-extended) memory write: in the
// baseline it is a plain DRAM write; with the extension installed it is the
// full log-then-write-then-parity sequence of Figures 4 and 5(b). ack runs
// when the write may be acknowledged, written when the sequence completes.
func (t *txn) writeMemory(data *arch.Data, ckp bool) {
	d := t.d
	phys := d.phys(t.line)
	if d.ext == nil {
		d.st.Mem(wbClass(ckp))
		d.mem.Write(phys.MemAddr(), *data, t.memWrittenFn)
		return
	}
	d.ext.Write(t.line, phys, *data, ckp, t.ackFn, t.writtenFn)
}

// ack is the memory write's acknowledgment point: after the data write
// (Figure 4), delayed by logging in the not-yet-logged case (Figure 5(b)).
// Only a write-back has a requester waiting for it; a sharing write-back
// or a consumed eviction was acknowledged when it arrived.
func (t *txn) ack() {
	if t.kind == reqWB {
		t.d.ackWB(t.req, t.line, t.ckp)
	}
}

// written ends the memory write: a read-exclusive still owes its write
// intent; everything else releases the entry.
func (t *txn) written() {
	if t.kind == reqGETX {
		t.writeIntent()
		return
	}
	t.release()
}

func (t *txn) memWritten() {
	t.ack()
	t.written()
}

// writeIntent runs the Figure 5(a) hook after an exclusive grant and
// releases the entry when the background logging completes.
func (t *txn) writeIntent() {
	d := t.d
	if d.ext == nil {
		t.release()
		return
	}
	d.ext.WriteIntent(t.line, d.phys(t.line), t.releaseFn)
}

// StateOf reports the directory's view of a line (for tests and invariant
// checks).
func (d *DirCtrl) StateOf(line arch.LineAddr) (state string, owner arch.NodeID, sharers SharerSet, busy bool) {
	e := d.entries[line]
	if e == nil {
		return "uncached", 0, SharerSet{}, false
	}
	switch e.state {
	case dirUncached:
		state = "uncached"
	case dirShared:
		state = "shared"
	case dirExcl:
		state = "exclusive"
	}
	return state, e.owner, e.sharers, e.busy
}

// Reset drops all directory entries and transaction state (recovery
// Phase 1 "invalidating the caches and directory entries").
func (d *DirCtrl) Reset() {
	d.entries = make(map[arch.LineAddr]*dirEntry)
}

// EntryView is a read-only snapshot of one directory entry for invariant
// checking. Sharers shares the entry's overflow words, so the view is only
// valid within the ForEachEntry callback that produced it.
type EntryView struct {
	Line    arch.LineAddr
	State   string // "uncached", "shared", "exclusive"
	Owner   arch.NodeID
	Sharers SharerSet
	Busy    bool
}

// ForEachEntry visits every materialized directory entry in ascending line
// order, so a check that stops at the first bad entry names the same one on
// every call.
func (d *DirCtrl) ForEachEntry(fn func(EntryView)) {
	lines := make([]arch.LineAddr, 0, len(d.entries))
	for line := range d.entries {
		lines = append(lines, line)
	}
	slices.Sort(lines)
	for _, line := range lines {
		e := d.entries[line]
		v := EntryView{Line: line, Owner: e.owner, Sharers: e.sharers, Busy: e.busy}
		switch e.state {
		case dirUncached:
			v.State = "uncached"
		case dirShared:
			v.State = "shared"
		case dirExcl:
			v.State = "exclusive"
		}
		fn(v)
	}
}
