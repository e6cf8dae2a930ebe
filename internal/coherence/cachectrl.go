package coherence

import (
	"encoding/binary"
	"fmt"

	"revive/internal/arch"
	"revive/internal/cache"
	"revive/internal/network"
	"revive/internal/sim"
	"revive/internal/stats"
	"revive/internal/trace"
)

// cacheFill tags the permission granted with a data reply.
type cacheFill uint8

const (
	cacheFillShared    cacheFill = iota // read-only copy
	cacheFillExclusive                  // clean exclusive copy (MESI E)
	cacheFillModified                   // writable copy (requester will dirty it)
)

// mshr tracks one outstanding request for a line. Loads are bound to the
// fill: they complete from the arriving data, so an invalidation racing the
// reply cannot starve them. Store progress is guaranteed the same way: the
// store-buffer head retires at reply arrival (see retireHeadStoreIfReady)
// before any later-arriving probe can steal the line — the classic
// window-of-vulnerability closure. retries are drain continuations that
// re-examine the cache (used when the granted permission may still be
// insufficient, e.g. a shared fill answering a store).
type mshr struct {
	loadDone []func()
	retries  []func()
}

// sbEntry is one pending store in the store buffer.
type sbEntry struct {
	addr arch.Addr
	val  uint64
}

// CacheCtrl is one node's processor-side controller: the L1/L2 hierarchy
// (inclusive, write-back), the store buffer, outstanding-miss bookkeeping,
// and the cache half of the coherence protocol.
type CacheCtrl struct {
	engine  *sim.Engine
	node    arch.NodeID
	l1, l2  *cache.Cache
	bus     *sim.Resource
	busCfg  BusConfig
	amap    *arch.AddressMap
	st      *stats.Stats
	tracker *Tracker
	dirs    []*DirCtrl

	pending  map[arch.LineAddr]*mshr
	mshrFree []*mshr // retired MSHRs for reuse (keeps the miss path allocation-free)

	// drainHeadFn, flushIssueFn and pinnedFn are bound once: a method
	// value like c.drainHead allocates a fresh closure at every
	// evaluation, and the drain chain schedules one per retired store.
	drainHeadFn  func()
	flushIssueFn func()
	pinnedFn     func(arch.LineAddr) bool // L2 victim pinning: lines with an MSHR
	msgs         msgPool                  // free list of the messages this node sends

	// Store buffer (Table 3: 16 pending stores). Entries live in
	// sb[sbHead:]; popping advances the head instead of reslicing so the
	// backing array is reused rather than regrown on every drain cycle.
	sb     []sbEntry
	sbHead int
	sbCap  int
	// At most one store can stall on a full buffer (the processor blocks
	// until it is accepted), so its operands live in fields and the retry
	// is a plain method call — no per-stall closure.
	sbStalled   bool
	stalledAddr arch.Addr
	stalledVal  uint64
	stalledDone func()
	draining    bool

	// Checkpoint flush state. The queue is consumed from flushHead so its
	// backing array is reused flush after flush; dirtyBuf is the reusable
	// dirty-slot enumeration buffer.
	flushQueue    []arch.LineAddr
	flushHead     int
	flushInflight int
	flushDone     func()
	flushing      map[arch.LineAddr]bool
	dirtyBuf      []cache.Slot

	// Fills counts data replies received (for traffic cross-checks).
	Fills uint64
}

// NewCacheCtrl builds one node's cache controller.
func NewCacheCtrl(engine *sim.Engine, node arch.NodeID, l1Cfg, l2Cfg cache.Config,
	busCfg BusConfig, net network.Fabric, amap *arch.AddressMap,
	st *stats.Stats, tracker *Tracker) *CacheCtrl {
	c := &CacheCtrl{
		engine: engine, node: node,
		l1: cache.New(engine, l1Cfg), l2: cache.New(engine, l2Cfg),
		bus: sim.NewResource(engine), busCfg: busCfg,
		amap: amap, st: st, tracker: tracker,
		pending:  make(map[arch.LineAddr]*mshr),
		sbCap:    16,
		flushing: make(map[arch.LineAddr]bool),
		msgs:     msgPool{net: net},
	}
	c.drainHeadFn, c.flushIssueFn = c.drainHead, c.flushIssue
	c.pinnedFn = func(a arch.LineAddr) bool { return c.pending[a] != nil }
	return c
}

// SetDirs wires the machine's directory controllers (indexed by node).
func (c *CacheCtrl) SetDirs(dirs []*DirCtrl) { c.dirs = dirs }

// Node returns the controller's node.
func (c *CacheCtrl) Node() arch.NodeID { return c.node }

// L1 and L2 expose the cache levels (for statistics and tests).
func (c *CacheCtrl) L1() *cache.Cache { return c.l1 }
func (c *CacheCtrl) L2() *cache.Cache { return c.l2 }

// DirtyLines counts the node's dirty lines, each once: the L2 Modified
// lines plus the L1 Modified lines whose L2 copy is not Modified. A line
// merged into L2 and refilled into L1 is Modified at both levels, so the
// sum of the two levels' counts would count it twice.
func (c *CacheCtrl) DirtyLines() int {
	n := c.l2.DirtyCount()
	for _, s := range c.l1.AppendDirty(nil) {
		if c.nodeState(c.l1.Addr(s)) != cache.Modified {
			n++
		}
	}
	return n
}

// PendingOps reports in-flight processor-side work: outstanding misses plus
// buffered stores. The checkpoint sequence waits for zero before flushing.
func (c *CacheCtrl) PendingOps() int { return len(c.pending) + c.sbLen() }

// sbLen is the number of buffered stores.
func (c *CacheCtrl) sbLen() int { return len(c.sb) - c.sbHead }

// sbPop retires the head store, recycling the backing array once it
// empties (or compacting when the dead prefix reaches the buffer's
// capacity, so the array never grows past ~2x the store-buffer depth).
func (c *CacheCtrl) sbPop() {
	c.sbHead++
	if c.sbHead == len(c.sb) {
		c.sb, c.sbHead = c.sb[:0], 0
	} else if c.sbHead >= c.sbCap {
		n := copy(c.sb, c.sb[c.sbHead:])
		c.sb, c.sbHead = c.sb[:n], 0
	}
}

// home returns the line's home node, placing the page on first touch.
func (c *CacheCtrl) home(line arch.LineAddr) arch.NodeID {
	return c.amap.TouchLine(line, c.node).Node
}

// homeMsg addresses a message from this node to the directory at home.
// The caller fills in the payload and sends it with sendToDir.
func (c *CacheCtrl) homeMsg(kind msgKind, home arch.NodeID, line arch.LineAddr, bytes int,
	class stats.Class) *msg {
	m := c.msgs.get(kind, c.node, home, line, bytes, class)
	m.dir = c.dirs[home]
	return m
}

// sendToDir crosses the node bus (no earlier than earliest) and injects m
// into the fabric when the transfer completes.
func (c *CacheCtrl) sendToDir(m *msg, earliest sim.Time) {
	occ := c.busCfg.Occupancy(m.bytes)
	start := c.bus.ReserveAt(earliest, occ)
	c.engine.At(start+occ, m.transmitFn)
}

// --- processor interface ---

// Load performs a read of addr, calling done when the data is available.
// Loads are blocking: the processor issues the next operation only after
// done runs.
func (c *CacheCtrl) Load(addr arch.Addr, done func()) {
	c.st.MemRefs++
	c.st.Loads++
	c.loadAttempt(addr.Line(), done)
}

func (c *CacheCtrl) loadAttempt(line arch.LineAddr, done func()) {
	t1 := c.l1.Access()
	if c.l1.Lookup(line) != cache.NoSlot {
		c.st.L1Hits++
		c.engine.At(t1, done)
		return
	}
	c.st.L1Misses++
	t2 := c.l2.AccessAt(t1)
	if l2s := c.l2.Lookup(line); l2s != cache.NoSlot {
		c.st.L2Hits++
		c.fillL1From(l2s)
		c.engine.At(t2, done)
		return
	}
	c.st.L2Misses++
	c.request(line, msgGETS, t2, done, nil)
}

// Store buffers a write of val to addr. done runs when the store occupies a
// buffer slot (immediately unless the buffer is full); the write itself
// retires in the background.
func (c *CacheCtrl) Store(addr arch.Addr, val uint64, done func()) {
	c.st.MemRefs++
	c.st.Stores++
	if c.sbLen() >= c.sbCap {
		if c.sbStalled {
			panic("coherence: second store while stalled")
		}
		c.sbStalled = true
		c.stalledAddr, c.stalledVal, c.stalledDone = addr, val, done
		c.st.MemRefs-- // the retry recounts
		c.st.Stores--
		return
	}
	c.sb = append(c.sb, sbEntry{addr: addr, val: val})
	// A buffered store is in-flight work: the drain chain advances through
	// plain scheduled events with no MSHR of its own, so without this the
	// tracker can read zero — and a checkpoint begin its flush — while
	// retirements are still pending (stale data reaches memory).
	c.tracker.Inc()
	c.drain()
	done()
}

// retryStalled re-submits the store that stalled on a full buffer.
func (c *CacheCtrl) retryStalled() {
	done := c.stalledDone
	c.stalledDone = nil
	c.Store(c.stalledAddr, c.stalledVal, done)
}

// drain retires buffered stores in order.
func (c *CacheCtrl) drain() {
	if c.draining || c.sbLen() == 0 {
		return
	}
	c.draining = true
	c.drainHead()
}

func (c *CacheCtrl) drainHead() {
	if c.sbLen() == 0 {
		c.draining = false
		return
	}
	e := c.sb[c.sbHead]
	line := e.addr.Line()
	t1 := c.l1.Access()
	l1s := c.l1.Lookup(line)
	if l1s == cache.NoSlot {
		c.st.L1Misses++
		t2 := c.l2.AccessAt(t1)
		l2s := c.l2.Lookup(line)
		if l2s == cache.NoSlot {
			c.st.L2Misses++
			c.request(line, msgGETX, t2, nil, c.drainHeadFn)
			return
		}
		c.st.L2Hits++
		l1s = c.fillL1From(l2s)
		t1 = t2
	} else {
		c.st.L1Hits++
	}
	if !c.nodeState(line).CanWrite() {
		// Shared: upgrade needed. (L1 state mirrors L2 for clean lines.)
		c.request(line, msgUPG, t1, nil, c.drainHeadFn)
		return
	}
	// Writable: retire the store.
	c.applyStore(l1s, e)
	c.sbPop()
	c.tracker.Dec()
	if c.sbStalled {
		c.sbStalled = false
		c.retryStalled()
	}
	c.engine.At(t1, c.drainHeadFn)
	c.draining = true
}

// nodeState returns the node-level (L2) state of a line; L1 may hold a
// dirtier copy but never more permission than L2 granted.
func (c *CacheCtrl) nodeState(line arch.LineAddr) cache.State {
	if s := c.l2.Probe(line); s != cache.NoSlot {
		return c.l2.State(s)
	}
	return cache.Invalid
}

// applyStore writes the 8-byte store value into the L1 copy and marks it
// Modified. Store values are real bytes: they flow through write-backs,
// logs and parity, so recovery can be verified end to end.
func (c *CacheCtrl) applyStore(l1s cache.Slot, e sbEntry) {
	off := int(e.addr) & (arch.LineBytes - 1) &^ 7
	binary.LittleEndian.PutUint64(c.l1.Data(l1s)[off:], e.val)
	c.l1.SetState(l1s, cache.Modified)
}

// request sends a coherence request for line to its home, creating or
// joining the line's MSHR. loadDone (if non-nil) completes from the
// arriving fill; retry (if non-nil) re-examines the cache at reply time.
func (c *CacheCtrl) request(line arch.LineAddr, kind msgKind, earliest sim.Time,
	loadDone, retry func()) {
	m := c.pending[line]
	if m == nil {
		m = c.getMSHR()
		c.pending[line] = m
	} else {
		m.add(loadDone, retry)
		return
	}
	m.add(loadDone, retry)
	c.tracker.Inc()
	c.st.Trace.AsyncBegin(trace.MissService, int(c.node), uint64(line))
	c.sendToDir(c.homeMsg(kind, c.home(line), line, network.ControlBytes, stats.ClassRead), earliest)
}

func (m *mshr) add(loadDone, retry func()) {
	if loadDone != nil {
		m.loadDone = append(m.loadDone, loadDone)
	}
	if retry != nil {
		m.retries = append(m.retries, retry)
	}
}

// getMSHR takes an MSHR from the free list (or allocates the first time);
// putMSHR recycles one at retirement, clearing the waiter slots so their
// closures are released but keeping the slices' capacity.
func (c *CacheCtrl) getMSHR() *mshr {
	if n := len(c.mshrFree); n > 0 {
		m := c.mshrFree[n-1]
		c.mshrFree[n-1] = nil
		c.mshrFree = c.mshrFree[:n-1]
		return m
	}
	return &mshr{}
}

func (c *CacheCtrl) putMSHR(m *mshr) {
	for i := range m.loadDone {
		m.loadDone[i] = nil
	}
	for i := range m.retries {
		m.retries[i] = nil
	}
	m.loadDone = m.loadDone[:0]
	m.retries = m.retries[:0]
	c.mshrFree = append(c.mshrFree, m)
}

// completeRequest retires the line's MSHR: loads complete, drain
// continuations replay, all at time `at` (the reply's bus transfer end).
func (c *CacheCtrl) completeRequest(line arch.LineAddr, at sim.Time) {
	m := c.pending[line]
	if m == nil {
		panic("coherence: reply without MSHR")
	}
	delete(c.pending, line)
	c.st.Trace.AsyncEnd(trace.MissService, int(c.node), uint64(line))
	c.tracker.Dec()
	for _, w := range m.loadDone {
		c.engine.At(at, w)
	}
	for _, r := range m.retries {
		c.engine.At(at, r)
	}
	c.putMSHR(m)
}

// retireHeadStoreIfReady retires the store-buffer head immediately if the
// just-arrived reply granted write permission for its line. Doing this at
// reply arrival (rather than on a delayed replay) closes the window in
// which a racing invalidation could steal the line and livelock the store.
func (c *CacheCtrl) retireHeadStoreIfReady(line arch.LineAddr) {
	if c.sbLen() == 0 || c.sb[c.sbHead].addr.Line() != line {
		return
	}
	if !c.nodeState(line).CanWrite() {
		return
	}
	l1s := c.l1.Probe(line)
	if l1s == cache.NoSlot {
		l2s := c.l2.Probe(line)
		if l2s == cache.NoSlot {
			return
		}
		l1s = c.fillL1From(l2s)
	}
	c.applyStore(l1s, c.sb[c.sbHead])
	c.sbPop()
	c.tracker.Dec()
	if c.sbStalled {
		c.sbStalled = false
		c.retryStalled()
	}
}

// fillL1From copies the line in L2 slot l2s into L1 (same state) and
// returns its L1 slot. A dirty L1 victim merges back into its L2 copy
// (inclusion guarantees the L2 copy exists) straight from its slot, before
// the fill overwrites it.
func (c *CacheCtrl) fillL1From(l2s cache.Slot) cache.Slot {
	addr := c.l2.Addr(l2s)
	s, vaddr, vstate := c.l1.Victim(addr, nil)
	if vstate == cache.Modified {
		c.mergeDirtyL1(vaddr, c.l1.Data(s))
	}
	c.l1.Fill(s, addr, c.l2.State(l2s), c.l2.Data(l2s))
	return s
}

// mergeDirtyL1 folds a dirty L1 line's data into its L2 copy.
func (c *CacheCtrl) mergeDirtyL1(addr arch.LineAddr, data *arch.Data) {
	l2s := c.l2.Probe(addr)
	if l2s == cache.NoSlot {
		panic("coherence: dirty L1 line not in L2 (inclusion violated)")
	}
	*c.l2.Data(l2s) = *data
	c.l2.SetState(l2s, cache.Modified)
}

// --- protocol handlers (run when a cache-bound message arrives) ---

// fill delivers a data reply. State changes are applied at arrival (so
// later-arriving probes observe them); waiter completion pays the bus
// transfer time.
func (c *CacheCtrl) fill(line arch.LineAddr, kind cacheFill, data *arch.Data) {
	c.Fills++
	var st cache.State
	switch kind {
	case cacheFillShared:
		st = cache.Shared
	case cacheFillExclusive:
		st = cache.Exclusive
	case cacheFillModified:
		st = cache.Modified
	}
	c.fillL1From(c.insertL2(line, st, data))
	c.retireHeadStoreIfReady(line)
	busT := c.bus.Reserve(c.busCfg.Occupancy(network.DataBytes))
	c.completeRequest(line, busT+c.busCfg.Occupancy(network.DataBytes))
}

// insertL2 places a fill into L2 and returns its slot, evicting (and
// writing back or announcing) a victim if needed. Lines with outstanding
// requests are pinned.
func (c *CacheCtrl) insertL2(line arch.LineAddr, st cache.State, data *arch.Data) cache.Slot {
	s, vaddr, vstate := c.l2.Victim(line, c.pinnedFn)
	if vstate != cache.Invalid {
		c.evictL2(s, vaddr, vstate)
	}
	c.l2.Fill(s, line, st, data)
	return s
}

// evictL2 disposes of the line in L2 slot s before a fill overwrites it.
func (c *CacheCtrl) evictL2(s cache.Slot, addr arch.LineAddr, st cache.State) {
	data := c.l2.Data(s)
	// Back-invalidate the L1 copy (inclusion); it may be dirtier.
	if l1s := c.l1.Probe(addr); l1s != cache.NoSlot {
		if c.l1.State(l1s) == cache.Modified {
			data, st = c.l1.Data(l1s), cache.Modified
		}
		c.l1.SetState(l1s, cache.Invalid)
	}
	switch st {
	case cache.Modified:
		c.writeBack(addr, data, false, false)
	case cache.Exclusive:
		// Clean-exclusive replacement hint, so the home never forwards
		// an intervention to a copy that is gone. The home retires the
		// tracker count when the hint arrives; there is no acknowledgment.
		c.tracker.Inc()
		c.sendToDir(c.homeMsg(msgRepl, c.home(addr), addr, network.ControlBytes, stats.ClassRead),
			c.engine.Now())
	case cache.Shared:
		// Silent: the directory tolerates stale sharers.
	}
}

// writeBack sends a dirty line to its home. keep=true retains a clean
// exclusive copy (checkpoint flush).
func (c *CacheCtrl) writeBack(line arch.LineAddr, data *arch.Data, ckp, keep bool) {
	c.tracker.Inc()
	m := c.homeMsg(msgWB, c.home(line), line, network.DataBytes, wbClass(ckp))
	m.data, m.ckp, m.keep = *data, ckp, keep
	c.sendToDir(m, c.engine.Now())
}

// upgAck grants the pending upgrade.
func (c *CacheCtrl) upgAck(line arch.LineAddr) {
	l2s := c.l2.Probe(line)
	if l2s == cache.NoSlot {
		panic("coherence: upgrade ack for absent line")
	}
	c.l2.SetState(l2s, cache.Exclusive) // store retirement will dirty it
	if l1s := c.l1.Probe(line); l1s != cache.NoSlot {
		c.l1.SetState(l1s, cache.Exclusive)
	}
	c.retireHeadStoreIfReady(line)
	busT := c.bus.Reserve(c.busCfg.Occupancy(network.ControlBytes))
	c.completeRequest(line, busT+c.busCfg.Occupancy(network.ControlBytes))
}

// wbAck confirms a write-back. For checkpoint write-backs (keep=true at the
// home) the retained copy becomes clean exclusive only now — while the
// write-back is in flight the line stays Modified so that a crossing
// intervention still forwards the dirty data.
func (c *CacheCtrl) wbAck(line arch.LineAddr) {
	if c.flushing[line] {
		delete(c.flushing, line)
		cleanIfModified(c.l2, line)
		cleanIfModified(c.l1, line)
		c.flushInflight--
		c.tracker.Dec()
		c.flushIssue()
		return
	}
	c.tracker.Dec()
}

// cleanIfModified downgrades a Modified copy of line to clean exclusive.
func cleanIfModified(l *cache.Cache, line arch.LineAddr) {
	if s := l.Probe(line); s != cache.NoSlot && l.State(s) == cache.Modified {
		l.SetState(s, cache.Exclusive)
	}
}

// probe answers an intervention from the home: inv=false downgrades to
// Shared (read fetch), inv=true invalidates (exclusive fetch). The freshest
// copy (L1 if dirty there) is returned.
func (c *CacheCtrl) probe(line arch.LineAddr, inv bool, homeNode arch.NodeID) {
	l2s := c.l2.Probe(line)
	l1s := c.l1.Probe(line)
	if l2s == cache.NoSlot && l1s != cache.NoSlot {
		panic("coherence: L1 line not in L2 (inclusion violated)")
	}
	found := l2s != cache.NoSlot
	bytes := network.ControlBytes
	if found {
		bytes = network.DataBytes
	}
	m := c.homeMsg(msgFetchResp, homeNode, line, bytes, stats.ClassRead)
	m.found = found
	if found {
		d2 := c.l2.Data(l2s)
		m.dirty = c.l2.State(l2s) == cache.Modified
		if l1s != cache.NoSlot && c.l1.State(l1s) == cache.Modified {
			// The L1 holds the freshest bytes; fold them into the L2
			// copy, which survives the downgrade as a clean line.
			*d2 = *c.l1.Data(l1s)
			m.dirty = true
		}
		m.data = *d2
		next := cache.Shared
		if inv {
			next = cache.Invalid
		}
		if l1s != cache.NoSlot {
			c.l1.SetState(l1s, next)
		}
		c.l2.SetState(l2s, next)
	} else {
		m.dirty, m.data = false, arch.Data{}
	}
	c.sendToDir(m, c.l2.Access())
}

// inval drops a shared copy and acknowledges, even when the copy was
// already silently evicted (the directory's sharer list may be stale).
func (c *CacheCtrl) inval(line arch.LineAddr, homeNode arch.NodeID) {
	if c.l1.Drop(line) == cache.Modified {
		panic("coherence: invalidation of dirty L1 line")
	}
	if c.l2.Drop(line) == cache.Modified {
		panic("coherence: invalidation of dirty L2 line")
	}
	c.sendToDir(c.homeMsg(msgInvAck, homeNode, line, network.ControlBytes, stats.ClassRead),
		c.l2.Access())
}

// --- checkpoint support ---

// FlushDirty writes every dirty line back to memory, retaining clean
// exclusive copies (the checkpoint flush of section 3.2.3). done runs when
// every write-back has been acknowledged. Call only with PendingOps() == 0.
func (c *CacheCtrl) FlushDirty(done func()) {
	if c.flushDone != nil {
		panic("coherence: concurrent flushes")
	}
	if c.sbLen() != 0 {
		// A store retiring mid-flush lands between dirty-line enumeration
		// and write-back capture, so its value would reach memory but not
		// the retained L2 copy.
		panic("coherence: flush with buffered stores")
	}
	// Fold dirty L1 lines into L2 first, paying one L1+L2 access each.
	t := c.engine.Now()
	c.dirtyBuf = c.l1.AppendDirty(c.dirtyBuf[:0])
	for _, s := range c.dirtyBuf {
		c.mergeDirtyL1(c.l1.Addr(s), c.l1.Data(s))
		c.l1.SetState(s, cache.Exclusive)
		t = c.l2.AccessAt(c.l1.Access())
	}
	c.flushQueue, c.flushHead = c.flushQueue[:0], 0
	c.dirtyBuf = c.l2.AppendDirty(c.dirtyBuf[:0])
	for _, s := range c.dirtyBuf {
		c.flushQueue = append(c.flushQueue, c.l2.Addr(s))
	}
	c.flushDone = done
	c.engine.At(t, c.flushIssueFn)
}

// flushWindow bounds the write-backs a node keeps in flight during a flush
// (a hardware write buffer's depth; the flush is memory-port bound well
// before this limit).
const flushWindow = 16

func (c *CacheCtrl) flushIssue() {
	if c.flushDone == nil {
		return
	}
	for c.flushInflight < flushWindow && c.flushHead < len(c.flushQueue) {
		line := c.flushQueue[c.flushHead]
		c.flushHead++
		l2s := c.l2.Probe(line)
		if l2s == cache.NoSlot || c.l2.State(l2s) != cache.Modified {
			continue // lost to an intervention since enumeration
		}
		data := c.l2.Data(l2s)
		if l1s := c.l1.Probe(line); l1s != cache.NoSlot && c.l1.State(l1s) == cache.Modified {
			// Dirtied again after the merge. Ship the fresh data and fold
			// it into L2 too: wbAck downgrades both levels to clean, so a
			// stale L2 copy here would survive as clean-but-wrong.
			*data = *c.l1.Data(l1s)
		}
		c.flushing[line] = true
		c.flushInflight++
		c.l2.Access() // enumeration/tag access
		c.writeBack(line, data, true, true)
	}
	if c.flushInflight == 0 && c.flushHead == len(c.flushQueue) {
		done := c.flushDone
		c.flushDone = nil
		done()
	}
}

// InvalidateAll drops every cached line on this node. Rollback recovery
// uses it: everything modified since the checkpoint is discarded. It must
// only run with no outstanding operations.
func (c *CacheCtrl) InvalidateAll() {
	if c.PendingOps() != 0 || c.flushDone != nil {
		panic("coherence: InvalidateAll with operations in flight")
	}
	c.l1.InvalidateAll()
	c.l2.InvalidateAll()
}

func (c *CacheCtrl) String() string {
	return fmt.Sprintf("cachectrl(node %d)", c.node)
}

// Reset models the hardware reset of recovery Phase 1: all cached data is
// invalidated and every in-flight request, buffered store and flush is
// abandoned (their completions were dropped with the engine's events).
func (c *CacheCtrl) Reset() {
	c.l1.InvalidateAll()
	c.l2.InvalidateAll()
	c.pending = make(map[arch.LineAddr]*mshr)
	c.sb, c.sbHead = nil, 0
	c.sbStalled = false
	c.stalledDone = nil
	c.draining = false
	c.flushQueue, c.flushHead = nil, 0
	c.flushInflight = 0
	c.flushDone = nil
	c.flushing = make(map[arch.LineAddr]bool)
}

// BusBusy reports the node bus's cumulative busy time (utilization
// reporting).
func (c *CacheCtrl) BusBusy() sim.Time { return c.bus.BusyTime() }
