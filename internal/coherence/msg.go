package coherence

import (
	"revive/internal/arch"
	"revive/internal/network"
	"revive/internal/stats"
)

// msgKind names the handler a protocol message runs at its destination.
type msgKind uint8

const (
	// Home-bound: handled by the line's directory controller after one
	// pass through its pipeline.
	msgGETS      msgKind = iota // read miss
	msgGETX                     // read-exclusive (write miss)
	msgUPG                      // upgrade (write hit on a shared line)
	msgWB                       // write-back (eviction or checkpoint flush)
	msgRepl                     // clean-exclusive replacement hint
	msgFetchResp                // intervention answer from the owner
	msgInvAck                   // invalidation acknowledgment
	// Cache-bound: handled by the cache controller on arrival.
	msgFill   // data reply
	msgUpgAck // upgrade granted
	msgWBAck  // write-back acknowledged
	msgProbe  // intervention (downgrading or invalidating fetch)
	msgInval  // invalidation of a shared copy
)

// msg is one protocol message. Messages run on pooled records whose
// continuations are bound once when the record is first built — the
// pattern of mem.memOp — so sending one allocates nothing in the steady
// state. A record is taken from its sender's free list and goes back
// there when its handler runs: it copies its fields out and rejoins the
// list first, so a handler that sends again reuses it. Records abandoned
// by a fail-stop Engine.Reset are simply never returned.
//
// Delivering a record at most once is what makes the reuse safe: the
// reliable Transport hands each payload to its destination exactly once,
// and a record fired while already on its free list panics.
type msg struct {
	pool *msgPool
	kind msgKind
	// free is set while the record sits on its free list.
	free bool

	src, dst arch.NodeID
	bytes    int
	class    stats.Class
	dir      *DirCtrl   // destination of a home-bound message
	cache    *CacheCtrl // destination of a cache-bound message

	line         arch.LineAddr
	data         arch.Data // fill, write-back and fetch-response payload
	fill         cacheFill // msgFill: permission granted
	ckp, keep    bool      // msgWB: checkpoint traffic; owner keeps a clean copy
	found, dirty bool      // msgFetchResp: the owner held the line; it was dirty
	inv          bool      // msgProbe: invalidating rather than downgrading

	transmitFn func() // injects the message into the fabric
	deliverFn  func() // the message reaches its destination node
	handleFn   func() // a home-bound message leaves the directory pipeline
}

// msgPool is one controller's free list of message records, together with
// the fabric its messages travel on. Each controller owns its pool, so
// machines running concurrently share none.
type msgPool struct {
	net  network.Fabric
	free []*msg
}

// get takes a record from the free list (or builds one) and addresses it.
func (p *msgPool) get(kind msgKind, src, dst arch.NodeID, line arch.LineAddr,
	bytes int, class stats.Class) *msg {
	var m *msg
	if n := len(p.free); n > 0 {
		m = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
	} else {
		m = &msg{pool: p}
		m.transmitFn, m.deliverFn, m.handleFn = m.transmit, m.deliver, m.handle
	}
	m.free = false
	m.kind, m.src, m.dst, m.line, m.bytes, m.class = kind, src, dst, line, bytes, class
	return m
}

// transmit sends the message over the fabric; deliverFn runs at arrival.
func (m *msg) transmit() {
	m.pool.net.Send(network.Message{Src: m.src, Dst: m.dst, Bytes: m.bytes,
		Class: m.class, Deliver: m.deliverFn})
}

// deliver runs at the destination at arrival time. A home-bound message
// first pays one directory-pipeline pass: the same record is rescheduled
// at the pipeline's completion time.
func (m *msg) deliver() {
	if m.free {
		panic("coherence: delivery of a recycled message")
	}
	if m.kind >= msgFill {
		m.handle()
		return
	}
	d := m.dir
	d.engine.At(d.Occupy(), m.handleFn)
	if m.kind == msgRepl {
		d.tracker.Dec() // hint consumed; no acknowledgment
	}
}

// handle recycles the record and runs the message's protocol handler.
func (m *msg) handle() {
	if m.free {
		panic("coherence: handling of a recycled message")
	}
	r := *m
	m.free = true
	m.pool.free = append(m.pool.free, m)
	switch r.kind {
	case msgGETS:
		r.dir.dispatch(r.line, pendingReq{kind: reqGETS, req: r.src})
	case msgGETX:
		r.dir.dispatch(r.line, pendingReq{kind: reqGETX, req: r.src})
	case msgUPG:
		r.dir.dispatch(r.line, pendingReq{kind: reqUPG, req: r.src})
	case msgWB:
		r.dir.wbArrived(r.src, r.line, &r.data, r.ckp, r.keep)
	case msgRepl:
		r.dir.replArrived(r.src, r.line)
	case msgFetchResp:
		r.dir.fetchRespArrived(r.src, r.line, r.found, r.dirty, &r.data)
	case msgInvAck:
		r.dir.invAckArrived(r.line)
	case msgFill:
		r.cache.fill(r.line, r.fill, &r.data)
	case msgUpgAck:
		r.cache.upgAck(r.line)
	case msgWBAck:
		r.cache.wbAck(r.line)
	case msgProbe:
		r.cache.probe(r.line, r.inv, r.src)
	case msgInval:
		r.cache.inval(r.line, r.src)
	default:
		panic("coherence: bad message kind")
	}
}
