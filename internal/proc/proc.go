// Package proc models the processors: 6-issue cores (Table 3) driven by
// workload streams. The model is memory-level: compute instructions between
// memory references advance time at the issue width; loads block (the
// paper's overheads are memory-system effects, uniform across baseline and
// ReVive); stores retire through the cache controller's 16-entry store
// buffer. Processors park at instruction boundaries for checkpoints and
// save/restore their stream position — the "execution context" that
// rollback re-executes from.
package proc

import (
	"revive/internal/coherence"
	"revive/internal/sim"
	"revive/internal/stats"
	"revive/internal/trace"
	"revive/internal/workload"
)

// Config carries the core parameters (Table 3: 6-issue dynamic, 1 GHz).
type Config struct {
	IssueWidth int
}

// DefaultConfig returns the Table 3 processor.
func DefaultConfig() Config { return Config{IssueWidth: 6} }

// Proc is one processor.
type Proc struct {
	engine *sim.Engine
	cfg    Config
	id     int
	cc     *coherence.CacheCtrl
	stream workload.Stream
	st     *stats.Stats

	seq      uint64 // store sequence number (distinct store values)
	finished bool
	parked   bool
	execOpen bool   // an open ProcExec trace span (Begin without End)
	intReq   func() // pending checkpoint interrupt callback

	// OnFinish runs once when the stream is exhausted.
	OnFinish func()

	// ckptSnap is the stream snapshot taken at the last committed
	// checkpoint (the saved execution context).
	ckptSnap any

	// stepFn, storeDone and issueFn are the bound continuations, allocated
	// once: the processor schedules millions of them. pendingOp carries the
	// operation issueFn runs — at most one operation is ever between step
	// and issue (execution is strictly sequential per processor), so a
	// single slot replaces a per-event closure capture.
	stepFn    func()
	storeDone func()
	issueFn   func()
	pendingOp workload.Op
}

// New builds a processor bound to its node's cache controller.
func New(engine *sim.Engine, cfg Config, id int, cc *coherence.CacheCtrl,
	stream workload.Stream, st *stats.Stats) *Proc {
	p := &Proc{engine: engine, cfg: cfg, id: id, cc: cc, stream: stream, st: st}
	p.stepFn = p.step
	p.storeDone = func() { p.engine.After(1, p.stepFn) }
	p.issueFn = func() { p.issue(p.pendingOp) }
	return p
}

// ID returns the processor number.
func (p *Proc) ID() int { return p.id }

// Finished reports whether the stream is exhausted.
func (p *Proc) Finished() bool { return p.finished }

// Start begins execution.
func (p *Proc) Start() {
	p.ckptSnap = p.stream.Snapshot()
	p.st.Trace.Begin(trace.ProcExec, p.id, 0)
	p.execOpen = true
	p.step()
}

// endExec closes the processor's execution span (stream exhaustion or
// rollback), at most once per Start.
func (p *Proc) endExec() {
	if p.execOpen {
		p.st.Trace.End(trace.ProcExec, p.id, 0)
		p.execOpen = false
	}
}

// step issues the next trace operation.
func (p *Proc) step() {
	if p.intReq != nil {
		p.parked = true
		p.st.Trace.Instant(trace.ProcParked, p.id, 0)
		cb := p.intReq
		p.intReq = nil
		cb()
		return
	}
	op, ok := p.stream.Next()
	if !ok {
		p.finished = true
		p.endExec()
		if p.OnFinish != nil {
			p.OnFinish()
		}
		return
	}
	p.st.Instructions += uint64(op.Gap) + 1
	// Compute time: gap instructions at the issue width, minimum one
	// cycle per memory operation slot. A zero-cycle gap issues without
	// a scheduler round-trip (the common case at 6-wide issue).
	compute := sim.Time((op.Gap + p.cfg.IssueWidth - 1) / p.cfg.IssueWidth)
	if compute == 0 {
		p.issue(op)
		return
	}
	p.pendingOp = op
	p.engine.After(compute, p.issueFn)
}

func (p *Proc) issue(op workload.Op) {
	switch op.Kind {
	case workload.OpLoad:
		if tr := p.st.Trace; tr.Enabled() {
			// The stall span needs a closing continuation; the closure is
			// allocated only when tracing is on (the disabled hot path
			// reuses the preallocated stepFn and allocates nothing).
			addr := uint64(op.Addr)
			tr.AsyncBegin(trace.ProcStall, p.id, addr)
			p.cc.Load(op.Addr, func() {
				tr.AsyncEnd(trace.ProcStall, p.id, addr)
				p.step()
			})
			return
		}
		p.cc.Load(op.Addr, p.stepFn)
	case workload.OpStore:
		p.seq++
		val := uint64(p.id+1)<<48 | p.seq
		p.cc.Store(op.Addr, val, p.storeDone)
	}
}

// Interrupt implements core.Processor: park at the next boundary. A
// finished or already-parked processor parks immediately.
func (p *Proc) Interrupt(parked func()) {
	if p.finished || p.parked {
		parked()
		return
	}
	if p.intReq != nil {
		panic("proc: overlapping interrupts")
	}
	p.intReq = parked
}

// Resume implements core.Processor: restart after a checkpoint. The commit
// also snapshots the stream position as the new saved context.
func (p *Proc) Resume() {
	p.ckptSnap = p.stream.Snapshot()
	if !p.parked {
		return
	}
	p.parked = false
	p.engine.After(0, p.stepFn)
}

// ContextSnapshot returns the stream snapshot saved at the last checkpoint
// (rollback restores execution from here).
func (p *Proc) ContextSnapshot() any { return p.ckptSnap }

// RestoreContext rewinds the stream to a snapshot (rollback) and clears
// any frozen interrupt/park state from before the error.
func (p *Proc) RestoreContext(snap any) {
	p.endExec() // the pre-error execution span dies with the rollback
	p.stream.Restore(snap)
	p.finished = false
	p.parked = false
	p.intReq = nil
}
