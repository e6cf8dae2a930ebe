package core

import (
	"revive/internal/arch"
	"revive/internal/stats"
)

// inlineLogWords is the modeled spare capacity of one memory line for
// in-line undo state: up to this many modified 8-byte words (plus their
// offsets and the epoch tag) fit alongside the new data in the line's
// ECC-extended burst. Half the line is the break-even point Cohen et al.
// identify: past it, embedding costs more than a dedicated log write.
const inlineLogWords = 4

// inlineLogStrategy models in-cache-line logging (Cohen et al.,
// arXiv:1902.00660): a write-back whose undo fits in the line's spare
// capacity carries its own log entry — the entry materializes with the
// line write itself and costs no separate log access, no log-parity
// round trip, and no delayed acknowledgment. A write-back that modifies
// too many words overflows to the classic Figure 5(b) out-of-line log.
//
// The functional log state is kept in the same HWLog as the revive
// backend (an inline entry still *exists*; it just traveled for free),
// so recovery, VerifyLog, VerifyLBits and the Phase 2 parity rebuild
// work unchanged. What changes is the timing and traffic: no eager
// Figure 5(a) logging on read-exclusive (there is no separate log to
// prefill — the entry can only ride a write), and fitting write-backs
// skip the ClassLog accesses and the log-parity messages entirely.
type inlineLogStrategy struct{}

func (*inlineLogStrategy) Name() string { return "inline-log" }

// WriteIntent: in-line logging has no eager-log step — the undo entry
// can only ride the eventual write-back, so a read-exclusive/upgrade
// just proceeds (no RDXNotLogged events under this backend).
func (*inlineLogStrategy) WriteIntent(c *Controller, line arch.LineAddr, phys arch.PhysLine, release func()) {
	release()
}

// Write: a not-yet-logged write-back measures its undo footprint. Fits
// ride the line write (untimed materialization, parity-consistent);
// overflows take the classic slow path.
func (*inlineLogStrategy) Write(c *Controller, line arch.LineAddr, phys arch.PhysLine, data arch.Data,
	ckp bool, ack, release func()) {
	if !c.needsLog(phys) {
		c.Events.WBLogged++
		c.dataWrite(line, phys, data, ckp, ack, release)
		return
	}
	c.Events.WBNotLogged++
	c.lbits.set(lineIndex(phys), line)
	doWrite := func() { c.dataWrite(line, phys, data, ckp, ack, release) }
	old := c.dirs[c.node].Mem().Peek(phys.MemAddr())
	logged := old
	if c.BugDataBeforeLog {
		// The deliberately broken build (chaos self-test): the entry
		// captures the *new* content, so a rollback restores the wrong
		// bytes. Parity stays consistent; only the oracle can tell.
		logged = data
	}
	if diffWords(&old, &data) <= inlineLogWords {
		// The undo fits in the line's spare capacity: the entry rides
		// the write-back burst. Materialize it functionally — no timed
		// log access, no log-parity round, no delayed acknowledgment.
		c.Events.InlineFits++
		slot := c.log.Reserve()
		c.pokeWithParity(c.local(slot.headerLine()),
			encodeHeader(header{line: line, epoch: c.epoch, marker: markerValid}))
		c.pokeWithParity(c.local(slot.dataLine()), logged)
		doWrite()
		return
	}
	// Overflow: the classic Figure 5(b) path — log fully (with its
	// parity) before the data write, delaying the acknowledgment.
	c.Events.InlineOverflows++
	c.st.Mem(stats.ClassLog)
	c.dirs[c.node].Mem().Read(phys.MemAddr(), func(arch.Data) {
		c.appendLog(line, logged, doWrite)
	})
}

// CommitEpoch is the common epoch advance (same retention discipline).
func (*inlineLogStrategy) CommitEpoch(c *Controller, epoch uint64, retain int) {
	reviveStrategy{}.CommitEpoch(c, epoch, retain)
}

// diffWords counts the 8-byte words in which two lines differ — the
// undo footprint an in-line entry would have to carry.
func diffWords(a, b *arch.Data) int {
	n := 0
	for w := 0; w < arch.LineBytes; w += 8 {
		for i := 0; i < 8; i++ {
			if a[w+i] != b[w+i] {
				n++
				break
			}
		}
	}
	return n
}
