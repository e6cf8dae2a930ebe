package machine

import (
	"fmt"
	"slices"

	"revive/internal/arch"
	"revive/internal/cache"
	"revive/internal/coherence"
	"revive/internal/core"
)

// VerifyParity checks the distributed-parity invariant over the entire
// machine: for every stripe, the XOR of the data pages equals the parity
// page. It must hold whenever the machine is quiescent (no parity updates
// in flight) — after a run drains, after a checkpoint commits, and after
// recovery completes. It returns the first violation found.
func (m *Machine) VerifyParity() error {
	if !m.Tracker.Quiescent() {
		return fmt.Errorf("machine: parity check while %d operations in flight",
			m.Tracker.Outstanding())
	}
	maxFrame := arch.Frame(0)
	for n := 0; n < m.Cfg.Nodes; n++ {
		if m.Topo.HasDataFrames(arch.NodeID(n)) {
			if f := m.AMap.FramesUsed(arch.NodeID(n)); f > maxFrame {
				maxFrame = f
			}
		}
	}
	stripe := make([]arch.PhysLine, 0, m.Topo.GroupSize) // reused for every parity frame
	for n := 0; n < m.Cfg.Nodes; n++ {
		pn := arch.NodeID(n)
		if m.Mems[pn].Lost() {
			continue
		}
		for f := arch.Frame(0); f < maxFrame; f++ {
			if !m.Topo.IsParityFrame(pn, f) {
				continue
			}
			stripe = m.Topo.AppendDataLinesOf(stripe[:0], arch.PhysLine{Node: pn, Frame: f})
			if slices.ContainsFunc(stripe, func(q arch.PhysLine) bool { return m.Mems[q.Node].Lost() }) {
				continue
			}
			for off := 0; off < arch.LinesPerPage; off++ {
				p := arch.PhysLine{Node: pn, Frame: f, Off: uint8(off)}
				var want arch.Data
				for _, q := range stripe {
					q.Off = p.Off
					d := m.Mems[q.Node].Peek(q.MemAddr())
					want.XOR(&d)
				}
				if got := m.Mems[pn].Peek(p.MemAddr()); got != want {
					got, want := got, want // copied here so only a mismatch allocates
					return fmt.Errorf("parity mismatch at %v: parity has %x, want %x",
						p, got[:8], want[:8])
				}
			}
		}
	}
	return nil
}

// VerifyLog checks the log-integrity invariant at quiescence: every
// retained entry decodes to a validated data entry or a checkpoint marker
// (a half-written entry at quiescence would mean a lost update sequence),
// and every entry's epoch lies within the retention window
// [newest+1-retain, newest]. Lost nodes are skipped — their logs are
// unreadable until recovery rebuilds them.
func (m *Machine) VerifyLog() error {
	if m.Ctrls == nil {
		return nil
	}
	retain := uint64(m.retain())
	for _, ctrl := range m.Ctrls {
		if m.Mems[ctrl.Node()].Lost() {
			continue
		}
		cur := ctrl.Epoch()
		var err error
		ctrl.Log().WalkRetained(func(e core.EntryInfo) bool {
			switch {
			case !e.Valid && !e.Ckpt:
				err = fmt.Errorf("node %d: retained log entry without a valid marker (line %#x epoch %d)",
					ctrl.Node(), e.Line, e.Epoch)
			case e.Epoch > cur:
				err = fmt.Errorf("node %d: log entry for future epoch %d (current %d)",
					ctrl.Node(), e.Epoch, cur)
			case e.Epoch+retain <= cur:
				err = fmt.Errorf("node %d: log entry of epoch %d survived reclamation (current %d, retain %d)",
					ctrl.Node(), e.Epoch, cur, retain)
			}
			return err == nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// VerifyLBits checks the L-bit/log agreement invariant at quiescence:
// every line whose Logged bit is set must have a validated log entry of
// the current epoch on its home node (the bit promises the checkpoint
// content is safely logged — section 3.2.2). The converse need not hold:
// CommitEpoch gang-clears the bits but retains the previous epoch's
// entries.
func (m *Machine) VerifyLBits() error {
	if m.Ctrls == nil {
		return nil
	}
	for _, ctrl := range m.Ctrls {
		if m.Mems[ctrl.Node()].Lost() {
			continue
		}
		cur := ctrl.Epoch()
		logged := make(map[arch.LineAddr]bool)
		ctrl.Log().WalkRetained(func(e core.EntryInfo) bool {
			if e.Valid && e.Epoch == cur {
				logged[e.Line] = true
			}
			return true
		})
		var err error
		ctrl.ForEachLBit(func(l arch.LineAddr) { // ascending line order
			if err == nil && !logged[l] {
				err = fmt.Errorf("node %d: L bit set for line %#x but no validated epoch-%d log entry",
					ctrl.Node(), l, cur)
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// VerifyTransport checks the reliable transport's exactly-once invariant:
// no payload was ever delivered twice and — once the event queue has fully
// drained, so no retransmission or ack can still be in flight — every
// payload sent was delivered, explicitly failed, or rolled back. On a
// perfect fabric the transport is a passthrough and the check is vacuous.
func (m *Machine) VerifyTransport() error {
	if m.Xport == nil {
		return nil
	}
	return m.Xport.Verify(m.Engine.Pending() == 0)
}

// VerifyCoherence checks the machine-wide coherence invariants at
// quiescence, relating each home directory's view to the actual cache
// contents and memory:
//
//   - single writer: a line is dirty in at most one node's hierarchy, and
//     the directory records that node as the exclusive owner;
//   - directory conservativeness: every actual holder appears in the
//     directory's sharer set / owner field (the converse may not hold:
//     shared copies evict silently);
//   - value coherence: clean copies equal memory's content; all shared
//     copies are identical.
func (m *Machine) VerifyCoherence() error {
	if !m.Tracker.Quiescent() {
		return fmt.Errorf("machine: coherence check while %d operations in flight",
			m.Tracker.Outstanding())
	}
	for home := range m.Dirs {
		var err error
		m.Dirs[home].ForEachEntry(func(e coherence.EntryView) {
			if err != nil {
				return
			}
			if e.Busy {
				err = fmt.Errorf("line %#x busy at quiescence", e.Line)
				return
			}
			phys, ok := m.AMap.LookupLine(e.Line)
			if !ok {
				err = fmt.Errorf("directory entry for unmapped line %#x", e.Line)
				return
			}
			memData := m.Mems[phys.Node].Peek(phys.MemAddr())
			var holders, dirty []arch.NodeID
			for n, cc := range m.Caches {
				l2 := cc.L2().Probe(e.Line)
				if l2 == nil {
					if l1 := cc.L1().Probe(e.Line); l1 != nil {
						err = fmt.Errorf("node %d: L1 copy of %#x without L2 (inclusion)", n, e.Line)
						return
					}
					continue
				}
				holders = append(holders, arch.NodeID(n))
				isDirty := l2.State == cache.Modified
				if l1 := cc.L1().Probe(e.Line); l1 != nil && l1.State == cache.Modified {
					isDirty = true
				}
				if isDirty {
					dirty = append(dirty, arch.NodeID(n))
				} else if l2.Data != memData {
					memData := memData // copied here so only a mismatch allocates
					err = fmt.Errorf("node %d: clean copy of %#x differs from memory (dir=%s owner=%d sharers=%v l2state=%v cache=%x mem=%x)",
						n, e.Line, e.State, e.Owner, e.Sharers, l2.State, l2.Data[:8], memData[:8])
					return
				}
			}
			if len(dirty) > 1 {
				err = fmt.Errorf("line %#x dirty at %v: single-writer violated", e.Line, dirty)
				return
			}
			switch e.State {
			case "exclusive":
				if len(holders) > 1 {
					err = fmt.Errorf("line %#x exclusive at %d but held by %v", e.Line, e.Owner, holders)
				} else if len(holders) == 1 && holders[0] != e.Owner {
					err = fmt.Errorf("line %#x owner %d but held by %d", e.Line, e.Owner, holders[0])
				}
			case "shared", "uncached":
				if len(dirty) > 0 {
					err = fmt.Errorf("line %#x dirty at %d but directory says %s", e.Line, dirty[0], e.State)
					return
				}
				for _, h := range holders {
					if e.State == "uncached" || !e.Sharers.Has(h) {
						err = fmt.Errorf("line %#x held by %d but not in directory's %s view", e.Line, h, e.State)
						return
					}
				}
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}
