package machine

import (
	"errors"
	"fmt"
	"sort"

	"revive/internal/arch"
	"revive/internal/core"
	"revive/internal/stats"
	"revive/internal/trace"
)

// ErrNoRevive is returned when recovery is requested on a machine built
// without the ReVive extension (Config.Revive == false).
var ErrNoRevive = errors.New("machine: recovery without ReVive support")

// RetentionError means the requested rollback target has aged out of the
// retention window: its snapshot or its log markers are no longer held.
// It surfaces *before* recovery mutates anything, so the caller can react
// (e.g. a detection latency longer than Checkpoint.Retain intervals).
type RetentionError struct {
	Target uint64 // requested rollback epoch
	Newest uint64 // newest committed epoch at the time of the check
	Retain int    // configured retention (checkpoints kept)
}

func (e *RetentionError) Error() string {
	return fmt.Sprintf("machine: checkpoint %d aged out of the %d-checkpoint retention window (newest committed: %d); "+
		"detection latency outlived Checkpoint.Retain", e.Target, e.Retain, e.Newest)
}

// Fault injection and recovery orchestration. Errors are fail-stop
// (section 3.1.2): at the instant of injection, every in-flight operation
// is abandoned and the machine stops. Recovery then rebuilds lost memory
// from parity, rolls logs back to the target checkpoint, and — optionally —
// resumes execution from the restored processor contexts.

// InjectNodeLoss destroys a node's memory content at the current simulated
// instant and freezes the machine (all pending events dropped). The paper's
// worst case: permanent loss of an entire node.
func (m *Machine) InjectNodeLoss(node arch.NodeID) {
	m.Stats.Trace.Instant(trace.NodeLost, int(node), 0)
	m.Mems[node].MarkLost()
	m.freeze()
}

// InjectTransient models a system-wide transient error (e.g. a glitch that
// resets every processor and loses all cached data) that leaves memory
// intact. The machine freezes; memory, logs and parity survive.
func (m *Machine) InjectTransient() {
	m.freeze()
}

// InjectCPULoss kills one node's processor and caches at the current
// instant and freezes the machine. Dirty-in-cache state is gone — which
// rollback discards anyway — but the node's memory module, directory state
// and distributed log remain readable (the CXL-era split fault domain):
// recovery skips Phase 2 reconstruction entirely and rolls back from the
// surviving log.
func (m *Machine) InjectCPULoss(node arch.NodeID) {
	m.MarkCPULost(node)
	m.freeze()
}

// MarkCPULost records a CPU-side loss without freezing (fault campaigns
// freeze separately at the fire instant).
func (m *Machine) MarkCPULost(node arch.NodeID) {
	m.Stats.Trace.Instant(trace.CPULost, int(node), 0)
	m.cpuLost[node] = true
}

// InjectMemPartialLoss destroys the contiguous frame range
// [loFrame, loFrame+frames) of one node's memory at the current instant
// and freezes the machine. The node's processor and the rest of its memory
// survive (one device of a pooled module died): recovery reconstructs only
// the damaged range.
func (m *Machine) InjectMemPartialLoss(node arch.NodeID, loFrame, frames arch.Frame) {
	m.MarkMemPartialLost(node, loFrame, frames)
	m.freeze()
}

// MarkMemPartialLost records the partial memory loss without freezing.
func (m *Machine) MarkMemPartialLost(node arch.NodeID, loFrame, frames arch.Frame) {
	m.Stats.Trace.Instant(trace.MemPartialLost, int(node),
		uint64(loFrame)<<32|uint64(frames))
	m.Mems[node].MarkLostRange(uint64(loFrame)<<arch.PageShift,
		uint64(loFrame+frames)<<arch.PageShift)
}

// Freeze abandons all in-flight work (fail-stop). Controllers halt so that
// an update sequence interrupted mid-event abandons its remaining steps.
// Fault injectors call it at the instant of the error; mark any lost
// memories (Mems[n].MarkLost) before or after as needed.
func (m *Machine) Freeze() {
	m.Stats.Trace.Instant(trace.Freeze, -1, 0)
	m.Engine.Reset()
	m.Tracker.Reset()
	m.Xport.Reset() // in-flight transport frames roll back with everything else
	for _, ctrl := range m.Ctrls {
		ctrl.Halt()
	}
	if m.Ckpt != nil {
		m.Ckpt.Stop()
	}
}

// freeze is the internal alias kept for the package's own call sites.
func (m *Machine) freeze() { m.Freeze() }

// LostNodes returns the nodes whose memory is currently marked fully lost,
// in ascending NodeID order (the iteration follows the Mems slice, so the
// order is deterministic regardless of which fault kinds accumulated in
// what sequence — recovery work and reports depend on it).
func (m *Machine) LostNodes() []arch.NodeID {
	var out []arch.NodeID
	for n, mm := range m.Mems {
		if mm.Lost() {
			out = append(out, arch.NodeID(n))
		}
	}
	return out
}

// DamageSet returns the machine's current split-domain damage, sorted by
// NodeID: full memory losses, partial ranges, and CPU-only losses. A node
// with both a dead CPU and destroyed memory reports the memory damage —
// full loss subsumes CPU loss (the escalation ladder's endpoint).
func (m *Machine) DamageSet() []core.Damage {
	var out []core.Damage
	for n := range m.Mems {
		node := arch.NodeID(n)
		mm := m.Mems[n]
		switch {
		case mm.Lost():
			out = append(out, core.Damage{Node: node, Kind: core.FullLoss})
		case mm.PartialLost():
			lo, hi := mm.LostRange()
			frameLo := arch.Frame(lo >> arch.PageShift)
			frameHi := arch.Frame((hi + arch.PageBytes - 1) >> arch.PageShift)
			out = append(out, core.Damage{Node: node, Kind: core.PartialLoss,
				FrameLo: frameLo, Frames: frameHi - frameLo})
		case m.cpuLost[node]:
			out = append(out, core.Damage{Node: node, Kind: core.CPUOnly})
		}
	}
	return out
}

// CPULostNodes returns the nodes whose processor is marked dead while
// their memory survives, in ascending order.
func (m *Machine) CPULostNodes() []arch.NodeID {
	var out []arch.NodeID
	for n := range m.Mems {
		node := arch.NodeID(n)
		if m.cpuLost[node] && !m.Mems[n].Lost() {
			out = append(out, node)
		}
	}
	return out
}

// retain returns the effective checkpoint retention (min-clamped to 2, the
// paper's default — matching CommitEpoch and the snapshot pruning).
func (m *Machine) retain() int {
	retain := m.Cfg.Checkpoint.Retain
	if retain < 2 {
		retain = 2
	}
	return retain
}

// Recoverable reports whether recovery to targetEpoch can proceed: the
// current set of lost nodes must be within ReVive's fault model (at most
// one loss per parity group, section 3.1.2), and the target checkpoint must
// still be retained — its snapshot and, on every surviving data-homing
// node, its log marker. A detection latency that outlives the retention
// window surfaces here as a *RetentionError, before recovery starts, not
// as a mid-Phase-3 failure.
func (m *Machine) Recoverable(targetEpoch uint64) error {
	if m.Ctrls == nil {
		return ErrNoRevive
	}
	rec := &core.Recovery{Topo: m.Topo}
	if err := rec.RecoverableDamage(m.DamageSet()); err != nil {
		return err
	}
	return m.retained(targetEpoch)
}

// retained validates the retention half of Recoverable: the target epoch's
// snapshot bookkeeping and log markers must still exist.
func (m *Machine) retained(targetEpoch uint64) error {
	newest := uint64(0)
	if m.Ckpt != nil {
		newest = m.Ckpt.Epoch()
	}
	if _, ok := m.snapshots[targetEpoch]; !ok {
		return &RetentionError{Target: targetEpoch, Newest: newest, Retain: m.retain()}
	}
	for _, ctrl := range m.Ctrls {
		if m.Mems[ctrl.Node()].Lost() || !m.Topo.HasDataFrames(ctrl.Node()) ||
			m.logDamaged(ctrl) {
			continue // an unreadable log is rebuilt from parity during Phase 2
		}
		// A CPU-lost node's log *survives*, so its marker counts toward
		// retention like any survivor's — cpu loss is not in the lost set.
		if !ctrl.Log().HasMarker(targetEpoch) {
			return &RetentionError{Target: targetEpoch, Newest: newest, Retain: m.retain()}
		}
	}
	return nil
}

// logDamaged reports whether any retained log frame of the controller
// intersects its memory's partially-lost range: the markers there cannot
// be read, and Phase 2 rebuilds those frames from parity.
func (m *Machine) logDamaged(ctrl *core.Controller) bool {
	mm := m.Mems[ctrl.Node()]
	if !mm.PartialLost() {
		return false
	}
	lo, hi := mm.LostRange()
	for _, f := range ctrl.Log().Frames() {
		flo := uint64(f) << arch.PageShift
		if flo < hi && flo+arch.PageBytes > lo {
			return true
		}
	}
	return false
}

// Recover runs rollback recovery to the given committed checkpoint epoch:
// Phase 1 resets caches and directories, Phase 2 rebuilds a lost node's log
// from parity, Phase 3 restores memory from the logs, Phase 4 rebuilds the
// remaining pages of a lost node. lost is -1 for errors without memory
// loss (it is a sanity cross-check: the named node must actually be marked
// lost). The machine is left consistent but stopped; use Resume to continue
// execution, or verify state against a retained snapshot.
//
// For simultaneous multi-node losses (one per parity group at most), mark
// the modules lost and call RecoverAll. Damage beyond the fault model
// returns an error wrapping core.ErrUnrecoverable; a target aged out of
// retention returns a *RetentionError — in both cases before anything is
// mutated. If further modules are lost *while* recovery runs (via
// OnRecoveryPhase, or a detector firing mid-recovery), the enlarged lost
// set is re-validated and recovery restarts from Phase 1; restoration is
// idempotent, so a restart is safe.
func (m *Machine) Recover(lost arch.NodeID, targetEpoch uint64) (core.Report, error) {
	if m.Ctrls == nil {
		return core.Report{}, ErrNoRevive
	}
	if lost >= 0 && !m.Mems[lost].Lost() {
		return core.Report{}, fmt.Errorf("machine: Recover(%d) but that node's memory is not marked lost", lost)
	}
	// known accumulates the worst damage each node suffered across restart
	// attempts: a module that failed mid-recovery was restored by the
	// aborted attempt, but it still counts against its parity group's
	// single-loss budget. The degradation ladder lives here too — a
	// CPU-only loss whose surviving memory then fails upgrades to a full
	// loss and the restart recovers it as one.
	known := map[arch.NodeID]core.Damage{}
	for {
		for _, d := range m.DamageSet() {
			if prev, ok := known[d.Node]; !ok || damageRank(d.Kind) >= damageRank(prev.Kind) {
				known[d.Node] = d
			}
		}
		if err := m.recoverableSet(known, targetEpoch); err != nil {
			return core.Report{}, err
		}
		rep, err := m.recoverOnce(targetEpoch)
		var intr *core.InterruptedError
		if errors.As(err, &intr) {
			continue // new losses; re-validate the union and restart
		}
		if err != nil {
			return rep, err
		}
		if err := m.finishRecovery(rep, targetEpoch, sortedNodes(known)); err != nil {
			return rep, err
		}
		return rep, nil
	}
}

// damageRank orders damage kinds by severity for the escalation ladder.
func damageRank(k core.DamageKind) int {
	switch k {
	case core.FullLoss:
		return 2
	case core.PartialLoss:
		return 1
	default:
		return 0
	}
}

// sortedNodes flattens a damage set into a sorted int slice of its nodes.
func sortedNodes(set map[arch.NodeID]core.Damage) []int {
	out := make([]int, 0, len(set))
	for n := range set {
		out = append(out, int(n))
	}
	sort.Ints(out)
	return out
}

// recoverableSet validates the fault model over the cumulative worst-case
// damage plus retention of the target.
func (m *Machine) recoverableSet(known map[arch.NodeID]core.Damage, targetEpoch uint64) error {
	nodes := make([]arch.NodeID, 0, len(known))
	for n := range known {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	damage := make([]core.Damage, 0, len(nodes))
	for _, n := range nodes {
		damage = append(damage, known[n])
	}
	rec := &core.Recovery{Topo: m.Topo}
	if err := rec.RecoverableDamage(damage); err != nil {
		return err
	}
	return m.retained(targetEpoch)
}

// recoverOnce runs one recovery attempt over the currently-lost modules.
func (m *Machine) recoverOnce(targetEpoch uint64) (core.Report, error) {
	// Phase 1: hardware recovery — reset processors, invalidate caches
	// and directory entries (cost accounted in the report's Phase1), and
	// reconcile every surviving controller's in-flight parity updates
	// (their transient-state buffers are protected; section 3.1.2).
	for _, cc := range m.Caches {
		cc.Reset()
	}
	for _, d := range m.Dirs {
		d.Reset()
	}
	damage := m.DamageSet()
	lostSet := map[arch.NodeID]bool{}
	for _, d := range damage {
		if d.Kind == core.FullLoss {
			lostSet[d.Node] = true
		}
	}
	for _, ctrl := range m.Ctrls {
		ctrl.Unhalt()
		if lostSet[ctrl.Node()] {
			ctrl.DropPending() // a lost controller's buffers died with it
			continue
		}
		// Survivors reconcile — including a CPU-lost node's controller
		// (the directory and its ledger survive the processor's death)
		// and a partially-lost node's (deltas targeting the lost range
		// are dropped; Phase 4 rebuilds that parity from data).
		ctrl.ReconcileParity()
	}
	rec := &core.Recovery{
		Topo: m.Topo, AMap: m.AMap, Mems: m.Mems, Ctrls: m.Ctrls,
		Cfg:       core.DefaultRecoveryConfig(1),
		PhaseHook: m.OnRecoveryPhase,
	}
	if planner, ok := m.strategy.(core.RecoveryPlanner); ok {
		// A scoping strategy (conelog) limits Phase 3 to the fault's
		// dependence cone. The victims are the damaged nodes; a pure
		// rollback (transient fault, no damage) has no known origin and
		// the planner falls back to a global scope.
		victims := make([]arch.NodeID, 0, len(damage))
		for _, d := range damage {
			victims = append(victims, d.Node)
		}
		rec.Scope = planner.PlanRecovery(victims, targetEpoch, m.Topo.Nodes)
	}
	if len(damage) > 0 {
		return rec.Recover(damage, targetEpoch)
	}
	return rec.Rollback(targetEpoch)
}

// finishRecovery truncates the logs at the target marker and rolls the
// epoch and attached devices back. The restored log entries must never
// replay in a future rollback. lost is the cumulative set of nodes lost
// across the recovery's restart attempts, recorded in the history.
func (m *Machine) finishRecovery(rep core.Report, targetEpoch uint64, lost []int) error {
	retain := m.retain()
	for _, ctrl := range m.Ctrls {
		if err := ctrl.Log().TruncateAtMarker(targetEpoch); err != nil {
			return err
		}
		ctrl.CommitEpoch(targetEpoch, retain)
	}
	for _, d := range m.devices {
		d.Rollback(targetEpoch)
	}
	// The dead processors were replaced; Resume restores their contexts.
	for n := range m.cpuLost {
		delete(m.cpuLost, n)
	}
	m.Stats.RecoveryPhase1 = rep.Phase1
	m.Stats.RecoveryPhase2 = rep.Phase2
	m.Stats.RecoveryPhase3 = rep.Phase3
	m.Stats.RecoveryPhase4 = rep.Phase4
	m.Stats.FramesReconstructed += uint64(rep.FramesReconstructed)
	m.Stats.FramesSkipped += uint64(rep.FramesSkipped)
	m.Stats.RecoveryHistory = append(m.Stats.RecoveryHistory, stats.RecoveryRecord{
		At: m.Engine.Now(), TargetEpoch: targetEpoch, Lost: lost,
		Phase1: rep.Phase1, Phase2: rep.Phase2, Phase3: rep.Phase3, Phase4: rep.Phase4,
		FramesRebuilt: rep.FramesReconstructed, FramesSkipped: rep.FramesSkipped,
	})
	// Phase times are analytic (the clock does not advance during
	// recovery), so the trace gets synthetic complete spans laid out from
	// the freeze instant; Phase 4 overlaps resumed execution.
	if tr := m.Stats.Trace; tr.Enabled() {
		now := m.Engine.Now()
		tr.SpanAt(trace.Recovery, -1, now, rep.Unavailable(), targetEpoch)
		tr.SpanAt(trace.RecoveryPhase1, -1, now, rep.Phase1, 0)
		tr.SpanAt(trace.RecoveryPhase2, -1, now+rep.Phase1, rep.Phase2, 0)
		tr.SpanAt(trace.RecoveryPhase3, -1, now+rep.Phase1+rep.Phase2, rep.Phase3, 0)
		tr.SpanAt(trace.RecoveryPhase4, -1, now+rep.Unavailable(), rep.Phase4, 0)
	}
	return nil
}

// Resume restarts execution after Recover: processor contexts are restored
// from the target checkpoint's snapshot, the clock advances past the
// unavailable time, and the checkpoint timer re-arms. Requires Verify-mode
// snapshots (contexts are recorded at every commit regardless, but the
// epoch must still be retained).
func (m *Machine) Resume(rep core.Report) error {
	snap, ok := m.SnapshotAt(rep.TargetEpoch)
	if !ok {
		return fmt.Errorf("machine: no snapshot for epoch %d", rep.TargetEpoch)
	}
	m.finished = 0
	for i, p := range m.Procs {
		p.RestoreContext(snap.Contexts[i])
	}
	// The machine is unavailable for Phases 1-3; execution resumes after.
	m.Engine.RunUntil(m.Engine.Now() + rep.Unavailable())
	m.Ckpt.ResetTo(rep.TargetEpoch)
	for _, p := range m.Procs {
		p.Start()
	}
	m.Ckpt.Start()
	return nil
}

// RecoverAll recovers from whatever combination of lost nodes is currently
// marked, validating the fault model and retention first.
func (m *Machine) RecoverAll(targetEpoch uint64) (core.Report, error) {
	return m.Recover(-1, targetEpoch)
}

// VerifyAgainstSnapshot checks that every page the address map knows about
// holds, line for line, the content recorded in the snapshot. It is the
// rollback-correctness oracle: after recovery, memory must equal the
// checkpoint image byte for byte. Log and parity frames are excluded (the
// log legitimately differs: it carries entries of surviving epochs).
func (m *Machine) VerifyAgainstSnapshot(snap *Snapshot) error {
	if snap.Mems == nil {
		return fmt.Errorf("machine: snapshot of epoch %d has no memory image (Verify mode off)", snap.Epoch)
	}
	logFrames := make(map[arch.NodeID]map[arch.Frame]bool)
	for _, ctrl := range m.Ctrls {
		set := make(map[arch.Frame]bool)
		for _, f := range ctrl.Log().AllFrames() {
			set[f] = true
		}
		logFrames[ctrl.Node()] = set
	}
	for n := 0; n < m.Cfg.Nodes; n++ {
		node := arch.NodeID(n)
		mm, img := m.Mems[node], snap.Mems[node]
		maxFrame := m.AMap.FramesUsed(node)
		for f := arch.Frame(0); f < maxFrame; f++ {
			if m.Topo.IsParityFrame(node, f) || logFrames[node][f] || mm.FrameEqual(f, img) {
				continue
			}
			// Find the first differing line (or meet the lost-memory
			// panic, exactly as a line-by-line comparison would).
			for off := 0; off < arch.LinesPerPage; off++ {
				addr := arch.PhysLine{Node: node, Frame: f, Off: uint8(off)}.MemAddr()
				if got, want := mm.Peek(addr), img.Peek(addr); got != want {
					got, want := got, want // copied here so only a mismatch allocates
					return fmt.Errorf("node %d frame %d off %d: got %x want %x",
						node, f, off, got[:8], want[:8])
				}
			}
		}
	}
	return nil
}
