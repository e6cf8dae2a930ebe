package core

import (
	"fmt"
	"strings"

	"revive/internal/arch"
	"revive/internal/stats"
)

// Strategy is a pluggable recovery-strategy backend: it decides how a
// node's directory-controller extension turns coherence events into
// logging, parity and checkpoint work. The default "revive" strategy is
// the paper's design point (hardware undo log + distributed parity); the
// alternatives model other published schemes so revive-bench can put them
// in one head-to-head matrix (-strategy-matrix) and the chaos campaigns
// can hammer each of them with the same invariant registry.
//
// A Strategy instance is shared by every Controller of one machine (it
// may carry machine-global state, e.g. conelog's dependence tracker);
// each method receives the per-node Controller it is acting for. All
// methods run inside the simulation's event loop under the same
// scheduling rules as the Controller entry points they back.
type Strategy interface {
	// Name returns the registry name (stamped into the stats envelope).
	Name() string
	// WriteIntent backs Controller.WriteIntent (Figure 5(a) flow: a
	// read-exclusive or upgrade for a line homed at c's node).
	WriteIntent(c *Controller, line arch.LineAddr, phys arch.PhysLine, release func())
	// Write backs Controller.Write (the write-back flows: Figure 5(b)
	// and the Figure 4 data write + parity update).
	Write(c *Controller, line arch.LineAddr, phys arch.PhysLine, data arch.Data,
		ckp bool, ack, release func())
	// CommitEpoch backs Controller.CommitEpoch (checkpoint commit:
	// advance the epoch, clear logging state, reclaim old log space).
	CommitEpoch(c *Controller, epoch uint64, retain int)
}

// DefaultStrategy is the paper's own design point.
const DefaultStrategy = "revive"

// StrategyInfo describes one registered backend.
type StrategyInfo struct {
	// Name is the CLI/registry name (-strategy flag value).
	Name string
	// Summary is a one-line description for usage text.
	Summary string
	// New builds a fresh instance (one per machine).
	New func() Strategy
}

// strategyRegistry is deliberately a sorted slice, not a map: every
// consumer that iterates it (usage text, the bench matrix, conformance
// sweeps) must see the same order on every run and at every parallelism.
// Keep it sorted by Name; TestStrategyRegistrySorted pins the order.
var strategyRegistry = []StrategyInfo{
	{
		Name:    "conelog",
		Summary: "localized rollback: track the write-dependence cone per epoch, roll back only the cone (Dichev et al., arXiv:1806.01611)",
		New:     func() Strategy { return newConeStrategy() },
	},
	{
		Name:    "inline-log",
		Summary: "in-cache-line logging: small undo entries ride the line write, overflowing to the classic log (Cohen et al., arXiv:1902.00660)",
		New:     func() Strategy { return &inlineLogStrategy{} },
	},
	{
		Name:    DefaultStrategy,
		Summary: "the paper's design: hardware undo log + distributed N+1 parity + global two-phase checkpoints",
		New:     func() Strategy { return reviveStrategy{} },
	},
}

// Strategies lists the registered backends in their canonical (sorted)
// order.
func Strategies() []StrategyInfo {
	return strategyRegistry
}

// StrategyNames returns the registered names in canonical order.
func StrategyNames() []string {
	names := make([]string, len(strategyRegistry))
	for i, s := range strategyRegistry {
		names[i] = s.Name
	}
	return names
}

// NewStrategy builds a fresh instance of the named backend. The empty
// name selects DefaultStrategy.
func NewStrategy(name string) (Strategy, error) {
	if name == "" {
		name = DefaultStrategy
	}
	for _, s := range strategyRegistry {
		if s.Name == name {
			return s.New(), nil
		}
	}
	return nil, fmt.Errorf("unknown strategy %q (known: %s)",
		name, strings.Join(StrategyNames(), ", "))
}

// --- the default backend ---

// reviveStrategy is the paper's design point. Its methods are the
// previous Controller.WriteIntent/Write/CommitEpoch bodies, moved
// verbatim: the default backend is byte-identical to the pre-strategy
// simulator at every -j.
type reviveStrategy struct{}

func (reviveStrategy) Name() string { return DefaultStrategy }

// WriteIntent implements the Figure 5(a) flow: on a read-exclusive or
// upgrade for a not-yet-logged line, the memory (checkpoint) content is
// copied to the log and the log parity updated, in the background after the
// reply; the directory entry stays busy until release.
func (reviveStrategy) WriteIntent(c *Controller, line arch.LineAddr, phys arch.PhysLine, release func()) {
	if c.DisableEagerLog || c.BugDataBeforeLog || !c.needsLog(phys) {
		release()
		return
	}
	c.Events.RDXNotLogged++
	c.lbits.set(lineIndex(phys), line)
	// The data read that supplied the requester also feeds the logger
	// (Table 1 charges only 1 extra access: the log write).
	old := c.dirs[c.node].Mem().Peek(phys.MemAddr())
	c.appendLog(line, old, release)
}

// Write implements the write-back flows: Figure 5(b) when the line has not
// been logged (log fully first, delaying the acknowledgment), then the
// Figure 4 data write and data parity update.
func (reviveStrategy) Write(c *Controller, line arch.LineAddr, phys arch.PhysLine, data arch.Data,
	ckp bool, ack, release func()) {
	if !c.needsLog(phys) {
		c.Events.WBLogged++
		c.dataWrite(line, phys, data, ckp, ack, release)
		return
	}
	c.Events.WBNotLogged++
	c.lbits.set(lineIndex(phys), line)
	doWrite := func() { c.dataWrite(line, phys, data, ckp, ack, release) }
	if c.BugDataBeforeLog {
		// The deliberately broken build: the data write lands first and
		// the "old" content fed to the log is peeked *after* it — the log
		// captures D' instead of D, so a later rollback restores the
		// wrong bytes.
		c.dataWrite(line, phys, data, ckp, ack, func() {
			wrong := c.dirs[c.node].Mem().Peek(phys.MemAddr())
			c.appendLog(line, wrong, release)
		})
		return
	}
	old := c.dirs[c.node].Mem().Peek(phys.MemAddr())
	// Log-data update race (section 4.2): the data write must not start
	// before the log entry *and its parity* are fully updated. Table 1:
	// "copy data to log" costs an extra read here (no reply read to
	// reuse) plus the log write.
	c.st.Mem(stats.ClassLog)
	c.dirs[c.node].Mem().Read(phys.MemAddr(), func(arch.Data) {
		c.appendLog(line, old, doWrite)
	})
}

// CommitEpoch advances the checkpoint epoch: gang-clear the L bits and
// reclaim log space older than the oldest retained checkpoint's marker
// (section 3.2.3: retain covers the error-detection latency; the paper's
// default keeps the two most recent checkpoints).
func (reviveStrategy) CommitEpoch(c *Controller, epoch uint64, retain int) {
	c.epoch = epoch
	c.lbits.clear()
	if retain < 2 {
		retain = 2
	}
	if epoch+1 >= uint64(retain) {
		c.log.ReclaimTo(epoch + 1 - uint64(retain))
	}
}
