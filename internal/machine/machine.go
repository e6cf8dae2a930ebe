// Package machine assembles the full system of Figure 2: per node a
// processor, L1/L2 caches, directory controller, memory and network
// interface, connected by a 2-D torus — optionally extended with the
// ReVive controllers — and runs workloads on it to completion.
package machine

import (
	"fmt"

	"revive/internal/arch"
	"revive/internal/cache"
	"revive/internal/coherence"
	"revive/internal/core"
	"revive/internal/iodev"
	"revive/internal/mem"
	"revive/internal/network"
	"revive/internal/proc"
	"revive/internal/sim"
	"revive/internal/stats"
	"revive/internal/trace"
	"revive/internal/workload"
)

// Config selects the machine's size, timing and recovery support.
type Config struct {
	Nodes     int
	GroupSize int // parity group size (8 = 7+1 parity, 2 = mirroring)
	// MirrorFrames enables the hybrid organization of sections 6.1/8:
	// frames below it are mirrored pair-wise, the rest use GroupSize
	// parity. First-touch allocation fills low frames first, so the
	// pages touched earliest — predominantly the hot working set — land
	// in the mirror region, approximating the paper's "careful
	// allocation of frequently used pages into the mirrored region".
	MirrorFrames arch.Frame
	// DedicatedParity concentrates each group's parity on its last node
	// (the Plank-style organization the paper argues against in section
	// 3.1; the ablation benchmarks measure the hot spot).
	DedicatedParity bool
	Revive          bool // attach the ReVive directory-controller extension
	// Strategy selects the recovery-strategy backend behind the
	// controllers ("revive", "inline-log", "conelog"; empty =
	// core.DefaultStrategy). Ignored when Revive is off. New panics on
	// an unknown name — CLIs and the serving layer validate earlier via
	// core.NewStrategy.
	Strategy   string
	Checkpoint core.CheckpointConfig
	Proc       proc.Config
	L1, L2     cache.Config
	Mem        mem.Config
	Net        network.Config
	Dir        coherence.DirConfig
	Bus        coherence.BusConfig

	// DisableLBits / DisableEagerLog select the ablations of sections
	// 4.1.2 and the acknowledgments (see DESIGN.md section 5).
	DisableLBits    bool
	DisableEagerLog bool

	// Verify keeps a per-checkpoint functional snapshot of all memories
	// and stream contexts so tests can check rollback byte-for-byte.
	Verify bool

	// Trace, if non-nil, records flight-recorder events from every layer
	// of the machine (see internal/trace). Nil disables tracing at zero
	// cost on the event hot paths.
	Trace *trace.Tracer
	// Series, if non-nil, receives one metric sample per committed
	// checkpoint: per-node log occupancy, traffic by class, miss rates
	// (the Figure 11 time-series).
	Series *trace.Series
	// OnSample, if non-nil, receives the same per-commit metric sample
	// as Series, as a callback on the event-loop goroutine — the live
	// progress hook behind revive-serve's SSE streams and revive-sim
	// -progress. It may be set (or swapped) any time before the next
	// commit. Must not block; nil costs one pointer check per commit.
	OnSample trace.SampleFunc
}

// Default returns the paper's Table 3 machine: 16 nodes, 7+1 parity,
// ReVive attached, checkpoints on the Cp10ms regime scaled by scale.
func Default(scale int) Config {
	return Config{
		Nodes:      16,
		GroupSize:  8,
		Revive:     true,
		Checkpoint: core.DefaultCheckpointConfig(scale),
		Proc:       proc.DefaultConfig(),
		L1:         cache.L1Default(),
		L2:         cache.L2Default(),
		Mem:        mem.DefaultConfig(),
		Net:        network.DefaultConfig(),
		Dir:        coherence.DefaultDirConfig(),
		Bus:        coherence.DefaultBusConfig(),
	}
}

// Baseline returns Default without any recovery support (the comparison
// system of section 6.1).
func Baseline(scale int) Config {
	cfg := Default(scale)
	cfg.Revive = false
	cfg.Checkpoint.Interval = 0
	return cfg
}

// Snapshot is the functional machine image at a committed checkpoint.
type Snapshot struct {
	Epoch    uint64
	Time     sim.Time
	Mems     []mem.Image // per node; nil unless Config.Verify
	Contexts []any
}

// Machine is one assembled system.
type Machine struct {
	Cfg     Config
	Engine  *sim.Engine
	Stats   *stats.Stats
	Tracker *coherence.Tracker
	Topo    arch.Topology
	AMap    *arch.AddressMap
	Net     *network.Network
	Xport   *network.Transport
	Mems    []*mem.Memory
	Dirs    []*coherence.DirCtrl
	Caches  []*coherence.CacheCtrl
	Ctrls   []*core.Controller // one per node; nil when Revive is off
	Procs   []*proc.Proc
	Ckpt    *core.CheckpointManager

	// strategy is the machine-wide recovery-strategy backend instance
	// shared by all controllers (nil on baseline machines).
	strategy core.Strategy

	finished  int
	snapshots map[uint64]*Snapshot
	devices   []*iodev.Device
	cpuLost   map[arch.NodeID]bool // nodes whose processor+caches died (memory survives)

	// OnCheckpoint, if set, runs after each checkpoint commits (after
	// the machine's own snapshot bookkeeping).
	OnCheckpoint func(epoch uint64)
	// OnRecoveryPhase, if set, runs after each completed recovery phase
	// of every Recover attempt (phases 1-4 for node loss, 1 and 3 for a
	// pure rollback). Fault campaigns use it to inject losses *during*
	// recovery; Recover then re-validates the enlarged lost set and
	// restarts. Note the hook fires again on each restart attempt —
	// one-shot injectors must guard themselves.
	OnRecoveryPhase func(phase int)
	// OnUnreachable, if set, receives the node the detection layer blames
	// when the transport exhausts its retransmit budget (see
	// ResolveUnreachable). The handler is expected to treat it as a node
	// loss: freeze, mark lost, repair the fabric, recover.
	OnUnreachable func(victim arch.NodeID)
}

// New assembles a machine (no workload yet).
func New(cfg Config) *Machine {
	topo := arch.Topology{Nodes: cfg.Nodes, GroupSize: cfg.GroupSize,
		MirrorFrames: cfg.MirrorFrames, DedicatedParity: cfg.DedicatedParity}
	if err := topo.Validate(); err != nil {
		panic(err)
	}
	if cfg.Net.DimX*cfg.Net.DimY != cfg.Nodes {
		// Pick a torus shape for non-default node counts.
		cfg.Net.DimX, cfg.Net.DimY = network.TorusShape(cfg.Nodes)
	}
	engine := sim.NewEngine()
	st := stats.New()
	st.Trace = cfg.Trace
	cfg.Trace.SetClock(engine)
	tracker := &coherence.Tracker{}
	amap := arch.NewAddressMap(topo)
	net, err := network.New(engine, cfg.Net, st)
	if err != nil {
		panic(err)
	}
	// Every controller sends through the reliable transport. With no
	// fault plan attached it is a strict passthrough to the raw torus.
	xport := network.NewTransport(net, network.DefaultTransportConfig())

	m := &Machine{
		Cfg: cfg, Engine: engine, Stats: st, Tracker: tracker,
		Topo: topo, AMap: amap, Net: net, Xport: xport,
		snapshots: make(map[uint64]*Snapshot),
		cpuLost:   make(map[arch.NodeID]bool),
	}
	xport.OnUnreachable = func(src, dst arch.NodeID) {
		if m.OnUnreachable != nil {
			m.OnUnreachable(m.ResolveUnreachable(src, dst))
		}
	}
	for n := 0; n < cfg.Nodes; n++ {
		mm := mem.New(engine, cfg.Mem)
		m.Mems = append(m.Mems, mm)
		m.Dirs = append(m.Dirs, coherence.NewDirCtrl(engine, arch.NodeID(n), cfg.Dir,
			mm, xport, amap, st, tracker))
		m.Caches = append(m.Caches, coherence.NewCacheCtrl(engine, arch.NodeID(n),
			cfg.L1, cfg.L2, cfg.Bus, xport, amap, st, tracker))
	}
	for n := 0; n < cfg.Nodes; n++ {
		m.Dirs[n].SetCaches(m.Caches)
		m.Caches[n].SetDirs(m.Dirs)
	}
	if cfg.Revive {
		strat, err := core.NewStrategy(cfg.Strategy)
		if err != nil {
			panic(err)
		}
		m.strategy = strat
		st.Strategy = strat.Name()
		for n := 0; n < cfg.Nodes; n++ {
			ctrl := core.NewController(engine, arch.NodeID(n), topo, amap,
				m.Dirs, xport, st, tracker)
			ctrl.SetStrategy(strat)
			ctrl.DisableLBits = cfg.DisableLBits
			ctrl.DisableEagerLog = cfg.DisableEagerLog
			m.Ctrls = append(m.Ctrls, ctrl)
			m.Dirs[n].SetExtension(ctrl)
		}
		if fs, ok := strat.(interface {
			FlowObserver() coherence.FlowObserver
		}); ok {
			for n := 0; n < cfg.Nodes; n++ {
				m.Dirs[n].SetFlowObserver(fs.FlowObserver())
			}
		}
		for n := 0; n < cfg.Nodes; n++ {
			m.Ctrls[n].Wire(m.Ctrls)
			m.Ctrls[n].InitEpoch()
		}
	}
	return m
}

// SetFaultPlan attaches a fabric fault plan. Every controller already
// sends through the reliable transport, which switches from passthrough to
// framed/acknowledged mode the moment the plan is non-empty.
func (m *Machine) SetFaultPlan(p *network.FaultPlan) {
	m.Net.SetPlan(p)
}

// Load attaches a workload: one processor per node.
func (m *Machine) Load(w workload.Workload) {
	if m.Procs != nil {
		panic("machine: workload already loaded")
	}
	streams := w.Streams(m.Cfg.Nodes)
	for n := 0; n < m.Cfg.Nodes; n++ {
		p := proc.New(m.Engine, m.Cfg.Proc, n, m.Caches[n], streams[n], m.Stats)
		p.OnFinish = m.procFinished
		m.Procs = append(m.Procs, p)
	}
	if m.Cfg.Revive {
		procs := make([]core.Processor, len(m.Procs))
		for i, p := range m.Procs {
			procs[i] = p
		}
		m.Ckpt = core.NewCheckpointManager(m.Engine, m.Cfg.Checkpoint, procs,
			m.Caches, m.Ctrls, m.Tracker, m.Stats)
		m.Ckpt.OnCommit = m.onCommit
	}
}

func (m *Machine) procFinished() {
	m.finished++
	if m.finished == len(m.Procs) {
		m.Stats.ExecTime = m.Engine.Now()
		if m.Ckpt != nil {
			m.Ckpt.Stop()
		}
	}
}

// onCommit records the committed checkpoint (and, in Verify mode, the full
// functional image) and prunes snapshots beyond the two-checkpoint
// retention window.
func (m *Machine) onCommit(epoch uint64) {
	snap := &Snapshot{Epoch: epoch, Time: m.Engine.Now()}
	if m.Cfg.Verify {
		for _, mm := range m.Mems {
			snap.Mems = append(snap.Mems, mm.Image())
		}
	}
	for _, p := range m.Procs {
		snap.Contexts = append(snap.Contexts, p.ContextSnapshot())
	}
	m.snapshots[epoch] = snap
	m.maybeSample(epoch)
	retain := uint64(m.Cfg.Checkpoint.Retain)
	if retain < 2 {
		retain = 2
	}
	delete(m.snapshots, epoch-retain)
	for _, d := range m.devices {
		d.CommitEpoch(epoch, int(retain))
	}
	if m.OnCheckpoint != nil {
		m.OnCheckpoint(epoch)
	}
}

// maybeSample builds the committed epoch's metric snapshot once and
// fans it out to the configured sinks: the Series accumulator and the
// OnSample live hook. With neither configured it is a pointer check —
// nothing allocates (pinned by TestMaybeSampleNilHookZeroAlloc).
func (m *Machine) maybeSample(epoch uint64) {
	s, hook := m.Cfg.Series, m.Cfg.OnSample
	if s == nil && hook == nil {
		return
	}
	smp := m.Stats.Sample(epoch, int64(m.Engine.Now()))
	for _, ctrl := range m.Ctrls {
		smp.NodeLogBytes = append(smp.NodeLogBytes, ctrl.Log().RetainedBytes())
	}
	if s != nil {
		if s.Classes == nil {
			s.Classes = stats.ClassNames()
		}
		s.Add(smp)
	}
	if hook != nil {
		hook(smp)
	}
}

// AttachDevice adds an external I/O device governed by the machine's
// checkpoints: its outputs release at commits and roll back with recovery
// (the output-commit rule; see internal/iodev). source may be nil.
func (m *Machine) AttachDevice(name string, source func() ([]byte, bool)) *iodev.Device {
	d := iodev.New(m.Engine, name, source)
	m.devices = append(m.devices, d)
	return d
}

// Devices returns the attached I/O devices.
func (m *Machine) Devices() []*iodev.Device { return m.devices }

// SnapshotAt returns the recorded snapshot of a committed checkpoint, if
// still retained.
func (m *Machine) SnapshotAt(epoch uint64) (*Snapshot, bool) {
	s, ok := m.snapshots[epoch]
	return s, ok
}

// Run executes the loaded workload to completion and returns the stats.
func (m *Machine) Run() *stats.Stats {
	m.Start()
	m.Engine.Run()
	if m.finished != len(m.Procs) {
		panic(fmt.Sprintf("machine: deadlock — %d/%d processors finished, %d ops outstanding",
			m.finished, len(m.Procs), m.Tracker.Outstanding()))
	}
	if !m.Tracker.Quiescent() {
		panic("machine: drained with outstanding operations")
	}
	return m.Stats
}

// RunBudget is Run under sim's watchdog: it executes the loaded workload
// to completion unless more than maxEvents events fire first. Where Run
// panics on a machine that cannot finish, RunBudget returns the typed
// watchdog errors — sim.ErrLivelock (wrapped) when the budget runs out
// with processors still unfinished, sim.ErrStalled (wrapped) when the
// event queue drains before the workload completes — so a pathological
// configuration is a reportable error, not a hang or a crash. A
// maxEvents of 0 means no budget (stalls are still typed). The stats
// accumulated up to the stop are always returned.
func (m *Machine) RunBudget(maxEvents uint64) (*stats.Stats, error) {
	m.Start()
	var n uint64
	for m.Engine.Step() {
		n++
		// Once every processor has finished, the residual drain is
		// bounded by what is already queued; only pre-completion events
		// count against the budget.
		if maxEvents > 0 && n >= maxEvents && !m.Done() {
			return m.Stats, fmt.Errorf("machine: %d events without completing the workload: %w",
				n, sim.ErrLivelock)
		}
	}
	if m.finished != len(m.Procs) {
		return m.Stats, fmt.Errorf("machine: %d/%d processors finished, %d ops outstanding: %w",
			m.finished, len(m.Procs), m.Tracker.Outstanding(), sim.ErrStalled)
	}
	if !m.Tracker.Quiescent() {
		return m.Stats, fmt.Errorf("machine: drained with outstanding operations: %w", sim.ErrStalled)
	}
	return m.Stats, nil
}

// RunUntil executes until time t (for fault-injection experiments that
// interrupt a run midway).
func (m *Machine) RunUntil(t sim.Time) {
	m.Engine.RunUntil(t)
}

// Start launches processors and the checkpoint timer without running the
// event loop (callers that single-step or interleave fault injection).
func (m *Machine) Start() {
	if m.Procs == nil {
		panic("machine: no workload loaded")
	}
	for _, p := range m.Procs {
		p.Start()
	}
	if m.Ckpt != nil {
		m.Ckpt.Start()
	}
}

// Done reports whether every processor has finished.
func (m *Machine) Done() bool { return m.finished == len(m.Procs) }

// MemImage returns the current functional content of all memories.
func (m *Machine) MemImage() []mem.Image {
	out := make([]mem.Image, len(m.Mems))
	for i, mm := range m.Mems {
		out[i] = mm.Image()
	}
	return out
}
