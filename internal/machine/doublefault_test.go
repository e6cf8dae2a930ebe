package machine

import (
	"errors"
	"testing"

	"revive/internal/arch"
	"revive/internal/core"
	"revive/internal/sim"
)

// Double-fault coverage: a second node loss arriving while recovery
// Phases 2-4 are running. Same parity group -> typed refusal wrapping
// core.ErrUnrecoverable; different group -> recovery restarts from Phase 1
// over the enlarged lost set and still verifies byte-exact.

func TestSecondLossDuringRecoveryDifferentGroupRestarts(t *testing.T) {
	if testing.Short() {
		t.Skip("16-node double-fault recovery in -short mode")
	}
	for _, phase := range []int{2, 3} {
		m := New(sixteenNodeCfg())
		m.Load(testProfile(120000))
		runToEpoch(t, m, 2, 40*sim.Microsecond)
		m.InjectNodeLoss(3) // group 0
		fired := false
		m.OnRecoveryPhase = func(p int) {
			if p == phase && !fired {
				fired = true
				m.Mems[12].MarkLost() // group 1
			}
		}
		rep, err := m.Recover(3, 2)
		if err != nil {
			t.Fatalf("phase-%d different-group double fault: %v", phase, err)
		}
		if !fired {
			t.Fatalf("phase %d hook never fired", phase)
		}
		if rep.Unavailable() <= 0 {
			t.Fatal("recovery reported zero unavailable time")
		}
		snap, ok := m.SnapshotAt(2)
		if !ok {
			t.Fatal("no snapshot for epoch 2")
		}
		if err := m.VerifyAgainstSnapshot(snap); err != nil {
			t.Fatalf("phase-%d restart not byte-exact: %v", phase, err)
		}
		if err := m.VerifyParity(); err != nil {
			t.Fatalf("phase-%d restart parity: %v", phase, err)
		}
	}
}

func TestSecondLossDuringRecoverySameGroupUnrecoverable(t *testing.T) {
	if testing.Short() {
		t.Skip("16-node double-fault recovery in -short mode")
	}
	m := New(sixteenNodeCfg())
	m.Load(testProfile(120000))
	runToEpoch(t, m, 2, 40*sim.Microsecond)
	m.InjectNodeLoss(3) // group 0
	fired := false
	m.OnRecoveryPhase = func(p int) {
		if p == 2 && !fired {
			fired = true
			m.Mems[5].MarkLost() // also group 0: beyond the fault model
		}
	}
	_, err := m.Recover(3, 2)
	if !errors.Is(err, core.ErrUnrecoverable) {
		t.Fatalf("same-group mid-recovery loss: err = %v, want ErrUnrecoverable", err)
	}
	var ue *core.UnrecoverableError
	if !errors.As(err, &ue) {
		t.Fatalf("error does not carry the lost-node set: %v", err)
	}
	if ue.Group != 0 || len(ue.Lost) != 2 {
		t.Fatalf("unexpected damage report: group %d, lost %v", ue.Group, ue.Lost)
	}
}

func TestLossDuringTransientRollbackRestarts(t *testing.T) {
	// A pure rollback (no memory lost) interrupted by a node loss at its
	// phase-3 boundary must restart as a node-loss recovery.
	m := New(verifyCfg())
	m.Load(testProfile(150000))
	runToEpoch(t, m, 2, 50*sim.Microsecond)
	m.InjectTransient()
	fired := false
	m.OnRecoveryPhase = func(p int) {
		if p == 3 && !fired {
			fired = true
			m.Mems[2].MarkLost()
		}
	}
	rep, err := m.Recover(-1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("phase hook never fired")
	}
	if rep.LogPagesRebuilt == 0 {
		t.Fatal("restarted recovery did not rebuild the newly lost node's log")
	}
	snap, _ := m.SnapshotAt(2)
	if err := m.VerifyAgainstSnapshot(snap); err != nil {
		t.Fatalf("restart not byte-exact: %v", err)
	}
	if err := m.VerifyParity(); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverBeyondRetentionReturnsTypedError(t *testing.T) {
	// Satellite: a detection latency outliving the retention window must
	// surface as a typed error *before* recovery mutates anything.
	m := New(verifyCfg()) // retain = 2
	m.Load(testProfile(400000))
	runToEpoch(t, m, 4, 50*sim.Microsecond)
	m.InjectTransient()
	if err := m.Recoverable(1); err == nil {
		t.Fatal("Recoverable(1) passed despite epoch 1 aged out")
	}
	before := m.MemImage()
	_, err := m.Recover(-1, 1)
	var re *RetentionError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want *RetentionError", err)
	}
	if re.Target != 1 || re.Newest != 4 || re.Retain != 2 {
		t.Fatalf("unexpected retention report: %+v", re)
	}
	for n, after := range m.MemImage() {
		if !before[n].Equal(after) {
			t.Fatalf("node %d's memory mutated by a refused recovery", n)
		}
	}
	// The still-retained epoch remains recoverable afterwards.
	recoverAndCheck(t, m, -1, 4)
}

func TestDetectionBeyondRetentionReportsErr(t *testing.T) {
	// The automatic detection path reports the same condition through
	// DetectionReport.Err instead of crashing the run.
	cfg := verifyCfg()
	m := New(cfg)
	m.Load(testProfile(400000))
	var rep DetectionReport
	got := false
	// Detection latency of ~3 intervals: the target committed before the
	// error ages out before detection fires.
	m.ScheduleTransientError(2*cfg.Checkpoint.Interval+20*sim.Microsecond,
		3*cfg.Checkpoint.Interval, func(r DetectionReport) {
			rep = r
			got = true
		})
	m.Start()
	m.Engine.RunWhile(func() bool { return !got })
	if !got {
		t.Skip("workload finished before the scheduled detection")
	}
	var re *RetentionError
	if !errors.As(rep.Err, &re) {
		t.Fatalf("DetectionReport.Err = %v, want *RetentionError", rep.Err)
	}
}

func TestRecoverWithoutReviveReturnsError(t *testing.T) {
	m := New(smallConfig(false))
	m.Load(testProfile(1000))
	if _, err := m.Recover(-1, 0); !errors.Is(err, ErrNoRevive) {
		t.Fatalf("err = %v, want ErrNoRevive", err)
	}
	if err := m.Recoverable(0); !errors.Is(err, ErrNoRevive) {
		t.Fatalf("Recoverable err = %v, want ErrNoRevive", err)
	}
}

func TestLogAndLBitInvariantsHoldAfterRun(t *testing.T) {
	m := New(verifyCfg())
	m.Load(testProfile(150000))
	m.Run()
	if err := m.VerifyLog(); err != nil {
		t.Fatalf("log invariant after clean run: %v", err)
	}
	if err := m.VerifyLBits(); err != nil {
		t.Fatalf("L-bit invariant after clean run: %v", err)
	}
}

func TestLBitInvariantNonVacuous(t *testing.T) {
	// Guard against the checker silently checking nothing: after a run
	// some controller must actually carry L bits.
	m := New(verifyCfg())
	m.Load(testProfile(150000))
	m.Run()
	total := 0
	for _, ctrl := range m.Ctrls {
		ctrl.ForEachLBit(func(arch.LineAddr) { total++ })
	}
	if total == 0 {
		t.Fatal("no L bits set after a full run; the invariant is vacuous")
	}
}
