package machine

import (
	"testing"

	"revive/internal/core"
	"revive/internal/sim"
)

// verifyAll runs the machine-level invariant registry — the same checks
// the chaos harness applies at every quiescent point. Every registered
// strategy backend must satisfy all of them.
func verifyAll(t *testing.T, m *Machine, strat string) {
	t.Helper()
	checks := []struct {
		name string
		fn   func() error
	}{
		{"parity", m.VerifyParity},
		{"log", m.VerifyLog},
		{"lbits", m.VerifyLBits},
		{"coherence", m.VerifyCoherence},
		{"transport", m.VerifyTransport},
	}
	for _, c := range checks {
		if err := c.fn(); err != nil {
			t.Fatalf("strategy %q: %s invariant violated: %v", strat, c.name, err)
		}
	}
}

// TestStrategyConformanceErrorFree: every backend completes an error-free
// run, stamps its name into the stats envelope, and leaves the machine
// satisfying the full invariant registry.
func TestStrategyConformanceErrorFree(t *testing.T) {
	for _, name := range core.StrategyNames() {
		t.Run(name, func(t *testing.T) {
			cfg := verifyCfg()
			cfg.Strategy = name
			m := New(cfg)
			m.Load(testProfile(60000))
			st := m.Run()
			if !m.Done() {
				t.Fatal("machine did not finish")
			}
			if st.Strategy != name {
				t.Fatalf("stats stamped strategy %q, want %q", st.Strategy, name)
			}
			if st.Checkpoints == 0 {
				t.Fatal("no checkpoints committed")
			}
			verifyAll(t, m, name)
		})
	}
}

// TestStrategyConformanceNodeLoss: every backend survives the full
// node-loss cycle — inject, recover, resume, run to completion — and its
// global rollback leaves memory byte-identical to the checkpoint snapshot.
func TestStrategyConformanceNodeLoss(t *testing.T) {
	for _, name := range core.StrategyNames() {
		t.Run(name, func(t *testing.T) {
			cfg := verifyCfg()
			cfg.Strategy = name
			m := New(cfg)
			m.Load(testProfile(150000))
			runToEpoch(t, m, 2, 50*sim.Microsecond)
			m.InjectNodeLoss(1)
			rep, err := m.Recover(1, 2)
			if err != nil {
				t.Fatalf("recovery failed: %v", err)
			}
			if rep.Unavailable() <= 0 {
				t.Fatal("recovery reported zero unavailable time")
			}
			snap, ok := m.SnapshotAt(2)
			if !ok {
				t.Fatal("no snapshot for epoch 2")
			}
			if err := m.VerifyAgainstSnapshot(snap); err != nil {
				t.Fatalf("memory does not match checkpoint after recovery: %v", err)
			}
			if err := m.VerifyParity(); err != nil {
				t.Fatalf("parity inconsistent after recovery: %v", err)
			}
			if err := m.Resume(rep); err != nil {
				t.Fatalf("resume failed: %v", err)
			}
			m.Engine.Run()
			if !m.Done() {
				t.Fatal("machine did not finish after resume")
			}
			if err := m.VerifyParity(); err != nil {
				t.Fatalf("parity broken after resumed run: %v", err)
			}
		})
	}
}
