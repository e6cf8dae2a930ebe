package chaos

import (
	"testing"

	"revive/internal/core"
)

// TestHealthyCampaignsUnderEveryStrategy: the full invariant registry must
// hold for every registered recovery-strategy backend, not just the
// default — same seeds, same schedules, a different machine underneath.
func TestHealthyCampaignsUnderEveryStrategy(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-backend campaign sweep in -short mode")
	}
	for _, name := range core.StrategyNames() {
		t.Run(name, func(t *testing.T) {
			sum := Run(Options{Campaigns: 4, Seed: 17, Strategy: name, ShrinkBudget: 16})
			for _, f := range sum.Failures {
				t.Errorf("seed %#016x violated: %v", f.CampaignSeed, f.Outcome.Violations[0])
			}
			if sum.Counters.Campaigns != 4 {
				t.Fatalf("ran %d campaigns, want 4", sum.Counters.Campaigns)
			}
		})
	}
}

// TestBrokenBuildCaughtUnderEveryStrategy: the data-before-log self-test
// must keep its teeth under every backend — each one routes write-backs
// through the same log-before-data discipline, so the deliberately
// inverted build must be caught regardless of which strategy runs.
func TestBrokenBuildCaughtUnderEveryStrategy(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-backend self-test sweep in -short mode")
	}
	for _, name := range core.StrategyNames() {
		t.Run(name, func(t *testing.T) {
			sum := Run(Options{Campaigns: 6, Seed: 42, Bug: BugDataBeforeLog,
				Strategy: name, ShrinkBudget: 24})
			if len(sum.Failures) == 0 {
				t.Fatalf("strategy %q: no campaign caught the deliberately broken build", name)
			}
		})
	}
}

// TestScheduleStrategyRoundTrips: a schedule carrying a strategy must
// validate, reject unknown backends, and survive the artifact round-trip
// so reproducers replay under the backend that found them.
func TestScheduleStrategyRoundTrips(t *testing.T) {
	s := Generate(99)
	s.Strategy = "inline-log"
	if err := s.Validate(); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
	out := RunSchedule(s)
	if out == nil || out.Failed() {
		t.Fatalf("inline-log schedule did not run clean: %+v", out)
	}
	s.Strategy = "no-such-backend"
	if err := s.Validate(); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}
