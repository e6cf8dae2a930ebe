package machine

import (
	"testing"

	"revive/internal/sim"
)

// VerifyParity allocates a small constant per call, however much memory the
// machine has touched: nothing per stripe or per line, and nothing for a
// line that matches (a mismatch alone builds the error).
func TestVerifyParityAllocsConstant(t *testing.T) {
	cfg := Default(1)
	cfg.Checkpoint.Interval = 150 * sim.Microsecond // several commits per run
	m := New(cfg)
	m.Load(testProfile(20000))
	verifyAllocs := func() float64 {
		if err := m.VerifyParity(); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() { _ = m.VerifyParity() })
	}
	before := verifyAllocs()
	m.Run()
	if m.AMap.FramesUsed(0) < 64 {
		t.Fatalf("node 0 used only %d frames; the run should touch many more", m.AMap.FramesUsed(0))
	}
	after := verifyAllocs()
	t.Logf("%.0f allocs per call before the run, %.0f after (%d frames on node 0)", before, after, m.AMap.FramesUsed(0))
	if before > 2 || after != before {
		t.Fatalf("VerifyParity allocates %.0f per call before the run and %.0f after (%d frames on node 0); want one small constant",
			before, after, m.AMap.FramesUsed(0))
	}
}
