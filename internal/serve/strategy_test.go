package serve

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestStrategyIsPartOfContentAddress: results produced under different
// recovery backends must never share a cache entry, so the strategy is
// always spelled out in the canonical request and therefore in the job ID.
func TestStrategyIsPartOfContentAddress(t *testing.T) {
	base := Request{Kind: "sim", Apps: []string{"fft"}, Quick: true}

	_, defCanon, err := Canonicalize(base)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(defCanon), `"strategy":"revive"`) {
		t.Fatalf("default canonical form does not spell out the backend: %s", defCanon)
	}

	explicit := base
	explicit.Strategy = "revive"
	_, expCanon, err := Canonicalize(explicit)
	if err != nil {
		t.Fatal(err)
	}
	if ID(defCanon) != ID(expCanon) {
		t.Fatal("empty and explicit default strategy hash to different jobs")
	}

	inline := base
	inline.Strategy = "inline-log"
	_, inlineCanon, err := Canonicalize(inline)
	if err != nil {
		t.Fatal(err)
	}
	if ID(defCanon) == ID(inlineCanon) {
		t.Fatalf("strategies revive and inline-log share content address %s", ID(defCanon))
	}
}

func TestStrategyRequestValidation(t *testing.T) {
	bad := Request{Kind: "sim", Apps: []string{"fft"}, Strategy: "no-such-backend"}
	if _, _, err := Canonicalize(bad); err == nil {
		t.Fatal("unknown strategy accepted")
	}
	baseline := Request{Kind: "sim", Apps: []string{"fft"}, Baseline: true, Strategy: "inline-log"}
	if _, _, err := Canonicalize(baseline); err == nil {
		t.Fatal("baseline request with a recovery strategy accepted")
	}
}

// TestServeRecoveredJobFailsWhenItNoLongerValidates: a job journaled by an
// earlier build whose request this build rejects (it names the deleted
// conelog backend) ends failed when the daemon recovers its state. It is
// never queued, so it runs no simulation and cannot panic.
func TestServeRecoveredJobFailsWhenItNoLongerValidates(t *testing.T) {
	dir := t.TempDir()
	req, err := json.Marshal(Request{Kind: "sim", Apps: []string{"FFT"}, Nodes: 8, Scale: 100, Quick: true, Strategy: "conelog"})
	if err != nil {
		t.Fatal(err)
	}
	id := ID(req)
	journal, _, err := OpenJournal(dir, t.Logf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := journal.Append(&Record{Op: "accepted", Job: id, Req: req}); err != nil {
		t.Fatal(err)
	}
	journal.Close()

	s := newTestServer(t, dir)
	job, ok := s.Job(id)
	if !ok {
		t.Fatal("recovered job missing")
	}
	s.mu.Lock()
	state, jerr := job.State, job.Err
	s.mu.Unlock()
	const want = `unknown strategy "conelog"`
	if state != "failed" || !strings.Contains(jerr, want) {
		t.Errorf("job state %q err %q, want failed with %s", state, jerr, want)
	}
	if c := s.Counters(); c.Simulations != 0 || c.Failed != 1 {
		t.Errorf("counters = %+v, want 0 simulations and 1 failed", c)
	}
	if n := s.metrics.jobPanics.Value(); n != 0 {
		t.Errorf("%d job panic(s) counted", n)
	}
	shutdown(t, s)

	// The failure is journaled: the next life reads it back as is.
	journal, jobs, err := OpenJournal(dir, t.Logf, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer journal.Close()
	js := jobs[id]
	if js == nil {
		t.Fatal("job missing from the journal")
	}
	if js.State != "failed" || !strings.Contains(js.Err, want) {
		t.Errorf("journaled state %q err %q, want failed with %s", js.State, js.Err, want)
	}
	var got bytes.Buffer
	if err := json.Compact(&got, js.Req); err != nil || !bytes.Equal(got.Bytes(), req) {
		t.Errorf("journaled request rewritten: %s, want %s", js.Req, req)
	}
}
