package core

import (
	"sort"
	"strings"
	"testing"
)

// TestStrategyRegistrySorted pins the registry's canonical order: every
// consumer that iterates it (usage text, the bench matrix, conformance
// sweeps) depends on the order being identical on every run, so the
// registry is a sorted slice, never a map.
func TestStrategyRegistrySorted(t *testing.T) {
	names := StrategyNames()
	if len(names) < 2 {
		t.Fatalf("registry has %d backends, want at least 2 (inline-log, revive)", len(names))
	}
	if !sort.StringsAreSorted(names) {
		t.Fatalf("registry is not sorted by name: %v", names)
	}
	seen := map[string]bool{}
	for _, info := range Strategies() {
		if info.Name == "" || info.Summary == "" || info.New == nil {
			t.Fatalf("incomplete registry entry: %+v", info)
		}
		if seen[info.Name] {
			t.Fatalf("duplicate registry entry %q", info.Name)
		}
		seen[info.Name] = true
		s := info.New()
		if s.Name() != info.Name {
			t.Fatalf("backend %q reports Name() = %q", info.Name, s.Name())
		}
		if other := info.New(); other == nil {
			t.Fatalf("backend %q New returned nil on second call", info.Name)
		}
	}
	if !seen[DefaultStrategy] {
		t.Fatalf("default strategy %q is not registered", DefaultStrategy)
	}
}

func TestNewStrategyResolvesNames(t *testing.T) {
	s, err := NewStrategy("")
	if err != nil {
		t.Fatalf("empty name: %v", err)
	}
	if s.Name() != DefaultStrategy {
		t.Fatalf("empty name resolved to %q, want %q", s.Name(), DefaultStrategy)
	}
	for _, name := range StrategyNames() {
		s, err := NewStrategy(name)
		if err != nil {
			t.Fatalf("NewStrategy(%q): %v", name, err)
		}
		if s.Name() != name {
			t.Fatalf("NewStrategy(%q).Name() = %q", name, s.Name())
		}
	}
	if _, err := NewStrategy("no-such-backend"); err == nil {
		t.Fatal("unknown name accepted")
	} else if !strings.Contains(err.Error(), DefaultStrategy) {
		t.Fatalf("unknown-name error does not list known backends: %v", err)
	}
}
