package pathenum

import (
	"testing"

	"repro/internal/trace"
)

func TestPathChain(t *testing.T) {
	p := newSource(3, 0)
	p = p.extend(5, 2)
	p = p.extend(7, 4)
	if p.Hops != 2 {
		t.Errorf("Hops = %d, want 2", p.Hops)
	}
	nodes := p.Nodes()
	if len(nodes) != 3 || nodes[0] != 3 || nodes[1] != 5 || nodes[2] != 7 {
		t.Errorf("Nodes = %v", nodes)
	}
	steps := p.Steps()
	if len(steps) != 3 || steps[0] != 0 || steps[1] != 2 || steps[2] != 4 {
		t.Errorf("Steps = %v", steps)
	}
	for _, n := range []trace.NodeID{3, 5, 7} {
		if !p.Contains(n) {
			t.Errorf("Contains(%d) = false", n)
		}
	}
	if p.Contains(4) {
		t.Errorf("Contains(4) = true")
	}
	if p.Parent().Node != 5 {
		t.Errorf("Parent node = %d, want 5", p.Parent().Node)
	}
	if got, want := p.String(), "3@0 -> 5@2 -> 7@4"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestPathSharesPrefix(t *testing.T) {
	base := newSource(0, 0)
	a := base.extend(1, 1)
	b := base.extend(2, 1)
	if a.Parent() != base || b.Parent() != base {
		t.Errorf("extensions do not share prefix")
	}
	if a.Contains(2) || b.Contains(1) {
		t.Errorf("sibling membership leaked")
	}
}
