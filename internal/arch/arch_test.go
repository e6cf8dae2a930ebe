package arch

import (
	"testing"
	"testing/quick"
)

func TestAddrLinePageGeometry(t *testing.T) {
	a := Addr(0x12345)
	if a.Line() != LineAddr(0x12345>>6) {
		t.Fatalf("Line() = %#x", a.Line())
	}
	if a.Page() != PageNum(0x12345>>12) {
		t.Fatalf("Page() = %#x", a.Page())
	}
	l := a.Line()
	if l.Page() != a.Page() {
		t.Fatal("line's page disagrees with address's page")
	}
	if l.Addr() != Addr(uint64(l)<<6) {
		t.Fatal("LineAddr.Addr round-trip broken")
	}
}

func TestPageOffsetRange(t *testing.T) {
	p := PageNum(5)
	first := p.FirstLine()
	for i := 0; i < LinesPerPage; i++ {
		l := first + LineAddr(i)
		if l.Page() != p {
			t.Fatalf("line %d of page 5 maps to page %d", i, l.Page())
		}
		if l.PageOffset() != i {
			t.Fatalf("PageOffset = %d, want %d", l.PageOffset(), i)
		}
	}
}

func TestDataXORIsInvolution(t *testing.T) {
	var a, b Data
	for i := range a {
		a[i] = byte(i * 7)
		b[i] = byte(i * 13)
	}
	orig := a
	a.XOR(&b)
	a.XOR(&b)
	if a != orig {
		t.Fatal("XOR twice did not restore original")
	}
}

// The word-wise XOR must agree with the byte-wise definition on every
// byte, including the last word.
func TestDataXORMatchesBytewise(t *testing.T) {
	f := func(a, b Data) bool {
		want := a
		for i := range want {
			want[i] ^= b[i]
		}
		a.XOR(&b)
		return a == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDataIsZero(t *testing.T) {
	var d Data
	if !d.IsZero() {
		t.Fatal("zero value not IsZero")
	}
	d[63] = 1
	if d.IsZero() {
		t.Fatal("nonzero line reported as zero")
	}
}

func TestPhysLineMemAddr(t *testing.T) {
	p := PhysLine{Node: 3, Frame: 10, Off: 5}
	want := uint64(10)<<PageShift | uint64(5)<<LineShift
	if p.MemAddr() != want {
		t.Fatalf("MemAddr = %#x, want %#x", p.MemAddr(), want)
	}
}

func TestTopologyValidate(t *testing.T) {
	cases := []struct {
		topo Topology
		ok   bool
	}{
		{Topology{Nodes: 16, GroupSize: 8}, true},
		{Topology{Nodes: 16, GroupSize: 2}, true},
		{Topology{Nodes: 16, GroupSize: 4}, true},
		{Topology{Nodes: 16, GroupSize: 16}, true},
		{Topology{Nodes: 16, GroupSize: 3}, false}, // not a divisor
		{Topology{Nodes: 16, GroupSize: 1}, false}, // no redundancy
		{Topology{Nodes: 1, GroupSize: 2}, false},  // too few nodes
	}
	for _, c := range cases {
		err := c.topo.Validate()
		if (err == nil) != c.ok {
			t.Errorf("Validate(%+v) err = %v, want ok=%v", c.topo, err, c.ok)
		}
	}
}

func TestParityRotatesAcrossGroup(t *testing.T) {
	topo := Topology{Nodes: 16, GroupSize: 8}
	// For frames 0..7 of group 0, parity must land on nodes 0..7 in turn.
	for f := Frame(0); f < 8; f++ {
		if got := topo.ParityNode(0, f); got != NodeID(f) {
			t.Errorf("ParityNode(0,%d) = %d, want %d", f, got, f)
		}
	}
	// Group 1 spans nodes 8..15.
	if got := topo.ParityNode(1, 3); got != 11 {
		t.Errorf("ParityNode(1,3) = %d, want 11", got)
	}
}

func TestParityNeverOnDataNode(t *testing.T) {
	for _, gs := range []int{2, 4, 8, 16} {
		topo := Topology{Nodes: 16, GroupSize: gs}
		for n := NodeID(0); n < 16; n++ {
			for f := Frame(0); f < 64; f++ {
				if topo.IsParityFrame(n, f) {
					continue
				}
				p := PhysLine{Node: n, Frame: f, Off: 0}
				par := topo.ParityOf(p)
				if par.Node == n {
					t.Fatalf("gs=%d: parity of %v on same node", gs, p)
				}
				if par.Frame != f {
					t.Fatalf("gs=%d: parity frame %d != data frame %d", gs, par.Frame, f)
				}
				if topo.Group(par.Node) != topo.Group(n) {
					t.Fatalf("gs=%d: parity outside group", gs)
				}
			}
		}
	}
}

func TestParityOfParityFramePanics(t *testing.T) {
	topo := Topology{Nodes: 16, GroupSize: 8}
	defer func() {
		if recover() == nil {
			t.Fatal("ParityOf(parity frame) did not panic")
		}
	}()
	// Frame 0 on node 0 is parity (group 0, 0 mod 8 == 0).
	topo.ParityOf(PhysLine{Node: 0, Frame: 0})
}

func TestStripePeersCount(t *testing.T) {
	topo := Topology{Nodes: 16, GroupSize: 8}
	p := PhysLine{Node: 1, Frame: 0, Off: 7} // parity for frame 0 is node 0
	peers := topo.StripePeers(p)
	if len(peers) != 6 { // 8 nodes - self - parity
		t.Fatalf("len(peers) = %d, want 6", len(peers))
	}
	seen := map[NodeID]bool{1: true, 0: true}
	for _, q := range peers {
		if q.Frame != 0 || q.Off != 7 {
			t.Fatalf("peer %v not in same stripe position", q)
		}
		if seen[q.Node] {
			t.Fatalf("duplicate/invalid peer node %d", q.Node)
		}
		seen[q.Node] = true
	}
}

func TestStripePeersMirroring(t *testing.T) {
	topo := Topology{Nodes: 16, GroupSize: 2}
	p := PhysLine{Node: 3, Frame: 0, Off: 0} // group 1 = nodes {2,3}; parity node for frame 0 is 2
	if peers := topo.StripePeers(p); len(peers) != 0 {
		t.Fatalf("mirroring stripe has %d peers, want 0", len(peers))
	}
	if got := topo.ParityOf(p).Node; got != 2 {
		t.Fatalf("mirror of node 3 frame 0 on node %d, want 2", got)
	}
}

func TestDataFraction(t *testing.T) {
	if f := (Topology{Nodes: 16, GroupSize: 8}).DataFraction(); f != 0.875 {
		t.Fatalf("7+1 data fraction = %v, want 0.875", f)
	}
	if f := (Topology{Nodes: 16, GroupSize: 2}).DataFraction(); f != 0.5 {
		t.Fatalf("mirroring data fraction = %v, want 0.5", f)
	}
}

// Property: every frame of every node is a parity frame for exactly the
// fraction 1/GroupSize of frame indices, and parity placement is within the
// node's own group.
func TestPropertyParityShare(t *testing.T) {
	for _, gs := range []int{2, 4, 8} {
		topo := Topology{Nodes: 16, GroupSize: gs}
		for n := NodeID(0); n < 16; n++ {
			count := 0
			const frames = 4096
			for f := Frame(0); f < frames; f++ {
				if topo.IsParityFrame(n, f) {
					count++
				}
			}
			if count != frames/gs {
				t.Fatalf("gs=%d node=%d parity frames = %d, want %d", gs, n, count, frames/gs)
			}
		}
	}
}

func TestFirstTouchPlacement(t *testing.T) {
	topo := Topology{Nodes: 16, GroupSize: 8}
	m := NewAddressMap(topo)
	pl := m.Touch(100, 5)
	if pl.Home != 5 {
		t.Fatalf("home = %d, want 5 (first toucher)", pl.Home)
	}
	// Second toucher does not move the page.
	pl2 := m.Touch(100, 9)
	if pl2 != pl {
		t.Fatalf("second touch moved page: %+v != %+v", pl2, pl)
	}
}

func TestAllocFrameSkipsParityFrames(t *testing.T) {
	topo := Topology{Nodes: 16, GroupSize: 8}
	m := NewAddressMap(topo)
	// Node 2's parity frames are f with f%8 == 2.
	for i := 0; i < 32; i++ {
		f := m.AllocFrame(2)
		if topo.IsParityFrame(2, f) {
			t.Fatalf("allocated parity frame %d on node 2", f)
		}
	}
}

func TestAllocFrameNoDuplicates(t *testing.T) {
	topo := Topology{Nodes: 16, GroupSize: 2}
	m := NewAddressMap(topo)
	seen := map[Frame]bool{}
	for i := 0; i < 100; i++ {
		f := m.AllocFrame(0)
		if seen[f] {
			t.Fatalf("frame %d allocated twice", f)
		}
		seen[f] = true
	}
}

func TestLookupLineTranslation(t *testing.T) {
	topo := Topology{Nodes: 16, GroupSize: 8}
	m := NewAddressMap(topo)
	l := PageNum(7).FirstLine() + 13
	if _, ok := m.LookupLine(l); ok {
		t.Fatal("LookupLine succeeded before Touch")
	}
	phys := m.TouchLine(l, 4)
	if phys.Node != 4 || phys.Off != 13 {
		t.Fatalf("TouchLine = %+v", phys)
	}
	phys2, ok := m.LookupLine(l)
	if !ok || phys2 != phys {
		t.Fatalf("LookupLine = %+v, %v; want %+v", phys2, ok, phys)
	}
}

func TestPagesHomedAtAndRehome(t *testing.T) {
	topo := Topology{Nodes: 16, GroupSize: 8}
	m := NewAddressMap(topo)
	m.Touch(1, 3)
	m.Touch(2, 3)
	m.Touch(3, 4)
	pages := m.PagesHomedAt(3)
	if len(pages) != 2 {
		t.Fatalf("PagesHomedAt(3) = %v, want 2 pages", pages)
	}
	pl := m.Rehome(1, 7)
	if pl.Home != 7 {
		t.Fatalf("Rehome home = %d, want 7", pl.Home)
	}
	if got, _ := m.Lookup(1); got.Home != 7 {
		t.Fatalf("Lookup after Rehome = %+v", got)
	}
	if len(m.PagesHomedAt(3)) != 1 {
		t.Fatal("Rehome did not remove page from old home")
	}
}

// Regression: PagesHomedAt must return pages sorted by page number, not in
// Go's randomized map-iteration order — recovery enumerates a lost node's
// data pages through it, so an unsorted return made Phase 2/3 work order
// nondeterministic run to run.
func TestPagesHomedAtSorted(t *testing.T) {
	topo := Topology{Nodes: 16, GroupSize: 8}
	m := NewAddressMap(topo)
	// Touch enough pages that map iteration order essentially never
	// matches insertion order, interleaving two homes.
	for i := 256; i > 0; i-- {
		m.Touch(PageNum(i), NodeID(3))
		m.Touch(PageNum(1000+i), NodeID(5))
	}
	for _, n := range []NodeID{3, 5} {
		pages := m.PagesHomedAt(n)
		if len(pages) != 256 {
			t.Fatalf("PagesHomedAt(%d) returned %d pages, want 256", n, len(pages))
		}
		for i := 1; i < len(pages); i++ {
			if pages[i-1] >= pages[i] {
				t.Fatalf("PagesHomedAt(%d) not sorted at index %d: %d >= %d",
					n, i, pages[i-1], pages[i])
			}
		}
	}
}

// Property: distinct pages touched at the same node never share a frame.
func TestPropertyDistinctPagesDistinctFrames(t *testing.T) {
	f := func(pagesRaw []uint16, nodeRaw uint8) bool {
		topo := Topology{Nodes: 16, GroupSize: 8}
		m := NewAddressMap(topo)
		node := NodeID(nodeRaw % 16)
		frames := map[Frame]PageNum{}
		for _, pr := range pagesRaw {
			p := PageNum(pr)
			pl := m.Touch(p, node)
			if prev, ok := frames[pl.Frame]; ok && prev != p {
				return false
			}
			frames[pl.Frame] = p
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHybridMirrorRegion(t *testing.T) {
	topo := Topology{Nodes: 16, GroupSize: 8, MirrorFrames: 64}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	if !topo.MirroredFrame(0) || !topo.MirroredFrame(63) {
		t.Fatal("mirror region not recognized")
	}
	if topo.MirroredFrame(64) {
		t.Fatal("parity region misclassified as mirrored")
	}
	// In the mirror region, the parity (copy) is on the pair partner:
	// frame 2 of pair {4,5} keeps its copy at node 4+(2 mod 2) = 4.
	if !topo.IsParityFrame(4, 2) {
		t.Fatal("expected node 4 frame 2 to be the pair's parity")
	}
	q := PhysLine{Node: 5, Frame: 2, Off: 0}
	if got := topo.ParityOf(q).Node; got != 4 {
		t.Fatalf("mirror partner = %d, want 4", got)
	}
	if peers := topo.StripePeers(q); len(peers) != 0 {
		t.Fatalf("mirror stripe has %d peers, want 0", len(peers))
	}
	// Beyond the region, 7+1 semantics resume.
	r := PhysLine{Node: 5, Frame: 65, Off: 0}
	if len(topo.StripePeers(r)) != 6 {
		t.Fatal("parity region lost its 7+1 stripe")
	}
}

func TestHybridValidation(t *testing.T) {
	if err := (Topology{Nodes: 16, GroupSize: 8, MirrorFrames: 7}).Validate(); err == nil {
		t.Fatal("unaligned mirror region accepted")
	}
	if err := (Topology{Nodes: 16, GroupSize: 8, MirrorFrames: 8, DedicatedParity: true}).Validate(); err == nil {
		t.Fatal("hybrid plus dedicated accepted")
	}
}

func TestDedicatedParityPlacement(t *testing.T) {
	topo := Topology{Nodes: 16, GroupSize: 8, DedicatedParity: true}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	for f := Frame(0); f < 32; f++ {
		if got := topo.ParityNode(0, f); got != 7 {
			t.Fatalf("group 0 parity at node %d, want 7", got)
		}
		if got := topo.ParityNode(1, f); got != 15 {
			t.Fatalf("group 1 parity at node %d, want 15", got)
		}
	}
	if topo.HasDataFrames(7) || topo.HasDataFrames(15) {
		t.Fatal("dedicated parity node claims data frames")
	}
	if !topo.HasDataFrames(0) {
		t.Fatal("data node misclassified")
	}
	if topo.DataHome(7) != 6 {
		t.Fatalf("DataHome(7) = %d, want 6", topo.DataHome(7))
	}
	if topo.DataHome(3) != 3 {
		t.Fatal("DataHome redirects a data node")
	}
}

func TestDataLinesOfIsInverseOfParityOf(t *testing.T) {
	topos := []Topology{
		{Nodes: 16, GroupSize: 8},
		{Nodes: 16, GroupSize: 2},
		{Nodes: 16, GroupSize: 8, MirrorFrames: 16},
		{Nodes: 16, GroupSize: 8, DedicatedParity: true},
	}
	for _, topo := range topos {
		for n := NodeID(0); n < 16; n++ {
			for f := Frame(0); f < 24; f++ {
				if topo.IsParityFrame(n, f) {
					continue
				}
				p := PhysLine{Node: n, Frame: f, Off: 7}
				par := topo.ParityOf(p)
				found := false
				for _, q := range topo.DataLinesOf(par) {
					if q == p {
						found = true
					}
				}
				if !found {
					t.Fatalf("topo %+v: %v not in DataLinesOf(%v)", topo, p, par)
				}
			}
		}
	}
}

// Property: for every frame, each effective group has exactly one parity
// node and stripes partition the group's nodes.
func TestPropertyStripePartition(t *testing.T) {
	f := func(frameRaw uint8, hybrid bool) bool {
		topo := Topology{Nodes: 16, GroupSize: 8}
		if hybrid {
			topo.MirrorFrames = 64
		}
		fr := Frame(frameRaw)
		for n := NodeID(0); n < 16; n++ {
			if topo.IsParityFrame(n, fr) {
				continue
			}
			p := PhysLine{Node: n, Frame: fr, Off: 0}
			members := append(topo.StripePeers(p), p, topo.ParityOf(p))
			seen := map[NodeID]bool{}
			for _, q := range members {
				if seen[q.Node] || q.Frame != fr {
					return false
				}
				seen[q.Node] = true
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
