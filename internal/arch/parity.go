package arch

import "fmt"

// Topology describes the node count and the parity organization. Nodes are
// partitioned into parity groups of GroupSize consecutive nodes. Within a
// group, the pages at equal frame index f on each node form one parity
// stripe; by default the stripe's parity page is frame f on the node at
// position (f mod GroupSize) within the group, so parity rotates across
// the group's nodes exactly as in RAID-5. With GroupSize G, a fraction 1/G
// of each node's frames is reserved for parity (12.5% for 7+1; 50% for
// mirroring).
//
// Mirroring is the degenerate GroupSize == 2 case: one "parity" page
// protects exactly one data page and holds a plain copy of it (XOR of a
// single page is the page itself).
//
// Two variants reproduce design points the paper discusses:
//
//   - MirrorFrames implements the hybrid organization of sections 6.1 and
//     8 ("mirroring support for the most frequently accessed pages and
//     N+1 parity for all other pages"): frames below MirrorFrames are
//     protected by pair-wise mirroring (partner node = n XOR 1), frames at
//     or above by GroupSize parity. Pairs always lie within their parity
//     group, so recoverability is still judged per group.
//
//   - DedicatedParity reproduces the Plank-style organization the paper
//     argues *against* in section 3.1: all parity pages of a group live on
//     the group's last node instead of rotating. That node holds no data
//     (its processor still computes) and becomes the hot spot the paper
//     predicts; the ablation benchmarks measure it.
type Topology struct {
	// Nodes is the number of nodes in the machine (16 in the paper).
	Nodes int
	// GroupSize is the parity group size: 8 models the paper's 7+1
	// parity, 2 models mirroring. Must divide Nodes and be >= 2.
	GroupSize int
	// MirrorFrames, when nonzero, mirrors frames below it pair-wise
	// (hybrid protection). Must be a multiple of GroupSize so the
	// rotation phase of the parity region stays aligned.
	MirrorFrames Frame
	// DedicatedParity concentrates each group's parity on its last node.
	DedicatedParity bool
}

// Validate checks the structural constraints the paper states in section
// 6.2: the node count must be a multiple of the parity group size (and the
// group must have at least one data page).
func (t Topology) Validate() error {
	if t.Nodes < 2 {
		return fmt.Errorf("arch: need at least 2 nodes, got %d", t.Nodes)
	}
	if t.GroupSize < 2 {
		return fmt.Errorf("arch: parity group size must be >= 2, got %d", t.GroupSize)
	}
	if t.Nodes%t.GroupSize != 0 {
		return fmt.Errorf("arch: node count %d is not a multiple of parity group size %d",
			t.Nodes, t.GroupSize)
	}
	if t.MirrorFrames%Frame(t.GroupSize) != 0 {
		return fmt.Errorf("arch: mirror region (%d frames) must be a multiple of the group size %d",
			t.MirrorFrames, t.GroupSize)
	}
	if t.DedicatedParity && t.MirrorFrames != 0 {
		return fmt.Errorf("arch: dedicated parity and hybrid mirroring are mutually exclusive")
	}
	return nil
}

// Mirroring reports whether the whole memory uses 1+1 mirroring.
func (t Topology) Mirroring() bool { return t.GroupSize == 2 }

// Hybrid reports whether a mirror region is configured.
func (t Topology) Hybrid() bool { return t.MirrorFrames > 0 }

// MirroredFrame reports whether frame f falls in the mirror region (or the
// whole organization is mirroring).
func (t Topology) MirroredFrame(f Frame) bool {
	return t.GroupSize == 2 || f < t.MirrorFrames
}

// groupSizeAt is the effective group size for a frame: 2 in the mirror
// region, GroupSize elsewhere.
func (t Topology) groupSizeAt(f Frame) int {
	if t.MirroredFrame(f) {
		return 2
	}
	return t.GroupSize
}

// Group returns the parity-group index of node n (at the full GroupSize;
// mirror pairs are subsets of these groups, so recoverability is always
// judged at this granularity).
func (t Topology) Group(n NodeID) int { return int(n) / t.GroupSize }

// GroupNodes returns the nodes belonging to parity group g, in order.
func (t Topology) GroupNodes(g int) []NodeID {
	nodes := make([]NodeID, t.GroupSize)
	for i := range nodes {
		nodes[i] = NodeID(g*t.GroupSize + i)
	}
	return nodes
}

// groupAt returns the effective group index and member nodes for node n at
// frame f.
func (t Topology) groupAt(n NodeID, f Frame) (base NodeID, size int) {
	size = t.groupSizeAt(f)
	return NodeID(int(n) / size * size), size
}

// parityNodeAt returns the node holding the parity page for the stripe
// containing frame f of node n's effective group.
func (t Topology) parityNodeAt(n NodeID, f Frame) NodeID {
	base, size := t.groupAt(n, f)
	if t.DedicatedParity {
		return base + NodeID(size-1)
	}
	return base + NodeID(int(f)%size)
}

// ParityNode returns the node holding the parity page for stripe f of
// (full-size) group g. Callers that may be in a mirror region should use
// ParityOf on a PhysLine instead.
func (t Topology) ParityNode(g int, f Frame) NodeID {
	return t.parityNodeAt(NodeID(g*t.GroupSize), f)
}

// IsParityFrame reports whether frame f on node n is reserved for parity.
func (t Topology) IsParityFrame(n NodeID, f Frame) bool {
	return t.parityNodeAt(n, f) == n
}

// HasDataFrames reports whether node n ever holds data. Only false for the
// per-group parity nodes of the DedicatedParity organization.
func (t Topology) HasDataFrames(n NodeID) bool {
	return !t.DedicatedParity || int(n)%t.GroupSize != t.GroupSize-1
}

// DataHome redirects a first-touch home to a node that can hold data: the
// toucher itself unless it is a dedicated parity node, in which case its
// group neighbor.
func (t Topology) DataHome(n NodeID) NodeID {
	if t.HasDataFrames(n) {
		return n
	}
	return n - 1
}

// ParityOf returns the physical location of the parity line protecting
// data line p. It panics if p itself is a parity frame: parity is not
// protected by second-level parity.
func (t Topology) ParityOf(p PhysLine) PhysLine {
	if t.IsParityFrame(p.Node, p.Frame) {
		panic("arch: ParityOf called on a parity frame")
	}
	return PhysLine{Node: t.parityNodeAt(p.Node, p.Frame), Frame: p.Frame, Off: p.Off}
}

// StripePeers returns the data lines of p's parity stripe other than p
// itself: the same frame and offset on the other non-parity nodes of the
// effective group. Together with the parity line they reconstruct p by
// XOR. In a mirror region there are no peers: the parity line alone is the
// copy.
func (t Topology) StripePeers(p PhysLine) []PhysLine {
	base, size := t.groupAt(p.Node, p.Frame)
	parity := t.parityNodeAt(p.Node, p.Frame)
	peers := make([]PhysLine, 0, size-2)
	for i := 0; i < size; i++ {
		n := base + NodeID(i)
		if n == p.Node || n == parity {
			continue
		}
		peers = append(peers, PhysLine{Node: n, Frame: p.Frame, Off: p.Off})
	}
	return peers
}

// DataLinesOf returns the data lines protected by parity line p (the
// inverse of ParityOf): the stripe members other than the parity node.
// It panics if p is not a parity line.
func (t Topology) DataLinesOf(p PhysLine) []PhysLine {
	return t.AppendDataLinesOf(make([]PhysLine, 0, t.groupSizeAt(p.Frame)-1), p)
}

// AppendDataLinesOf appends DataLinesOf(p) to dst and returns the extended
// slice; a caller that reuses dst checks whole stripes without allocating.
func (t Topology) AppendDataLinesOf(dst []PhysLine, p PhysLine) []PhysLine {
	if !t.IsParityFrame(p.Node, p.Frame) {
		panic("arch: DataLinesOf called on a data frame")
	}
	base, size := t.groupAt(p.Node, p.Frame)
	for i := 0; i < size; i++ {
		n := base + NodeID(i)
		if n == p.Node {
			continue
		}
		dst = append(dst, PhysLine{Node: n, Frame: p.Frame, Off: p.Off})
	}
	return dst
}

// DataFraction returns the fraction of memory available for data
// ((G-1)/G): 87.5% for 7+1 parity, 50% for mirroring. Hybrid
// organizations fall in between depending on the mirror region's share.
func (t Topology) DataFraction() float64 {
	return float64(t.GroupSize-1) / float64(t.GroupSize)
}
