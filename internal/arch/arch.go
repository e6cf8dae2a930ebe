// Package arch defines the architectural vocabulary shared by every
// component of the machine model: addresses, cache lines, pages, node
// identifiers, the first-touch page placement map, and the distributed
// parity layout of Figure 3 in the ReVive paper.
//
// Two address spaces exist. Workloads issue accesses in a flat global
// address space. Each global page is placed at a *home node* on first touch
// (the paper's allocation policy) and assigned a physical *frame* in that
// node's memory. Parity groups are formed from equal frame indices across
// the nodes of a parity group, RAID-5 style, so parity pages are spread
// evenly over all nodes.
package arch

import (
	"encoding/binary"
	"fmt"
)

// Fixed geometry of the modeled memory system (Table 3: 64-byte lines).
const (
	LineShift = 6
	LineBytes = 1 << LineShift // 64
	PageShift = 12
	PageBytes = 1 << PageShift // 4096
	// LinesPerPage is the number of cache lines in one page.
	LinesPerPage = PageBytes / LineBytes // 64
)

// NodeID identifies one node of the machine (processor + caches + directory
// controller + local memory).
type NodeID int

// Addr is a byte address in the global address space.
type Addr uint64

// LineAddr is a cache-line index in the global address space (Addr >> 6).
type LineAddr uint64

// PageNum is a page index in the global address space (Addr >> 12).
type PageNum uint64

// Frame is a physical page-frame index within one node's local memory.
type Frame uint32

// Data is the content of one cache line. The simulator is functional as
// well as timed: caches, memories, logs and parity all carry real bytes so
// that recovery correctness can be verified, not just asserted.
type Data [LineBytes]byte

// Line returns the cache line containing a.
func (a Addr) Line() LineAddr { return LineAddr(a >> LineShift) }

// Page returns the page containing a.
func (a Addr) Page() PageNum { return PageNum(a >> PageShift) }

// Addr returns the byte address of the first byte of the line.
func (l LineAddr) Addr() Addr { return Addr(l) << LineShift }

// Page returns the page containing the line.
func (l LineAddr) Page() PageNum { return PageNum(l >> (PageShift - LineShift)) }

// PageOffset returns the index of the line within its page (0..63).
func (l LineAddr) PageOffset() int { return int(l) & (LinesPerPage - 1) }

// FirstLine returns the first line of the page.
func (p PageNum) FirstLine() LineAddr { return LineAddr(p) << (PageShift - LineShift) }

// XOR accumulates other into d, eight bytes at a time. It is the
// parity-update primitive: P' = P XOR (D XOR D').
func (d *Data) XOR(other *Data) {
	for i := 0; i < LineBytes; i += 8 {
		binary.LittleEndian.PutUint64(d[i:],
			binary.LittleEndian.Uint64(d[i:])^binary.LittleEndian.Uint64(other[i:]))
	}
}

// IsZero reports whether every byte of the line is zero.
func (d *Data) IsZero() bool { return *d == Data{} }

// PhysLine names one cache line of physical memory: a frame on a node plus
// the line offset within the frame's page.
type PhysLine struct {
	Node  NodeID
	Frame Frame
	Off   uint8 // line index within the page, 0..LinesPerPage-1
}

// MemAddr returns the byte offset of the line within the node's memory,
// used for DRAM bank and row mapping.
func (p PhysLine) MemAddr() uint64 {
	return uint64(p.Frame)<<PageShift | uint64(p.Off)<<LineShift
}

func (p PhysLine) String() string {
	return fmt.Sprintf("node%d/frame%d+%d", p.Node, p.Frame, p.Off)
}
