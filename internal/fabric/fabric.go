// Package fabric models the ion-trap quantum circuit fabric of the
// QSPR paper (§II.B, Fig. 4): a cell grid of junctions (J), channels
// (C) and traps (T).
//
//   - Qubits are ions; they rest inside traps and travel through
//     channels, turning at junctions.
//   - A junction or a trap occupies one cell; a channel occupies one
//     or more cells aligned in a line.
//   - Traps hang off channels; a qubit enters or leaves a trap
//     perpendicular to the channel (which costs a turn).
//
// The package offers a parametric fabric generator (including a 45×85
// fabric equivalent to the QUALE release shown in Fig. 4), an ASCII
// renderer, a parser for the rendered form, and the derived
// channel/junction/trap topology the router builds its graph from.
package fabric

import (
	"cmp"
	"fmt"
	"slices"
)

// CellKind classifies one grid cell.
type CellKind uint8

// Cell kinds. The zero value is Empty (white space in Fig. 4).
const (
	Empty CellKind = iota
	Junction
	Channel
	Trap
)

// String returns the single-letter Fig. 4 legend for the cell kind.
func (k CellKind) String() string {
	switch k {
	case Empty:
		return "."
	case Junction:
		return "J"
	case Channel:
		return "C"
	case Trap:
		return "T"
	}
	return "?"
}

// Pos is a cell coordinate (row, column), row 0 at the top.
type Pos struct {
	Row, Col int
}

// ManhattanDist returns the L1 distance between two positions.
func ManhattanDist(a, b Pos) int {
	return abs(a.Row-b.Row) + abs(a.Col-b.Col)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Orientation distinguishes horizontal from vertical channels.
type Orientation uint8

// Channel orientations.
const (
	Horizontal Orientation = iota
	Vertical
)

// String names the orientation.
func (o Orientation) String() string {
	if o == Horizontal {
		return "horizontal"
	}
	return "vertical"
}

// JunctionInfo is one junction cell of the fabric.
type JunctionInfo struct {
	ID  int
	Pos Pos
}

// ChannelInfo is one maximal straight channel between two junctions.
type ChannelInfo struct {
	ID          int
	Orientation Orientation
	// J1, J2 are the junction IDs at the two ends; J1 is the
	// top/left end.
	J1, J2 int
	// Length is the number of channel cells between the junctions;
	// traversing the channel costs Length moves.
	Length int
	// Cells are the channel's cells ordered from J1 to J2.
	Cells []Pos
	// Traps lists the IDs of traps attached to this channel.
	Traps []int
}

// TrapInfo is one trap cell and its channel attachment.
type TrapInfo struct {
	ID  int
	Pos Pos
	// Channel is the ID of the channel the trap hangs off.
	Channel int
	// Offset is the index (0-based) of the attachment cell within
	// the channel's Cells, i.e. the distance in moves from junction
	// J1's side: reaching the attachment cell from J1 costs Offset+1
	// moves.
	Offset int
}

// Fabric is an ion-trap circuit fabric: the raw cell grid plus the
// derived routing topology.
type Fabric struct {
	Rows, Cols int

	cells []CellKind

	Junctions []JunctionInfo
	Channels  []ChannelInfo
	Traps     []TrapInfo

	junctionAt map[Pos]int
	trapAt     map[Pos]int
	channelAt  map[Pos]int // channel cell -> channel ID
}

// At returns the kind of the cell at p (Empty outside the grid).
func (f *Fabric) At(p Pos) CellKind {
	if p.Row < 0 || p.Row >= f.Rows || p.Col < 0 || p.Col >= f.Cols {
		return Empty
	}
	return f.cells[p.Row*f.Cols+p.Col]
}

// JunctionAt returns the junction ID at p, or -1.
func (f *Fabric) JunctionAt(p Pos) int {
	if id, ok := f.junctionAt[p]; ok {
		return id
	}
	return -1
}

// TrapAt returns the trap ID at p, or -1.
func (f *Fabric) TrapAt(p Pos) int {
	if id, ok := f.trapAt[p]; ok {
		return id
	}
	return -1
}

// ChannelAt returns the channel ID covering cell p, or -1.
func (f *Fabric) ChannelAt(p Pos) int {
	if id, ok := f.channelAt[p]; ok {
		return id
	}
	return -1
}

// Center returns the geometric center cell of the grid.
func (f *Fabric) Center() Pos { return Pos{f.Rows / 2, f.Cols / 2} }

// TrapsByDistance returns all trap IDs sorted by Manhattan distance
// from p (ties broken by trap ID for determinism). QUALE's center
// placement and QSPR's median trap search both use this ordering.
func (f *Fabric) TrapsByDistance(p Pos) []int {
	ids := make([]int, len(f.Traps))
	for i := range ids {
		ids[i] = i
	}
	// Every (distance, ID) key is distinct, so an unstable sort has a
	// single possible output.
	slices.SortFunc(ids, func(a, b int) int {
		if c := cmp.Compare(ManhattanDist(f.Traps[a].Pos, p), ManhattanDist(f.Traps[b].Pos, p)); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return ids
}

// NearestTrap returns the trap ID whose cell is closest (Manhattan)
// to p among traps for which keep returns true; -1 if none. Ties go to
// the lower trap ID. keep is consulted only for a trap strictly
// nearer than the best kept so far: a trap at the best distance or
// farther cannot change the answer, since the scan runs in ID order.
func (f *Fabric) NearestTrap(p Pos, keep func(trapID int) bool) int {
	best, bestDist := -1, int(^uint(0)>>1)
	for i := range f.Traps {
		d := ManhattanDist(f.Traps[i].Pos, p)
		if d >= bestDist || (keep != nil && !keep(i)) {
			continue
		}
		best, bestDist = i, d
		if d == 0 {
			break
		}
	}
	return best
}

// Stats summarizes a fabric.
type Stats struct {
	Rows, Cols                 int
	Junctions, Channels, Traps int
	ChannelCells               int
}

// Stats returns summary counts for the fabric.
func (f *Fabric) Stats() Stats {
	s := Stats{
		Rows: f.Rows, Cols: f.Cols,
		Junctions: len(f.Junctions),
		Channels:  len(f.Channels),
		Traps:     len(f.Traps),
	}
	for _, c := range f.Channels {
		s.ChannelCells += c.Length
	}
	return s
}

// String renders a one-line summary.
func (s Stats) String() string {
	return fmt.Sprintf("%dx%d fabric: %d junctions, %d channels (%d cells), %d traps",
		s.Rows, s.Cols, s.Junctions, s.Channels, s.ChannelCells, s.Traps)
}
