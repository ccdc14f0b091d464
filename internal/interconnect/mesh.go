// Package interconnect models the on-chip network of the simulated CMP:
// a 2-D mesh with XY (dimension-ordered) routing, 2-cycle wire latency
// and 1-cycle route latency per hop (Table III). The model is
// contention-free: it composes per-hop latencies rather than simulating
// individual flits, which is sufficient for the relative execution-time
// comparisons the paper reports.
package interconnect

import (
	"fmt"
	"sort"

	"suvtm/internal/sim"
)

// Mesh is a W x H grid of tiles. Tile i sits at (i % W, i / W). Each tile
// hosts one core plus one slice of the shared L2/directory; a line's home
// tile is chosen by address interleaving.
type Mesh struct {
	width, height int
	wireLat       sim.Cycles // per-hop wire latency
	routeLat      sim.Cycles // per-hop router latency

	// Link accounting (observability; nil = disabled). links holds one
	// traversal count per directed link, indexed tile*4+direction.
	links []uint64
	msgs  uint64
}

// Directed link directions out of a tile (index into the per-tile group
// of four link counters).
const (
	linkEast = iota
	linkWest
	linkSouth
	linkNorth
	linkDirs
)

// NewMesh builds a mesh for n tiles with the given per-hop latencies.
// n must be a product of a (near-)square factorization; 16 cores yield a
// 4x4 mesh as in the paper.
func NewMesh(n int, wireLat, routeLat sim.Cycles) *Mesh {
	w, h := Dimensions(n)
	return &Mesh{width: w, height: h, wireLat: wireLat, routeLat: routeLat}
}

// Dimensions returns the most square WxH factorization of n tiles.
func Dimensions(n int) (w, h int) {
	if n <= 0 {
		panic(fmt.Sprintf("interconnect: bad tile count %d", n))
	}
	best := 1
	for f := 1; f*f <= n; f++ {
		if n%f == 0 {
			best = f
		}
	}
	return n / best, best
}

// Width returns the mesh width in tiles.
func (m *Mesh) Width() int { return m.width }

// Height returns the mesh height in tiles.
func (m *Mesh) Height() int { return m.height }

// Tiles returns the total number of tiles.
func (m *Mesh) Tiles() int { return m.width * m.height }

// Coord returns the (x, y) position of tile id.
func (m *Mesh) Coord(id int) (x, y int) {
	return id % m.width, id / m.width
}

// Hops returns the Manhattan (XY-routed) hop count between two tiles.
func (m *Mesh) Hops(from, to int) int {
	fx, fy := m.Coord(from)
	tx, ty := m.Coord(to)
	dx := fx - tx
	if dx < 0 {
		dx = -dx
	}
	dy := fy - ty
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

// Latency returns the one-way message latency between two tiles. A
// message to the local tile still pays one router traversal.
func (m *Mesh) Latency(from, to int) sim.Cycles {
	if m.links != nil {
		m.record(from, to)
	}
	hops := sim.Cycles(m.Hops(from, to))
	return hops*(m.wireLat+m.routeLat) + m.routeLat
}

// RoundTrip returns the request+response latency between two tiles.
func (m *Mesh) RoundTrip(from, to int) sim.Cycles {
	return m.Latency(from, to) + m.Latency(to, from)
}

// EnableStats turns on per-link traffic accounting: every subsequent
// Latency/RoundTrip walks its XY route and counts each directed link
// traversed. Disabled (the default), the cost is one nil check.
func (m *Mesh) EnableStats() {
	if m.links == nil {
		m.links = make([]uint64, m.Tiles()*linkDirs)
	}
}

// Messages returns the number of one-way messages recorded (0 until
// EnableStats).
func (m *Mesh) Messages() uint64 { return m.msgs }

// record walks the XY route from -> to, counting each directed link.
func (m *Mesh) record(from, to int) {
	m.msgs++
	fx, fy := m.Coord(from)
	tx, ty := m.Coord(to)
	for fx != tx {
		dir, next := linkEast, fx+1
		if tx < fx {
			dir, next = linkWest, fx-1
		}
		m.links[(fy*m.width+fx)*linkDirs+dir]++
		fx = next
	}
	for fy != ty {
		dir, next := linkSouth, fy+1
		if ty < fy {
			dir, next = linkNorth, fy-1
		}
		m.links[(fy*m.width+fx)*linkDirs+dir]++
		fy = next
	}
}

// LinkLoad is the traffic over one directed link between adjacent tiles.
type LinkLoad struct {
	From, To int
	Messages uint64
}

// LinkLoads returns every directed link with non-zero traffic, busiest
// first (ties break on link position for determinism). Empty until
// EnableStats.
func (m *Mesh) LinkLoads() []LinkLoad {
	var out []LinkLoad
	for i, n := range m.links {
		if n == 0 {
			continue
		}
		tile, dir := i/linkDirs, i%linkDirs
		x, y := m.Coord(tile)
		switch dir {
		case linkEast:
			x++
		case linkWest:
			x--
		case linkSouth:
			y++
		case linkNorth:
			y--
		}
		out = append(out, LinkLoad{From: tile, To: y*m.width + x, Messages: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Messages != out[j].Messages {
			return out[i].Messages > out[j].Messages
		}
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// HomeTile returns the tile whose L2/directory slice owns line
// (low-order line-address interleaving across tiles, matching the
// 4-memory-controller banked organization of Table III).
func (m *Mesh) HomeTile(line sim.Line) int {
	return int(line % sim.Line(m.Tiles()))
}

// MaxLatency returns the worst-case one-way latency across the mesh,
// used for broadcast-style operations (invalidation fan-out).
func (m *Mesh) MaxLatency() sim.Cycles {
	hops := sim.Cycles(m.width - 1 + m.height - 1)
	return hops*(m.wireLat+m.routeLat) + m.routeLat
}
