// Package spatial provides a uniform hash grid for radius queries over
// moving entities — the interest-management substrate game servers use to
// find "all clients whose zone of visibility contains this event" without
// scanning every connected client per packet.
package spatial

import (
	"math"

	"matrix/internal/geom"
)

// Grid is a uniform spatial hash from cells to entity keys. The zero value
// is not usable; call NewGrid. Grid is not safe for concurrent use (each
// game server owns one and serializes access through its inbox).
type Grid[K comparable] struct {
	cell  float64
	cells map[[2]int32]map[K]geom.Point
	pos   map[K]geom.Point
}

// NewGrid creates a grid with the given cell size. Radius queries are most
// efficient when cell is close to the typical query radius. A non-positive
// cell defaults to 1.
func NewGrid[K comparable](cell float64) *Grid[K] {
	if cell <= 0 {
		cell = 1
	}
	return &Grid[K]{
		cell:  cell,
		cells: make(map[[2]int32]map[K]geom.Point),
		pos:   make(map[K]geom.Point),
	}
}

// cellOf maps a point to its cell coordinates.
func (g *Grid[K]) cellOf(p geom.Point) [2]int32 {
	return [2]int32{int32(math.Floor(p.X / g.cell)), int32(math.Floor(p.Y / g.cell))}
}

// Len returns the number of entities in the grid.
func (g *Grid[K]) Len() int { return len(g.pos) }

// Insert adds or moves an entity to p.
func (g *Grid[K]) Insert(k K, p geom.Point) {
	if old, ok := g.pos[k]; ok {
		oc, nc := g.cellOf(old), g.cellOf(p)
		if oc == nc {
			g.pos[k] = p
			g.cells[oc][k] = p
			return
		}
		g.removeFromCell(k, oc)
	}
	g.pos[k] = p
	c := g.cellOf(p)
	m, ok := g.cells[c]
	if !ok {
		m = make(map[K]geom.Point)
		g.cells[c] = m
	}
	m[k] = p
}

// Remove deletes an entity; unknown keys are a no-op.
func (g *Grid[K]) Remove(k K) {
	p, ok := g.pos[k]
	if !ok {
		return
	}
	delete(g.pos, k)
	g.removeFromCell(k, g.cellOf(p))
}

func (g *Grid[K]) removeFromCell(k K, c [2]int32) {
	if m, ok := g.cells[c]; ok {
		delete(m, k)
		if len(m) == 0 {
			delete(g.cells, c)
		}
	}
}

// QueryCircle appends to dst every entity within dist of center (Euclidean,
// inclusive) and returns the extended slice. Pass a reused dst to avoid
// allocation on hot paths.
func (g *Grid[K]) QueryCircle(center geom.Point, dist float64, dst []K) []K {
	if dist < 0 {
		return dst
	}
	minC := g.cellOf(geom.Pt(center.X-dist, center.Y-dist))
	maxC := g.cellOf(geom.Pt(center.X+dist, center.Y+dist))
	d2 := dist * dist
	for cx := minC[0]; cx <= maxC[0]; cx++ {
		for cy := minC[1]; cy <= maxC[1]; cy++ {
			m, ok := g.cells[[2]int32{cx, cy}]
			if !ok {
				continue
			}
			for k, p := range m {
				dx, dy := p.X-center.X, p.Y-center.Y
				if dx*dx+dy*dy <= d2 {
					dst = append(dst, k)
				}
			}
		}
	}
	return dst
}

// QueryOutsideRect appends every entity NOT inside r to dst — exactly the
// set a game server must redirect after its range shrinks.
func (g *Grid[K]) QueryOutsideRect(r geom.Rect, dst []K) []K {
	for k, p := range g.pos {
		if !r.Contains(p) {
			dst = append(dst, k)
		}
	}
	return dst
}

// Keys appends all entity keys to dst.
func (g *Grid[K]) Keys(dst []K) []K {
	for k := range g.pos {
		dst = append(dst, k)
	}
	return dst
}
