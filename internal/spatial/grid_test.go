package spatial

import (
	"math/rand"
	"sort"
	"testing"

	"matrix/internal/geom"
)

func sorted(ks []int) []int {
	out := append([]int(nil), ks...)
	sort.Ints(out)
	return out
}

func TestInsertQueryBasics(t *testing.T) {
	g := NewGrid[int](10)
	g.Insert(1, geom.Pt(5, 5))
	g.Insert(2, geom.Pt(50, 50))
	g.Insert(3, geom.Pt(7, 5))
	if g.Len() != 3 {
		t.Fatalf("Len = %d", g.Len())
	}
	got := sorted(g.QueryCircle(geom.Pt(5, 5), 3, nil))
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("QueryCircle = %v", got)
	}
	// Inclusive boundary.
	got = g.QueryCircle(geom.Pt(5, 5), 2, nil)
	if len(got) != 2 {
		t.Fatalf("inclusive boundary: %v", got)
	}
	got = g.QueryCircle(geom.Pt(5, 5), 1.999, nil)
	if len(got) != 1 {
		t.Fatalf("exclusive: %v", got)
	}
}

func TestMoveAcrossCells(t *testing.T) {
	g := NewGrid[int](10)
	g.Insert(1, geom.Pt(5, 5))
	g.Insert(1, geom.Pt(95, 95)) // move far away
	if g.Len() != 1 {
		t.Fatalf("Len = %d after move", g.Len())
	}
	if got := g.QueryCircle(geom.Pt(5, 5), 5, nil); len(got) != 0 {
		t.Fatalf("old cell still occupied: %v", got)
	}
	if got := g.QueryCircle(geom.Pt(95, 95), 1, nil); len(got) != 1 {
		t.Fatalf("new cell empty: %v", got)
	}
	if got := g.QueryCircle(geom.Pt(95, 95), 0, nil); len(got) != 1 {
		t.Fatalf("entity not at its new position: %v", got)
	}
}

func TestMoveWithinCell(t *testing.T) {
	g := NewGrid[int](10)
	g.Insert(1, geom.Pt(5, 5))
	g.Insert(1, geom.Pt(6, 6))
	if got := g.QueryCircle(geom.Pt(6, 6), 0.5, nil); len(got) != 1 {
		t.Fatalf("in-cell move lost: %v", got)
	}
	if got := g.QueryCircle(geom.Pt(6, 6), 0, nil); len(got) != 1 {
		t.Fatalf("entity not at its new position: %v", got)
	}
}

func TestRemove(t *testing.T) {
	g := NewGrid[int](10)
	g.Insert(1, geom.Pt(5, 5))
	g.Remove(1)
	g.Remove(99) // unknown: no-op
	if g.Len() != 0 {
		t.Fatalf("Len = %d", g.Len())
	}
	if got := g.QueryOutsideRect(geom.Rect{}, nil); len(got) != 0 {
		t.Fatalf("removed entity still indexed: %v", got)
	}
	if got := g.QueryCircle(geom.Pt(5, 5), 10, nil); len(got) != 0 {
		t.Fatalf("removed entity still found: %v", got)
	}
}

func TestQueryOutsideRect(t *testing.T) {
	g := NewGrid[int](10)
	g.Insert(1, geom.Pt(5, 5))
	g.Insert(2, geom.Pt(15, 5))
	g.Insert(3, geom.Pt(10, 5)) // on boundary: half-open => outside [0,10)
	r := geom.R(0, 0, 10, 10)
	out := sorted(g.QueryOutsideRect(r, nil))
	if len(out) != 2 || out[0] != 2 || out[1] != 3 {
		t.Fatalf("QueryOutsideRect = %v", out)
	}
	// An empty range (a deactivated server) puts everyone outside.
	if all := sorted(g.QueryOutsideRect(geom.Rect{}, nil)); len(all) != 3 {
		t.Fatalf("empty rect query = %v", all)
	}
}

func TestNegativeCoordinates(t *testing.T) {
	g := NewGrid[int](10)
	g.Insert(1, geom.Pt(-5, -5))
	g.Insert(2, geom.Pt(-15, -15))
	got := g.QueryCircle(geom.Pt(-5, -5), 1, nil)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("negative coords: %v", got)
	}
}

func TestNegativeRadius(t *testing.T) {
	g := NewGrid[int](10)
	g.Insert(1, geom.Pt(0, 0))
	if got := g.QueryCircle(geom.Pt(0, 0), -1, nil); len(got) != 0 {
		t.Fatalf("negative radius: %v", got)
	}
}

func TestKeys(t *testing.T) {
	g := NewGrid[int](10)
	g.Insert(1, geom.Pt(0, 0))
	g.Insert(2, geom.Pt(5, 5))
	ks := sorted(g.Keys(nil))
	if len(ks) != 2 || ks[0] != 1 || ks[1] != 2 {
		t.Fatalf("Keys = %v", ks)
	}
}

func TestDefaultCellSize(t *testing.T) {
	g := NewGrid[int](0)
	g.Insert(1, geom.Pt(0.5, 0.5))
	if got := g.QueryCircle(geom.Pt(0, 0), 1, nil); len(got) != 1 {
		t.Fatalf("default cell: %v", got)
	}
}

// TestGridMatchesBruteForce cross-checks grid queries against a linear scan
// over randomized positions, cell sizes and radii.
func TestGridMatchesBruteForce(t *testing.T) {
	rnd := rand.New(rand.NewSource(9))
	for trial := 0; trial < 30; trial++ {
		cell := []float64{1, 5, 10, 33}[rnd.Intn(4)]
		g := NewGrid[int](cell)
		type ent struct {
			k int
			p geom.Point
		}
		var ents []ent
		for i := 0; i < 200; i++ {
			p := geom.Pt(rnd.Float64()*200-100, rnd.Float64()*200-100)
			g.Insert(i, p)
			ents = append(ents, ent{i, p})
		}
		// Random moves.
		for i := 0; i < 50; i++ {
			k := rnd.Intn(200)
			p := geom.Pt(rnd.Float64()*200-100, rnd.Float64()*200-100)
			g.Insert(k, p)
			ents[k].p = p
		}
		// Random removals.
		removed := map[int]bool{}
		for i := 0; i < 20; i++ {
			k := rnd.Intn(200)
			g.Remove(k)
			removed[k] = true
		}
		for q := 0; q < 20; q++ {
			center := geom.Pt(rnd.Float64()*200-100, rnd.Float64()*200-100)
			radius := rnd.Float64() * 50
			want := map[int]bool{}
			for _, e := range ents {
				if removed[e.k] {
					continue
				}
				dx, dy := e.p.X-center.X, e.p.Y-center.Y
				if dx*dx+dy*dy <= radius*radius {
					want[e.k] = true
				}
			}
			got := g.QueryCircle(center, radius, nil)
			if len(got) != len(want) {
				t.Fatalf("trial %d: got %d, want %d", trial, len(got), len(want))
			}
			for _, k := range got {
				if !want[k] {
					t.Fatalf("trial %d: unexpected %d in result", trial, k)
				}
			}
		}
	}
}

func TestQueryReusesDst(t *testing.T) {
	g := NewGrid[int](10)
	g.Insert(1, geom.Pt(0, 0))
	buf := make([]int, 0, 8)
	got := g.QueryCircle(geom.Pt(0, 0), 1, buf)
	if len(got) != 1 {
		t.Fatal("query failed")
	}
	if cap(got) != cap(buf) {
		t.Error("dst not reused")
	}
}
