package geo

import (
	"math"
	"sort"
)

// Rect is a lat/lon aligned bounding rectangle.
type Rect struct {
	MinLat, MinLon, MaxLat, MaxLon float64
}

func (r Rect) union(o Rect) Rect {
	return Rect{
		MinLat: math.Min(r.MinLat, o.MinLat), MinLon: math.Min(r.MinLon, o.MinLon),
		MaxLat: math.Max(r.MaxLat, o.MaxLat), MaxLon: math.Max(r.MaxLon, o.MaxLon),
	}
}

func (r Rect) intersects(o Rect) bool {
	return r.MinLat <= o.MaxLat && o.MinLat <= r.MaxLat &&
		r.MinLon <= o.MaxLon && o.MinLon <= r.MaxLon
}

func (r Rect) area() float64 {
	return (r.MaxLat - r.MinLat) * (r.MaxLon - r.MinLon)
}

func pointRect(p Point) Rect {
	return Rect{MinLat: p.Lat, MinLon: p.Lon, MaxLat: p.Lat, MaxLon: p.Lon}
}

// RTree is a quadratic-split R-tree over points, the proximity index
// behind WithinDistance queries.
type RTree struct {
	root *rnode
	size int
}

const rtreeMax = 8

type rnode struct {
	rect    Rect
	leaf    bool
	entries []rentry
}

type rentry struct {
	rect  Rect
	child *rnode // internal
	point Point  // leaf
	id    int    // leaf payload
}

// NewRTree returns an empty index.
func NewRTree() *RTree {
	return &RTree{root: &rnode{leaf: true}}
}

// Len returns the number of indexed points.
func (t *RTree) Len() int { return t.size }

// Insert adds a point with an opaque id.
func (t *RTree) Insert(p Point, id int) {
	t.size++
	leaf := t.chooseLeaf(t.root, pointRect(p))
	leaf.entries = append(leaf.entries, rentry{rect: pointRect(p), point: p, id: id})
	t.adjust(leaf)
}

func (t *RTree) chooseLeaf(n *rnode, r Rect) *rnode {
	for !n.leaf {
		best := 0
		bestGrowth := math.MaxFloat64
		for i, e := range n.entries {
			growth := e.rect.union(r).area() - e.rect.area()
			if growth < bestGrowth || (growth == bestGrowth && e.rect.area() < n.entries[best].rect.area()) {
				best, bestGrowth = i, growth
			}
		}
		n.entries[best].rect = n.entries[best].rect.union(r)
		n = n.entries[best].child
	}
	return n
}

// adjust splits overflowing nodes bottom-up. Parent links are found by
// re-descending (trees here are shallow; simplicity wins).
func (t *RTree) adjust(n *rnode) {
	if len(n.entries) <= rtreeMax {
		t.recomputeRects(t.root)
		return
	}
	t.splitNode(n)
	t.recomputeRects(t.root)
}

func (t *RTree) splitNode(n *rnode) {
	// Quadratic split: pick the two seeds wasting the most area together.
	bi, bj, worst := 0, 1, -1.0
	for i := 0; i < len(n.entries); i++ {
		for j := i + 1; j < len(n.entries); j++ {
			waste := n.entries[i].rect.union(n.entries[j].rect).area() -
				n.entries[i].rect.area() - n.entries[j].rect.area()
			if waste > worst {
				bi, bj, worst = i, j, waste
			}
		}
	}
	g1 := &rnode{leaf: n.leaf, entries: []rentry{n.entries[bi]}}
	g2 := &rnode{leaf: n.leaf, entries: []rentry{n.entries[bj]}}
	g1.rect, g2.rect = n.entries[bi].rect, n.entries[bj].rect
	for k, e := range n.entries {
		if k == bi || k == bj {
			continue
		}
		if g1.rect.union(e.rect).area()-g1.rect.area() <= g2.rect.union(e.rect).area()-g2.rect.area() {
			g1.entries = append(g1.entries, e)
			g1.rect = g1.rect.union(e.rect)
		} else {
			g2.entries = append(g2.entries, e)
			g2.rect = g2.rect.union(e.rect)
		}
	}
	if n == t.root {
		t.root = &rnode{leaf: false, entries: []rentry{
			{rect: g1.rect, child: g1},
			{rect: g2.rect, child: g2},
		}}
		return
	}
	// Replace n in its parent with g1 and add g2, splitting upward as
	// needed.
	parent := t.findParent(t.root, n)
	for i := range parent.entries {
		if parent.entries[i].child == n {
			parent.entries[i] = rentry{rect: g1.rect, child: g1}
			break
		}
	}
	parent.entries = append(parent.entries, rentry{rect: g2.rect, child: g2})
	if len(parent.entries) > rtreeMax {
		t.splitNode(parent)
	}
}

func (t *RTree) findParent(cur, target *rnode) *rnode {
	if cur.leaf {
		return nil
	}
	for _, e := range cur.entries {
		if e.child == target {
			return cur
		}
		if p := t.findParent(e.child, target); p != nil {
			return p
		}
	}
	return nil
}

func (t *RTree) recomputeRects(n *rnode) Rect {
	if len(n.entries) == 0 {
		n.rect = Rect{}
		return n.rect
	}
	if n.leaf {
		r := n.entries[0].rect
		for _, e := range n.entries[1:] {
			r = r.union(e.rect)
		}
		n.rect = r
		return r
	}
	r := t.recomputeRects(n.entries[0].child)
	n.entries[0].rect = r
	for i := 1; i < len(n.entries); i++ {
		cr := t.recomputeRects(n.entries[i].child)
		n.entries[i].rect = cr
		r = r.union(cr)
	}
	n.rect = r
	return r
}

// Match is one proximity result.
type Match struct {
	ID     int
	Point  Point
	DistKm float64
}

// WithinDistance returns all points within km kilometers of center,
// nearest first.
func (t *RTree) WithinDistance(center Point, km float64) []Match {
	// Conservative lat/lon envelope of the search circle.
	dLat := km / 111.195
	cosLat := math.Cos(center.Lat * math.Pi / 180)
	dLon := 180.0
	if cosLat > 1e-9 {
		dLon = km / (111.195 * cosLat)
	}
	query := Rect{
		MinLat: center.Lat - dLat, MaxLat: center.Lat + dLat,
		MinLon: center.Lon - dLon, MaxLon: center.Lon + dLon,
	}
	var out []Match
	t.search(t.root, query, func(e rentry) {
		if d := center.DistanceKm(e.point); d <= km {
			out = append(out, Match{ID: e.id, Point: e.point, DistKm: d})
		}
	})
	sort.Slice(out, func(a, b int) bool {
		if out[a].DistKm != out[b].DistKm {
			return out[a].DistKm < out[b].DistKm
		}
		return out[a].ID < out[b].ID
	})
	return out
}

// InRect returns all points inside the rectangle.
func (t *RTree) InRect(r Rect) []Match {
	var out []Match
	t.search(t.root, r, func(e rentry) {
		out = append(out, Match{ID: e.id, Point: e.point})
	})
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

func (t *RTree) search(n *rnode, q Rect, visit func(rentry)) {
	if len(n.entries) == 0 || !n.rect.intersects(q) {
		return
	}
	for _, e := range n.entries {
		if !e.rect.intersects(q) {
			continue
		}
		if n.leaf {
			visit(e)
		} else {
			t.search(e.child, q, visit)
		}
	}
}
