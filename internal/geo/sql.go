package geo

import (
	"fmt"
	"sync"

	"repro/internal/columnstore"
	"repro/internal/sqlexec"
	"repro/internal/value"
)

// Indexes maintains R-tree indexes over (lat, lon) table columns and
// registers the SQL surface of the geo engine:
//
//	ST_DISTANCE_KM(lat1, lon1, lat2, lon2)           scalar km
//	ST_WITHIN_DISTANCE(lat1, lon1, lat2, lon2, km)   scalar boolean
//	ST_CONTAINS('POLYGON((...))', lat, lon)          scalar boolean
//	ST_AREA_KM2('POLYGON((...))')                    scalar km²
//	TABLE(GEO_NEARBY('index', lat, lon, km))         indexed (k, dist_km)
type Indexes struct {
	mu   sync.Mutex
	eng  *sqlexec.Engine
	idxs map[string]*tableGeoIndex
}

type tableGeoIndex struct {
	table          string
	latCol, lonCol string
	keyCol         string
	cachedTS       uint64
	tree           *RTree
	keys           []string // id -> key value
}

// Attach installs the geo engine into a relational engine.
func Attach(eng *sqlexec.Engine) *Indexes {
	g := &Indexes{eng: eng, idxs: map[string]*tableGeoIndex{}}

	eng.Reg.RegisterScalar("ST_DISTANCE_KM", func(a []value.Value) (value.Value, error) {
		if len(a) != 4 {
			return value.Null, fmt.Errorf("geo: ST_DISTANCE_KM(lat1, lon1, lat2, lon2)")
		}
		p := Point{a[0].AsFloat(), a[1].AsFloat()}
		q := Point{a[2].AsFloat(), a[3].AsFloat()}
		return value.Float(p.DistanceKm(q)), nil
	})
	eng.Reg.RegisterScalar("ST_WITHIN_DISTANCE", func(a []value.Value) (value.Value, error) {
		if len(a) != 5 {
			return value.Null, fmt.Errorf("geo: ST_WITHIN_DISTANCE(lat1, lon1, lat2, lon2, km)")
		}
		p := Point{a[0].AsFloat(), a[1].AsFloat()}
		q := Point{a[2].AsFloat(), a[3].AsFloat()}
		return value.Bool(p.WithinDistance(q, a[4].AsFloat())), nil
	})
	eng.Reg.RegisterScalar("ST_CONTAINS", func(a []value.Value) (value.Value, error) {
		if len(a) != 3 {
			return value.Null, fmt.Errorf("geo: ST_CONTAINS(polygon, lat, lon)")
		}
		pg, err := ParsePolygon(a[0].AsString())
		if err != nil {
			return value.Null, err
		}
		return value.Bool(pg.Contains(Point{a[1].AsFloat(), a[2].AsFloat()})), nil
	})
	eng.Reg.RegisterScalar("ST_AREA_KM2", func(a []value.Value) (value.Value, error) {
		if len(a) != 1 {
			return value.Null, fmt.Errorf("geo: ST_AREA_KM2(polygon)")
		}
		pg, err := ParsePolygon(a[0].AsString())
		if err != nil {
			return value.Null, err
		}
		return value.Float(pg.AreaKm2()), nil
	})
	eng.Reg.RegisterTable("GEO_NEARBY", columnstore.Schema{
		{Name: "k", Kind: value.KindString},
		{Name: "dist_km", Kind: value.KindFloat},
	}, func(a []value.Value) ([]value.Row, error) {
		if len(a) != 4 {
			return nil, fmt.Errorf("geo: GEO_NEARBY(index, lat, lon, km)")
		}
		return g.Nearby(a[0].AsString(), Point{a[1].AsFloat(), a[2].AsFloat()}, a[3].AsFloat())
	})
	return g
}

// CreateIndex declares an R-tree over table(latCol, lonCol); keyCol keys
// the results. The tree rebuilds lazily when the table changes.
func (g *Indexes) CreateIndex(name, table, latCol, lonCol, keyCol string) error {
	entry, ok := g.eng.Cat.Table(table)
	if !ok {
		return fmt.Errorf("geo: unknown table %q", table)
	}
	for _, c := range []string{latCol, lonCol, keyCol} {
		if entry.Schema.ColIndex(c) < 0 {
			return fmt.Errorf("geo: column %q not in %s", c, table)
		}
	}
	g.mu.Lock()
	g.idxs[name] = &tableGeoIndex{table: table, latCol: latCol, lonCol: lonCol, keyCol: keyCol}
	g.mu.Unlock()
	return nil
}

// Nearby runs an indexed proximity query, returning (key, dist_km) rows
// nearest first.
func (g *Indexes) Nearby(name string, center Point, km float64) ([]value.Row, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	ix, ok := g.idxs[name]
	if !ok {
		return nil, fmt.Errorf("geo: no geo index %q", name)
	}
	if err := g.refresh(ix); err != nil {
		return nil, err
	}
	var out []value.Row
	for _, m := range ix.tree.WithinDistance(center, km) {
		out = append(out, value.Row{value.String(ix.keys[m.ID]), value.Float(m.DistKm)})
	}
	return out, nil
}

func (g *Indexes) refresh(ix *tableGeoIndex) error {
	ts := g.eng.Mgr.Now()
	if ix.tree != nil && ix.cachedTS == ts {
		return nil
	}
	res, err := g.eng.Query("SELECT " + ix.keyCol + ", " + ix.latCol + ", " + ix.lonCol + " FROM " + ix.table)
	if err != nil {
		return fmt.Errorf("geo: index over %s: %w", ix.table, err)
	}
	tree := NewRTree()
	keys := make([]string, len(res.Rows))
	for id, row := range res.Rows {
		keys[id] = row[0].AsString()
		tree.Insert(Point{row[1].AsFloat(), row[2].AsFloat()}, id)
	}
	ix.tree, ix.keys, ix.cachedTS = tree, keys, ts
	return nil
}
