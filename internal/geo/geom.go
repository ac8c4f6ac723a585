// Package geo implements the geospatial engine of §II-F: points and
// polygons as native data types, the WithinDistance / Contains / Area
// query operators the paper names, an R-tree index for proximity search,
// and SQL integration for geo-location analytics ("get all customers
// within a distance of 10 kilometers having payments due").
package geo

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Point is a WGS84 coordinate.
type Point struct {
	Lat, Lon float64
}

// earthRadiusKm is the mean Earth radius.
const earthRadiusKm = 6371.0088

// DistanceKm returns the great-circle (haversine) distance in kilometers.
func (p Point) DistanceKm(q Point) float64 {
	lat1, lon1 := p.Lat*math.Pi/180, p.Lon*math.Pi/180
	lat2, lon2 := q.Lat*math.Pi/180, q.Lon*math.Pi/180
	dLat, dLon := lat2-lat1, lon2-lon1
	a := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(lat1)*math.Cos(lat2)*math.Sin(dLon/2)*math.Sin(dLon/2)
	return 2 * earthRadiusKm * math.Asin(math.Min(1, math.Sqrt(a)))
}

// WithinDistance reports whether q lies within km kilometers of p — the
// WithinDistance operator of §II-F.
func (p Point) WithinDistance(q Point, km float64) bool {
	return p.DistanceKm(q) <= km
}

// String renders "lat lon".
func (p Point) String() string {
	return strconv.FormatFloat(p.Lat, 'g', -1, 64) + " " + strconv.FormatFloat(p.Lon, 'g', -1, 64)
}

// ParsePoint parses "POINT(lat lon)" or "lat lon".
func ParsePoint(s string) (Point, error) {
	s = strings.TrimSpace(s)
	if up := strings.ToUpper(s); strings.HasPrefix(up, "POINT(") && strings.HasSuffix(s, ")") {
		s = s[6 : len(s)-1]
	}
	fields := strings.FieldsFunc(s, func(r rune) bool { return r == ' ' || r == ',' })
	if len(fields) != 2 {
		return Point{}, fmt.Errorf("geo: bad point %q", s)
	}
	lat, err1 := strconv.ParseFloat(fields[0], 64)
	lon, err2 := strconv.ParseFloat(fields[1], 64)
	if err1 != nil || err2 != nil {
		return Point{}, fmt.Errorf("geo: bad point %q", s)
	}
	return Point{Lat: lat, Lon: lon}, nil
}

// Polygon is a simple (non-self-intersecting) polygon; the ring is
// implicitly closed.
type Polygon struct {
	Ring []Point
}

// ParsePolygon parses "POLYGON((lat lon, lat lon, ...))".
func ParsePolygon(s string) (Polygon, error) {
	s = strings.TrimSpace(s)
	up := strings.ToUpper(s)
	if strings.HasPrefix(up, "POLYGON((") && strings.HasSuffix(s, "))") {
		s = s[9 : len(s)-2]
	}
	var ring []Point
	for _, part := range strings.Split(s, ",") {
		p, err := ParsePoint(part)
		if err != nil {
			return Polygon{}, err
		}
		ring = append(ring, p)
	}
	if len(ring) < 3 {
		return Polygon{}, fmt.Errorf("geo: polygon needs at least 3 points")
	}
	return Polygon{Ring: ring}, nil
}

// String renders the polygon in the parseable form.
func (pg Polygon) String() string {
	parts := make([]string, len(pg.Ring))
	for i, p := range pg.Ring {
		parts[i] = p.String()
	}
	return "POLYGON((" + strings.Join(parts, ", ") + "))"
}

// Contains reports whether the point lies inside the polygon (ray
// casting over lat/lon treated as planar — fine for the city-scale areas
// of the paper's scenarios). Boundary points count as inside.
func (pg Polygon) Contains(p Point) bool {
	n := len(pg.Ring)
	if n < 3 {
		return false
	}
	inside := false
	for i, j := 0, n-1; i < n; j, i = i, i+1 {
		a, b := pg.Ring[i], pg.Ring[j]
		// On-edge check.
		if onSegment(a, b, p) {
			return true
		}
		if (a.Lon > p.Lon) != (b.Lon > p.Lon) {
			t := (p.Lon - a.Lon) / (b.Lon - a.Lon)
			xCross := a.Lat + t*(b.Lat-a.Lat)
			if p.Lat < xCross {
				inside = !inside
			}
		}
	}
	return inside
}

func onSegment(a, b, p Point) bool {
	cross := (b.Lat-a.Lat)*(p.Lon-a.Lon) - (b.Lon-a.Lon)*(p.Lat-a.Lat)
	if math.Abs(cross) > 1e-12 {
		return false
	}
	return math.Min(a.Lat, b.Lat)-1e-12 <= p.Lat && p.Lat <= math.Max(a.Lat, b.Lat)+1e-12 &&
		math.Min(a.Lon, b.Lon)-1e-12 <= p.Lon && p.Lon <= math.Max(a.Lon, b.Lon)+1e-12
}

// AreaKm2 returns the polygon area in square kilometers (planar shoelace
// scaled by the local metric — adequate for areas far smaller than a
// hemisphere).
func (pg Polygon) AreaKm2() float64 {
	n := len(pg.Ring)
	if n < 3 {
		return 0
	}
	// Local scale: one degree of latitude ≈ 111.195 km; longitude scales
	// by cos(mean latitude).
	meanLat := 0.0
	for _, p := range pg.Ring {
		meanLat += p.Lat
	}
	meanLat /= float64(n)
	kmPerDegLat := math.Pi * earthRadiusKm / 180
	kmPerDegLon := kmPerDegLat * math.Cos(meanLat*math.Pi/180)

	area := 0.0
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		xi, yi := pg.Ring[i].Lon*kmPerDegLon, pg.Ring[i].Lat*kmPerDegLat
		xj, yj := pg.Ring[j].Lon*kmPerDegLon, pg.Ring[j].Lat*kmPerDegLat
		area += xi*yj - xj*yi
	}
	return math.Abs(area) / 2
}
