package main

import (
	"fmt"
	"math/rand"
	"strconv"
)

// Everything the program under test sees — seed rows, statement text and
// parameters — is made here from the run's seed and nothing else. The
// same generators also keep the running totals the answer checks compare
// against, so an oracle never reads the engine it is checking.

// Dimension values are listed in ORDER BY order so an oracle can emit
// groups by walking the arrays.
var (
	regionNames = [8]string{"africa", "asia", "europe", "latam", "mideast", "namerica", "nordics", "oceania"}
	statusNames = [4]string{"cancelled", "open", "paid", "shipped"}
	// dim maps four of the eight regions to two zones, so the join drops
	// half the fact rows and folds the rest into two groups.
	dimRegions = [4]int{1, 2, 5, 7} // asia, europe, namerica, oceania
	dimZones   = [4]string{"east", "west", "west", "east"}
	zoneNames  = [2]string{"east", "west"}
)

const maxQty = 20

// orderRow is one generated fact row, kept compact because the harness
// holds every seeded row for the whole run and its heap is inside
// live_heap_mb.
type orderRow struct {
	amount float64 // a multiple of 0.25, so float sums are exact in any order
	qty    int32   // 1..maxQty
	region uint8
	status uint8
}

func genOrder(rng *rand.Rand) orderRow {
	return orderRow{
		amount: float64(rng.Intn(400_000)) / 4,
		qty:    int32(1 + rng.Intn(maxQty)),
		region: uint8(rng.Intn(len(regionNames))),
		status: uint8(rng.Intn(len(statusNames))),
	}
}

func genOrders(rng *rand.Rand, n int) []orderRow {
	rows := make([]orderRow, n)
	for i := range rows {
		rows[i] = genOrder(rng)
	}
	return rows
}

// ordersAgg is the oracle's view of an orders table: counts and amounts
// per (region, status, qty) cell. Every aggregate statement of the
// benchmark is a fold over these cells, so an expected answer costs a few
// hundred additions whatever the table size.
type ordersAgg struct {
	cnt [len(regionNames)][len(statusNames)][maxQty + 1]int64
	amt [len(regionNames)][len(statusNames)][maxQty + 1]float64
}

func (a *ordersAgg) add(r orderRow) {
	a.cnt[r.region][r.status][r.qty]++
	a.amt[r.region][r.status][r.qty] += r.amount
}

func (a *ordersAgg) addAll(rows []orderRow) {
	for _, r := range rows {
		a.add(r)
	}
}

// totals returns COUNT(*) and SUM(qty) of the whole table.
func (a *ordersAgg) totals() (n, qty int64) {
	for r := range a.cnt {
		for s := range a.cnt[r] {
			for q, c := range a.cnt[r][s] {
				n += c
				qty += c * int64(q)
			}
		}
	}
	return n, qty
}

// byRegion answers SELECT region, COUNT(*), SUM(amount) ... GROUP BY
// region ORDER BY region.
func (a *ordersAgg) byRegion() [][]string {
	var out [][]string
	for r := range a.cnt {
		var n int64
		var sum float64
		for s := range a.cnt[r] {
			for q := range a.cnt[r][s] {
				n += a.cnt[r][s][q]
				sum += a.amt[r][s][q]
			}
		}
		if n > 0 {
			out = append(out, []string{regionNames[r], itoa(n), ftoa(sum)})
		}
	}
	return out
}

// qtyByStatus answers SELECT status, SUM(qty) ... WHERE qty > minQty
// GROUP BY status ORDER BY status.
func (a *ordersAgg) qtyByStatus(minQty int) [][]string {
	var out [][]string
	for s := range statusNames {
		var n, sum int64
		for r := range a.cnt {
			for q := minQty + 1; q <= maxQty; q++ {
				n += a.cnt[r][s][q]
				sum += a.cnt[r][s][q] * int64(q)
			}
		}
		if n > 0 {
			out = append(out, []string{statusNames[s], itoa(sum)})
		}
	}
	return out
}

// amountByStatus answers SELECT status, COUNT(*), SUM(amount) ... WHERE
// qty > minQty GROUP BY status ORDER BY status.
func (a *ordersAgg) amountByStatus(minQty int) [][]string {
	var out [][]string
	for s := range statusNames {
		var n int64
		var sum float64
		for r := range a.cnt {
			for q := minQty + 1; q <= maxQty; q++ {
				n += a.cnt[r][s][q]
				sum += a.amt[r][s][q]
			}
		}
		if n > 0 {
			out = append(out, []string{statusNames[s], itoa(n), ftoa(sum)})
		}
	}
	return out
}

// byZone answers the dictionary join: SELECT d.zone, COUNT(*), SUM(o.qty)
// FROM orders o JOIN dim d ON o.region = d.region GROUP BY d.zone ORDER
// BY d.zone.
func (a *ordersAgg) byZone() [][]string {
	var n, sum [len(zoneNames)]int64
	for i, r := range dimRegions {
		z := 0
		if dimZones[i] == zoneNames[1] {
			z = 1
		}
		for s := range a.cnt[r] {
			for q, c := range a.cnt[r][s] {
				n[z] += c
				sum[z] += c * int64(q)
			}
		}
	}
	var out [][]string
	for z, name := range zoneNames {
		if n[z] > 0 {
			out = append(out, []string{name, itoa(n[z]), itoa(sum[z])})
		}
	}
	return out
}

// itoa and ftoa render values the way the engine's canonical text form
// (value.Value.AsString) does, which is what travels in a DataRow.
func itoa(n int64) string   { return strconv.FormatInt(n, 10) }
func ftoa(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// insertSQL renders rows [lo, hi) of an orders table as one multi-row
// INSERT: the public bulk-write path set-up loads through.
func insertOrdersSQL(rows []orderRow, lo, hi int) string {
	b := make([]byte, 0, 64*(hi-lo))
	b = append(b, "INSERT INTO orders VALUES "...)
	for i := lo; i < hi; i++ {
		r := rows[i]
		if i > lo {
			b = append(b, ',')
		}
		b = fmt.Appendf(b, "(%d,'%s','%s',%s,%d)", i, regionNames[r.region], statusNames[r.status], ftoa(r.amount), r.qty)
	}
	return string(b)
}
