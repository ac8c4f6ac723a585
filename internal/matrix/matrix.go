// Package matrix implements the scientific engine of §II-G: dense and CSR
// sparse linear algebra living inside the column store (SLACID [6]).
// Matrices persist as (i, j, v) triples in relational tables, are
// manipulated transactionally like any other data, and run eigenvalue
// computations in-engine — no export/import cycle to external files
// (experiment E14 measures exactly that difference).
package matrix

import (
	"fmt"
	"math"
	"sort"
)

// Dense is a row-major dense matrix.
type Dense struct {
	Rows, Cols int
	Data       []float64
}

// NewDense returns a zero matrix.
func NewDense(rows, cols int) *Dense {
	return &Dense{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set writes element (i, j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Mul returns m × other.
func (m *Dense) Mul(other *Dense) (*Dense, error) {
	if m.Cols != other.Rows {
		return nil, fmt.Errorf("matrix: shape mismatch %dx%d × %dx%d", m.Rows, m.Cols, other.Rows, other.Cols)
	}
	out := NewDense(m.Rows, other.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := 0; k < m.Cols; k++ {
			a := m.At(i, k)
			if a == 0 {
				continue
			}
			for j := 0; j < other.Cols; j++ {
				out.Data[i*out.Cols+j] += a * other.At(k, j)
			}
		}
	}
	return out, nil
}

// MulVec returns m × v.
func (m *Dense) MulVec(v []float64) ([]float64, error) {
	if m.Cols != len(v) {
		return nil, fmt.Errorf("matrix: vector length %d for %dx%d", len(v), m.Rows, m.Cols)
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		s := 0.0
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, a := range row {
			s += a * v[j]
		}
		out[i] = s
	}
	return out, nil
}

// Transpose returns mᵀ.
func (m *Dense) Transpose() *Dense {
	out := NewDense(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// ToCSR converts to sparse form.
func (m *Dense) ToCSR() *CSR {
	c := &CSR{Rows: m.Rows, Cols: m.Cols, RowPtr: make([]int, m.Rows+1)}
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if v := m.At(i, j); v != 0 {
				c.ColIdx = append(c.ColIdx, j)
				c.Vals = append(c.Vals, v)
			}
		}
		c.RowPtr[i+1] = len(c.Vals)
	}
	return c
}

// CSR is a compressed-sparse-row matrix — the natural fit for the column
// store's (i, j, v) triple representation.
type CSR struct {
	Rows, Cols int
	RowPtr     []int
	ColIdx     []int
	Vals       []float64
}

// Triple is one non-zero entry.
type Triple struct {
	I, J int
	V    float64
}

// FromTriples builds a CSR matrix from unordered (i, j, v) entries;
// duplicate coordinates sum.
func FromTriples(rows, cols int, ts []Triple) (*CSR, error) {
	for _, t := range ts {
		if t.I < 0 || t.I >= rows || t.J < 0 || t.J >= cols {
			return nil, fmt.Errorf("matrix: entry (%d,%d) outside %dx%d", t.I, t.J, rows, cols)
		}
	}
	sorted := append([]Triple(nil), ts...)
	sort.Slice(sorted, func(a, b int) bool {
		if sorted[a].I != sorted[b].I {
			return sorted[a].I < sorted[b].I
		}
		return sorted[a].J < sorted[b].J
	})
	// Merge duplicates (row-major sorted, so duplicates are adjacent).
	merged := sorted[:0]
	for _, t := range sorted {
		if n := len(merged); n > 0 && merged[n-1].I == t.I && merged[n-1].J == t.J {
			merged[n-1].V += t.V
			continue
		}
		merged = append(merged, t)
	}
	c := &CSR{Rows: rows, Cols: cols, RowPtr: make([]int, rows+1)}
	for _, t := range merged {
		c.RowPtr[t.I+1]++
	}
	for r := 0; r < rows; r++ {
		c.RowPtr[r+1] += c.RowPtr[r]
	}
	c.ColIdx = make([]int, len(merged))
	c.Vals = make([]float64, len(merged))
	for k, t := range merged {
		c.ColIdx[k] = t.J
		c.Vals[k] = t.V
	}
	return c, nil
}

// NNZ returns the number of stored non-zeros.
func (c *CSR) NNZ() int { return len(c.Vals) }

// At returns element (i, j) (O(log nnz-per-row)).
func (c *CSR) At(i, j int) float64 {
	lo, hi := c.RowPtr[i], c.RowPtr[i+1]
	idx := sort.SearchInts(c.ColIdx[lo:hi], j)
	if lo+idx < hi && c.ColIdx[lo+idx] == j {
		return c.Vals[lo+idx]
	}
	return 0
}

// MulVec returns c × v.
func (c *CSR) MulVec(v []float64) ([]float64, error) {
	if c.Cols != len(v) {
		return nil, fmt.Errorf("matrix: vector length %d for %dx%d", len(v), c.Rows, c.Cols)
	}
	out := make([]float64, c.Rows)
	for i := 0; i < c.Rows; i++ {
		s := 0.0
		for k := c.RowPtr[i]; k < c.RowPtr[i+1]; k++ {
			s += c.Vals[k] * v[c.ColIdx[k]]
		}
		out[i] = s
	}
	return out, nil
}

// Transpose returns cᵀ.
func (c *CSR) Transpose() *CSR {
	var ts []Triple
	for i := 0; i < c.Rows; i++ {
		for k := c.RowPtr[i]; k < c.RowPtr[i+1]; k++ {
			ts = append(ts, Triple{I: c.ColIdx[k], J: i, V: c.Vals[k]})
		}
	}
	out, _ := FromTriples(c.Cols, c.Rows, ts)
	return out
}

// Triples returns the non-zero entries in row-major order.
func (c *CSR) Triples() []Triple {
	var ts []Triple
	for i := 0; i < c.Rows; i++ {
		for k := c.RowPtr[i]; k < c.RowPtr[i+1]; k++ {
			ts = append(ts, Triple{I: i, J: c.ColIdx[k], V: c.Vals[k]})
		}
	}
	return ts
}

// vecMul abstracts the matrix-vector product both representations share.
type vecMul interface {
	MulVec(v []float64) ([]float64, error)
}

// PowerIteration computes the dominant eigenvalue and eigenvector of a
// square matrix via power iteration (the eigenvalue workload of §II-G).
// tol bounds the eigenvalue change between iterations.
func PowerIteration(m vecMul, n int, maxIter int, tol float64) (eigenvalue float64, eigenvector []float64, iters int, err error) {
	if n <= 0 {
		return 0, nil, 0, fmt.Errorf("matrix: empty matrix")
	}
	v := make([]float64, n)
	for i := range v {
		v[i] = 1 / math.Sqrt(float64(n))
	}
	var lambda, prev float64
	for iters = 1; iters <= maxIter; iters++ {
		w, e := m.MulVec(v)
		if e != nil {
			return 0, nil, iters, e
		}
		norm := 0.0
		for _, x := range w {
			norm += x * x
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			return 0, v, iters, nil // in the null space; eigenvalue 0
		}
		for i := range w {
			w[i] /= norm
		}
		// Rayleigh quotient.
		mv, e := m.MulVec(w)
		if e != nil {
			return 0, nil, iters, e
		}
		lambda = dot(w, mv)
		v = w
		if iters > 1 && math.Abs(lambda-prev) < tol {
			break
		}
		prev = lambda
	}
	return lambda, v, iters, nil
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Covariance returns the covariance matrix of columns of data (rows =
// observations) — the statistical core of the stock-analytics scenario
// (§V-1).
func Covariance(data *Dense) *Dense {
	n, k := data.Rows, data.Cols
	means := make([]float64, k)
	for j := 0; j < k; j++ {
		for i := 0; i < n; i++ {
			means[j] += data.At(i, j)
		}
		means[j] /= float64(n)
	}
	out := NewDense(k, k)
	for a := 0; a < k; a++ {
		for b := a; b < k; b++ {
			cov := 0.0
			for i := 0; i < n; i++ {
				cov += (data.At(i, a) - means[a]) * (data.At(i, b) - means[b])
			}
			cov /= float64(n - 1)
			out.Set(a, b, cov)
			out.Set(b, a, cov)
		}
	}
	return out
}
