package timeseries

import (
	"fmt"
	"sync"

	"repro/internal/columnstore"
	"repro/internal/sqlexec"
	"repro/internal/value"
)

// Views maps relational (key, timestamp, value) tables to named series and
// registers the SQL surface of the time series engine:
//
//	TABLE(TS_RESAMPLE('view', 'key', step_us, 'avg'))  → (ts, val)
//	TABLE(TS_FORECAST('view', 'key', h))               → (step, val)
//	TS_CORRELATION('view', 'key1', 'key2')             → scalar
//	TS_COMPRESSED_BYTES('view', 'key')                 → scalar (codec size)
type Views struct {
	mu   sync.Mutex
	eng  *sqlexec.Engine
	defs map[string]*seriesView
}

type seriesView struct {
	table  string
	keyCol string
	tsCol  string
	valCol string
}

// Attach installs the time series engine into a relational engine.
func Attach(eng *sqlexec.Engine) *Views {
	v := &Views{eng: eng, defs: map[string]*seriesView{}}

	eng.Reg.RegisterScalar("TS_CORRELATION", func(a []value.Value) (value.Value, error) {
		if len(a) != 3 {
			return value.Null, fmt.Errorf("timeseries: TS_CORRELATION(view, key1, key2)")
		}
		s1, err := v.Series(a[0].AsString(), a[1].AsString())
		if err != nil {
			return value.Null, err
		}
		s2, err := v.Series(a[0].AsString(), a[2].AsString())
		if err != nil {
			return value.Null, err
		}
		return value.Float(Correlation(s1, s2)), nil
	})
	eng.Reg.RegisterScalar("TS_COMPRESSED_BYTES", func(a []value.Value) (value.Value, error) {
		if len(a) != 2 {
			return value.Null, fmt.Errorf("timeseries: TS_COMPRESSED_BYTES(view, key)")
		}
		s, err := v.Series(a[0].AsString(), a[1].AsString())
		if err != nil {
			return value.Null, err
		}
		return value.Int(int64(len(Encode(s)))), nil
	})
	eng.Reg.RegisterTable("TS_RESAMPLE", columnstore.Schema{
		{Name: "ts", Kind: value.KindInt},
		{Name: "val", Kind: value.KindFloat},
	}, func(a []value.Value) ([]value.Row, error) {
		if len(a) != 4 {
			return nil, fmt.Errorf("timeseries: TS_RESAMPLE(view, key, step, agg)")
		}
		s, err := v.Series(a[0].AsString(), a[1].AsString())
		if err != nil {
			return nil, err
		}
		rs, err := s.Resample(a[2].AsInt(), AggKind(a[3].AsString()))
		if err != nil {
			return nil, err
		}
		var out []value.Row
		for _, x := range rs.Samples() {
			out = append(out, value.Row{value.Int(x.TS), value.Float(x.Val)})
		}
		return out, nil
	})
	eng.Reg.RegisterTable("TS_FORECAST", columnstore.Schema{
		{Name: "step", Kind: value.KindInt},
		{Name: "val", Kind: value.KindFloat},
	}, func(a []value.Value) ([]value.Row, error) {
		if len(a) != 3 {
			return nil, fmt.Errorf("timeseries: TS_FORECAST(view, key, h)")
		}
		s, err := v.Series(a[0].AsString(), a[1].AsString())
		if err != nil {
			return nil, err
		}
		fc, err := Holt(s, 0.5, 0.3, int(a[2].AsInt()))
		if err != nil {
			return nil, err
		}
		var out []value.Row
		for i, x := range fc {
			out = append(out, value.Row{value.Int(int64(i + 1)), value.Float(x)})
		}
		return out, nil
	})
	return v
}

// CreateSeriesView declares that table(keyCol, tsCol, valCol) holds one
// series per key value.
func (v *Views) CreateSeriesView(name, table, keyCol, tsCol, valCol string) error {
	entry, ok := v.eng.Cat.Table(table)
	if !ok {
		return fmt.Errorf("timeseries: unknown table %q", table)
	}
	for _, c := range []string{keyCol, tsCol, valCol} {
		if entry.Schema.ColIndex(c) < 0 {
			return fmt.Errorf("timeseries: column %q not in %s", c, table)
		}
	}
	v.mu.Lock()
	v.defs[name] = &seriesView{table: table, keyCol: keyCol, tsCol: tsCol, valCol: valCol}
	v.mu.Unlock()
	return nil
}

// Series materializes the series of one key at the current snapshot.
func (v *Views) Series(view, key string) (*Series, error) {
	v.mu.Lock()
	d, ok := v.defs[view]
	v.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("timeseries: no series view %q", view)
	}
	res, err := v.eng.Query("SELECT "+d.tsCol+", "+d.valCol+" FROM "+d.table+" WHERE "+d.keyCol+" = $1", value.String(key))
	if err != nil {
		return nil, fmt.Errorf("timeseries: view %q: %w", view, err)
	}
	out := New()
	for _, row := range res.Rows {
		out.Append(row[0].AsInt(), row[1].AsFloat())
	}
	return out, nil
}
