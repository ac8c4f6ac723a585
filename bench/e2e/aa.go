package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// runChild runs one workload in a process of its own — the registries,
// the heap and the CPU clock are process-wide — and reads its report.
func runChild(cfg config) (*report, error) {
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	cmd := exec.Command(os.Args[0], "-json", "-workload", cfg.workload, "-seed", fmt.Sprint(cfg.seed),
		"-seconds", fmt.Sprint(cfg.seconds), "-scale", fmt.Sprint(cfg.scale), "-trace", trace, "-out", cfg.out)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	// A child that found wrong answers exits 1 after printing its report;
	// only a child that printed nothing has failed to run.
	var exit *exec.ExitError
	if err != nil && !(errors.As(err, &exit) && len(out) > 0) {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	// The child prints the report object, then the driver's result line.
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var rep report
		if json.Unmarshal(sc.Bytes(), &rep) == nil && rep.Workload == cfg.workload {
			return &rep, nil
		}
	}
	return nil, fmt.Errorf("%s: no report in child output", cfg.workload)
}

// benchmarkFile is the part of BENCHMARK.json the A/A check needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (its default, exclusive method), so
// the spread printed here is the spread the benchmark driver computes.
// It needs at least two values.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// runAA runs pairs of runs of this one build, alternating which side goes
// first, pair i of both sides on seed i, and compares the two sides the
// way two commits would be compared. It fails when any pair of medians
// differs by more than the metric's bound, or when either side's
// interquartile range, as a share of its median, exceeds it.
func runAA(cfg config, pairs int) error {
	if pairs < 2 {
		return fmt.Errorf("-aa %d: quartiles need at least two runs a side", pairs)
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("the A/A check reads the bounds from BENCHMARK.json in the working directory: %w", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	names := workloadNames
	if cfg.workload != "" {
		names = []string{cfg.workload}
	}
	fmt.Printf("A/A check: %d pairs per workload, each run sized for %g s, nproc %d, GOMAXPROCS %d, %s\n\n",
		pairs, cfg.seconds, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	bad := 0
	for _, name := range names {
		sides := [2]map[string][]float64{{}, {}}
		for i := 0; i < pairs; i++ {
			for k := 0; k < 2; k++ {
				side := (i + k) % 2
				c := cfg
				c.workload, c.seed, c.trace = name, cfg.seed+int64(i), false
				rep, err := runChild(c)
				if err != nil {
					return err
				}
				if rep.Failed > 0 {
					return fmt.Errorf("%s seed %d: %d of %d statements failed", name, c.seed, rep.Failed, rep.Attempted)
				}
				for _, m := range rep.Metrics {
					sides[side][m.Name] = append(sides[side][m.Name], m.Value)
				}
			}
		}
		fmt.Printf("### %s\n\n", name)
		fmt.Println("| metric | median A | median B | B vs A | IQR A | IQR B | bound | verdict |")
		fmt.Println("|---|---|---|---|---|---|---|---|")
		for _, m := range bf.EndToEnd {
			qa, qb := quartiles(sides[0][m.Name]), quartiles(sides[1][m.Name])
			worse := (qb[1] - qa[1]) / qa[1]
			if m.Better == "higher" {
				worse = -worse
			}
			iqrA, iqrB := (qa[2]-qa[0])/qa[1], (qb[2]-qb[0])/qb[1]
			var why []string
			// Either side could have been called A, so a gap counts in
			// both directions.
			if worse > m.Bound || -worse > m.Bound {
				why = append(why, "medians differ")
			}
			if iqrA > m.Bound || iqrB > m.Bound {
				why = append(why, "spread")
			}
			verdict := "ok"
			if len(why) > 0 {
				verdict = "FAIL: " + strings.Join(why, ", ")
				bad++
			}
			fmt.Printf("| %s | %.6g | %.6g | %+.2f%% | %.2f%% | %.2f%% | %.2f%% | %s |\n",
				m.Name, qa[1], qb[1], 100*(qb[1]-qa[1])/qa[1], 100*iqrA, 100*iqrB, 100*m.Bound, verdict)
		}
		fmt.Println()
	}
	if bad > 0 {
		return fmt.Errorf("A/A check failed on %d workload × metric pairs", bad)
	}
	fmt.Println("A/A check passed: every pair of medians and every interquartile range is within its bound.")
	return nil
}
