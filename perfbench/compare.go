package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// runSet is the runs in one -o file: per workload, per end-to-end
// metric, the value each run reported.
type runSet map[string]map[string][]float64

func readRunSet(path string) (runSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := runSet{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Smoke {
			return nil, fmt.Errorf("%s:%d: a -smoke run is not a measurement", path, line)
		}
		if !r.Correct {
			return nil, fmt.Errorf("%s:%d: run of %s failed its correctness checks", path, line, r.Workload)
		}
		if set[r.Workload] == nil {
			set[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.EndToEnd {
			set[r.Workload][name] = append(set[r.Workload][name], v.Value)
		}
	}
	return set, sc.Err()
}

// verdict classifies b against a for one metric: unresolved when either
// side's run-to-run spread is wider than the bound (the comparison
// cannot tell a change from noise), regressed when b's median is worse
// than a's by more than the bound, ok otherwise.
func verdict(def metricDef, a, b []float64) (medA, spreadA, medB, spreadB float64, v string) {
	medA, spreadA = medianIQR(a)
	medB, spreadB = medianIQR(b)
	worse := (medB - medA) / medA
	if def.Better == "higher" {
		worse = -worse
	}
	switch {
	case spreadA > def.Bound || spreadB > def.Bound:
		v = "unresolved"
	case worse > def.Bound:
		v = "regressed"
	default:
		v = "ok"
	}
	return medA, spreadA, medB, spreadB, v
}

// compareFiles prints, per workload and end-to-end metric, both medians
// with their spreads, the ratio with its base, the bound, and the
// verdict. It fails when any pairing regressed.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readRunSet(pathA)
	if err != nil {
		return err
	}
	b, err := readRunSet(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "a = %s, b = %s; spread is IQR/median over a side's runs\n", pathA, pathB)
	fmt.Fprintf(w, "%-20s %-14s %14s %7s %3s %14s %7s %3s %18s %6s  %s\n",
		"workload", "metric", "a median", "spread", "n", "b median", "spread", "n", "b/a", "bound", "verdict")
	regressed := 0
	for _, wl := range workloads {
		for _, def := range endToEndDefs {
			va, vb := a[wl.name][def.Name], b[wl.name][def.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			medA, spA, medB, spB, v := verdict(def, va, vb)
			if v == "regressed" {
				regressed++
			}
			fmt.Fprintf(w, "%-20s %-14s %14.3f %7.4f %3d %14.3f %7.4f %3d %8.4f of %-7.4g %6.2f  %s\n",
				wl.name, def.Name, medA, spA, len(va), medB, spB, len(vb), medB/medA, medA, def.Bound, v)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d pairings regressed", regressed)
	}
	return nil
}
