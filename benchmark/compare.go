package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
)

// benchSpec is the part of BENCHMARK.json that -compare needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// spread estimates how far a metric's value could move on a rerun, as a
// share of it: the distance between the quartiles of its n windows,
// shrunk by sqrt(n) as the uncertainty of any summary of n windows is.
func spread(m metric) float64 {
	lo, hi := quartiles(m.Windows)
	return ratio(hi-lo, math.Abs(m.Value)*math.Sqrt(float64(len(m.Windows))))
}

// verdict classes one end-to-end metric of one workload. worse and
// better mean the values differ by more than the bound; a spread wider
// than the bound on either side makes the pair unresolved, never "same".
func verdict(base, cur metric, better string, bound float64) (string, float64) {
	r := ratio(cur.Value, base.Value)
	worse := r - 1
	if better == "higher" {
		worse = 1 - r
	}
	switch {
	case math.Max(spread(base), spread(cur)) > bound:
		return "unresolved", r
	case worse > bound:
		return "worse", r
	case worse < -bound:
		return "better", r
	}
	return "same", r
}

var errRegression = errors.New("regression: a metric is worse than its bound allows, or more operations failed")

// compareFiles prints one row per (end-to-end metric, workload) with
// base, new, ratio and verdict, then the deterministic counts, which
// must be equal to the last digit. It returns errRegression on a
// "worse" row or a higher error ratio.
func compareFiles(w io.Writer, specPath, basePath, curPath string) error {
	b, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	base, err := readEnvelope(basePath)
	if err != nil {
		return err
	}
	cur, err := readEnvelope(curPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "base %s (commit %s, seed %d)\nnew  %s (commit %s, seed %d)\n\n",
		basePath, base.Commit, base.Seed, curPath, cur.Commit, cur.Seed)
	fmt.Fprintf(w, "%-18s %-16s %14s %14s %8s %7s  %s\n", "workload", "metric", "base", "new", "ratio", "bound", "verdict")
	regressed := false
	for _, wl := range workloads {
		bp, cp := base.pass(wl.name, false), cur.pass(wl.name, false)
		if bp == nil || cp == nil {
			continue
		}
		for _, def := range spec.EndToEnd {
			v, r := verdict(bp.Metrics[def.Name], cp.Metrics[def.Name], def.Better, def.Bound)
			regressed = regressed || v == "worse"
			fmt.Fprintf(w, "%-18s %-16s %14.4f %14.4f %8.4f %6.1f%%  %s\n", wl.name, def.Name,
				bp.Metrics[def.Name].Value, cp.Metrics[def.Name].Value, r, 100*def.Bound, v)
		}
		v := "same"
		if cp.ErrorRatio > bp.ErrorRatio {
			v, regressed = "worse", true
		}
		fmt.Fprintf(w, "%-18s %-16s %14g %14g %8s %6.1f%%  %s\n", wl.name, "error_ratio", bp.ErrorRatio, cp.ErrorRatio, "", 0.0, v)
	}
	fmt.Fprintf(w, "\ndeterministic counts (count-bounded probes; a difference is a real change, never noise)\n")
	equal := 0
	for _, wl := range workloads {
		bp, cp := base.pass(wl.name, true), cur.pass(wl.name, true)
		if bp == nil || cp == nil {
			continue
		}
		for _, def := range perLayer {
			if !deterministic(def.name) {
				continue
			}
			bv, cv := bp.Metrics[def.name].Value, cp.Metrics[def.name].Value
			if bv == cv {
				equal++
				continue
			}
			fmt.Fprintf(w, "%-18s %-38s %14.6f %14.6f  CHANGED\n", wl.name, def.name, bv, cv)
		}
	}
	fmt.Fprintf(w, "%d equal to the last digit\n", equal)
	if regressed {
		return errRegression
	}
	return nil
}
