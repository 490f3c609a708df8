package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// declared is the part of BENCHMARK.json the program must agree with.
type declared struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
}

var nameOK = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func readDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDeclaredMetrics runs every workload through both passes at 200 ms
// windows and checks that each emits exactly the metrics BENCHMARK.json
// declares, with their units, and that no operation failed.
func TestDeclaredMetrics(t *testing.T) {
	d := readDeclared(t)
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(d.Workloads), len(workloads))
	}
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range d.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range d.PerLayer {
		want[true][m.Name] = m.Unit
	}
	env := newEnvelope(7, 0.6)
	var mu sync.Mutex
	// Two passes at a time: a pass is mostly one goroutine spinning out
	// modelled PM time or clearing a region, so the pair fills both cores.
	t.Run("passes", func(t *testing.T) {
		for i, w := range workloads {
			if d.Workloads[i].Name != w.name || d.Workloads[i].Why != w.why {
				t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, d.Workloads[i].Name, d.Workloads[i].Why, w.name, w.why)
			}
			for _, traced := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/traced=%v", w.name, traced), func(t *testing.T) {
					t.Parallel()
					p, _, err := runPass(w, 0.6, 7, traced)
					if err != nil {
						t.Fatal(err)
					}
					mu.Lock()
					env.Passes = append(env.Passes, p)
					mu.Unlock()
					checkPass(t, p, want[traced])
				})
			}
		}
	})

	// A result compared with itself is all "same" (or "unresolved" where
	// 200 ms windows are too short to resolve the bound) and no regression.
	path := filepath.Join(t.TempDir(), "result.json")
	if err := env.write(path); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := compareFiles(&out, "../BENCHMARK.json", path, path); err != nil {
		t.Errorf("comparing a result with itself: %v\n%s", err, out.String())
	}
	if s := out.String(); strings.Contains(s, "worse") || strings.Contains(s, "better") || strings.Contains(s, "CHANGED") {
		t.Errorf("comparing a result with itself found a difference:\n%s", s)
	}
}

// checkPass holds one pass to BENCHMARK.json's list of names and units.
func checkPass(t *testing.T, p *passResult, want map[string]string) {
	if !p.Correct || p.Failed != 0 || p.ErrorRatio != 0 || p.Attempted == 0 {
		t.Errorf("correct %v, failed %d of %d, problems %v", p.Correct, p.Failed, p.Attempted, p.Problems)
	}
	for name, m := range p.Metrics {
		unit, ok := want[name]
		switch {
		case !ok:
			t.Errorf("emits undeclared metric %q", name)
		case m.Unit == "" || m.Unit != unit:
			t.Errorf("%s: unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
		case !nameOK.MatchString(name):
			t.Errorf("metric name %q is outside [A-Za-z0-9_.-]", name)
		case !p.Traced && m.Value <= 0:
			t.Errorf("%s = %v: an end-to-end metric must never be 0", name, m.Value)
		}
	}
	for name := range want {
		if _, ok := p.Metrics[name]; !ok {
			t.Errorf("does not emit declared metric %q", name)
		}
	}
}

// TestProbeCountsRepeatExactly pins the property -compare relies on: the
// count-bounded direct-store probes (calib.Off(), one goroutine, fixed
// stream) produce the same per-op counts on every run.
func TestProbeCountsRepeatExactly(t *testing.T) {
	a, b := runProbes(2000), runProbes(2000)
	if a.err != nil || b.err != nil {
		t.Fatalf("probe errors: %v, %v", a.err, b.err)
	}
	n := 0
	for _, def := range perLayer {
		if !deterministic(def.name) {
			continue
		}
		n++
		if a.metrics[def.name] != b.metrics[def.name] || a.metrics[def.name] == 0 {
			t.Errorf("%s: %v then %v", def.name, a.metrics[def.name], b.metrics[def.name])
		}
	}
	if n == 0 {
		t.Fatal("no deterministic metric declared")
	}
}

// TestVerdict pins the comparison rule.
func TestVerdict(t *testing.T) {
	m := func(v float64, ws ...float64) metric { return metric{Value: v, Windows: ws} }
	for _, c := range []struct {
		base, cur metric
		better    string
		want      string
	}{
		{m(100, 99, 100, 101), m(103, 102, 103, 104), "lower", "same"},
		{m(100, 99, 100, 101), m(110, 109, 110, 111), "lower", "worse"},
		{m(100, 99, 100, 101), m(90, 89, 90, 91), "lower", "better"},
		{m(100, 99, 100, 101), m(90, 89, 90, 91), "higher", "worse"},
		{m(100, 80, 100, 120), m(101, 100, 101, 102), "lower", "unresolved"},
	} {
		if got, _ := verdict(c.base, c.cur, c.better, 0.05); got != c.want {
			t.Errorf("verdict(%v, %v, %s) = %s, want %s", c.base, c.cur, c.better, got, c.want)
		}
	}
}
