package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"

	"packetstore/internal/calib"
)

// metricDef declares one metric: BENCHMARK.json lists the same names,
// units and directions (benchmark_test.go holds the two together).
type metricDef struct {
	name, unit, better string
}

// defOf finds a metric's declaration; endToEndMetric tells the two lists
// apart.
func defOf(name string) (def metricDef, endToEndMetric bool) {
	for _, d := range endToEnd {
		if d.name == name {
			return d, true
		}
	}
	for _, d := range perLayer {
		if d.name == name {
			return d, false
		}
	}
	panic("benchmark: undeclared metric " + name)
}

// endToEnd are the metrics a user of the system sees, measured with
// tracing off. Every workload reports every one; README.md says where
// each comes from on workloads whose traffic lacks that operation.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"throughput_rps", "1/s", "higher"},
	{"put_p50_us", "us", "lower"},
	{"put_p99_us", "us", "lower"},
	{"get_p50_us", "us", "lower"},
	{"get_p99_us", "us", "lower"},
	{"recover_ms", "ms", "lower"},
}

// perLayer are the single-layer metrics of the traced pass (layer =
// package name). A metric reads 0 on a workload where its layer does no
// work or exports no counter. README.md has the table of which
// end-to-end metric each should move, on which workload.
var perLayer = []metricDef{
	{"pmem.lines_flushed_per_op", "count", "lower"},
	{"pmem.flushes_per_op", "count", "lower"},
	{"pmem.fences_per_op", "count", "lower"},
	{"pmem.bytes_written_per_op", "B", "lower"},
	{"pmem.lines_coalesced_per_op", "count", "higher"},
	{"pmem.wasted_flushes_per_op", "count", "lower"},
	{"pmem.read_lines_per_op", "count", "lower"},
	{"pmem.charged_ns_per_op", "ns", "lower"},
	{"pmem.persist1k_host_ns", "ns", "lower"},
	{"pmem.persist1k_host_ns_par2", "ns", "lower"},
	{"core.put_ns", "ns", "lower"},
	{"core.get_ns", "ns", "lower"},
	{"core.delete_ns", "ns", "lower"},
	{"core.staged8_commit_ns_per_put", "ns", "lower"},
	{"core.fast_get_ratio", "ratio", "higher"},
	{"core.fast_get_retries_per_get", "count", "lower"},
	{"core.fast_get_fallbacks_per_get", "count", "lower"},
	{"core.checksum_reused_ratio", "ratio", "higher"},
	{"core.group_size", "count", "higher"},
	{"core.recover_ns_per_record", "ns", "lower"},
	{"core.verify_ns_per_record", "ns", "lower"},
	{"core.pm_bytes_per_user_byte", "ratio", "lower"},
	{"kvserver.busy_ns_per_req", "ns", "lower"},
	{"kvserver.parse_ns_per_req", "ns", "lower"},
	{"kvserver.queue_delay_ns_per_req", "ns", "lower"},
	{"kvserver.utilisation", "ratio", "lower"},
	{"kvserver.burst_size", "count", "higher"},
	{"kvserver.zero_copy_put_ratio", "ratio", "higher"},
	{"kvserver.zero_copy_get_ratio", "ratio", "higher"},
	{"kvserver.derived_sum_ratio", "ratio", "higher"},
	{"kvserver.zero_copy_fallbacks_per_put", "count", "lower"},
	{"kvserver.errors_per_req", "count", "lower"},
	{"httpmsg.parse_put1k_ns", "ns", "lower"},
	{"checksum.inet_1k_ns", "ns", "lower"},
	{"checksum.crc32c_1k_ns", "ns", "lower"},
	{"nic.rx_packets_per_op", "count", "lower"},
	{"nic.tx_packets_per_op", "count", "lower"},
	{"nic.drops", "count", "lower"},
	{"nic.rx_csum_bad", "count", "lower"},
	{"net.discard_put_p50_us", "us", "lower"},
	{"net.discard_put_p50_us_off", "us", "lower"},
	{"net.rawpm_put_p50_us", "us", "lower"},
	{"net.pktstore_copy_put_p50_us", "us", "lower"},
	{"ladder.persist_us", "us", "lower"},
	{"ladder.datamgmt_us", "us", "lower"},
	{"ladder.zero_copy_gain_us", "us", "higher"},
	{"kvclient.send_ns_p50", "ns", "lower"},
	{"kvclient.recv_wait_ns_p50", "ns", "lower"},
	{"latency.spun_ns_per_op", "ns", "lower"},
	{"proc.allocs_per_op", "count", "lower"},
	{"proc.alloc_bytes_per_op", "B", "lower"},
	{"proc.gc_cycles", "count", "lower"},
	{"proc.cpu_us_per_op", "us", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
	{"probe.put_lines_flushed_per_op", "count", "lower"},
	{"probe.put_flushes_per_op", "count", "lower"},
	{"probe.put_fences_per_op", "count", "lower"},
	{"probe.put_bytes_written_per_op", "B", "lower"},
	{"probe.get_read_lines_per_op", "count", "lower"},
	{"probe.staged8_lines_flushed_per_put", "count", "lower"},
	{"probe.staged8_fences_per_put", "count", "lower"},
	{"sample_count", "count", "higher"},
}

// deterministic reports whether a per-layer metric is a count that must
// repeat exactly on one commit: the count-bounded direct-store probes
// (calib.Off(), one goroutine, fixed stream).
func deterministic(name string) bool { return strings.HasPrefix(name, "probe.") }

// metric is one reported value with the per-window values behind it,
// which are kept so the spread stays visible.
type metric struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Windows []float64 `json:"windows,omitempty"`
}

// passResult is one workload measured once, untraced (end-to-end
// metrics) or traced (per-layer metrics).
type passResult struct {
	Workload      string            `json:"workload"`
	Why           string            `json:"why"`
	Transport     string            `json:"transport"`
	Profile       calib.Profile     `json:"profile"`
	Traced        bool              `json:"traced"`
	Seed          uint64            `json:"seed"`
	Clients       int               `json:"clients"`
	Pipeline      int               `json:"pipeline"`
	WindowSeconds float64           `json:"window_seconds"`
	Windows       int               `json:"windows"`
	WarmupSeconds float64           `json:"warmup_seconds"`
	Start         time.Time         `json:"start"`
	Attempted     uint64            `json:"attempted"`
	Failed        uint64            `json:"failed"`
	ErrorRatio    float64           `json:"error_ratio"`
	SampleCount   uint64            `json:"sample_count"`
	Correct       bool              `json:"correct"`
	Problems      []string          `json:"problems,omitempty"`
	Metrics       map[string]metric `json:"metrics"`
}

// set reports a metric from its per-window values. A per-layer metric is
// their median. An end-to-end metric is their better quartile (the lower
// one where lower is better): on the shared 2-vCPU host this runs on,
// noise only ever slows a window, and over ten runs the better quartile
// repeated more closely than the median on every latency metric (README,
// "Spread").
func (r *passResult) set(name string, windows ...float64) {
	def, e2e := defOf(name)
	m := metric{Value: median(windows), Unit: def.unit, Windows: windows}
	if e2e {
		lo, hi := quartiles(windows)
		m.Value = lo
		if def.better == "higher" {
			m.Value = hi
		}
	}
	r.Metrics[name] = m
}

func (r *passResult) problem(format string, args ...any) {
	r.Correct = false
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// print lists every metric by name with its unit.
func (r *passResult) print(w io.Writer) {
	pass, defs := "end-to-end (tracing off)", endToEnd
	if r.Traced {
		pass, defs = "per-layer (traced pass)", perLayer
	}
	fmt.Fprintf(w, "== %s: %s, seed %d, %d x %.2fs windows, %d clients x pipeline %d, %s, profile %s\n",
		r.Workload, pass, r.Seed, r.Windows, r.WindowSeconds, r.Clients, r.Pipeline, r.Transport, r.Profile.Name)
	for _, d := range defs {
		m := r.Metrics[d.name]
		fmt.Fprintf(w, "%-38s %16.4f %-6s", d.name, m.Value, m.Unit)
		if n := len(m.Windows); n > 1 && n <= 10 {
			fmt.Fprintf(w, " windows %.4g", m.Windows)
		} else if n > 10 {
			fmt.Fprintf(w, " median of %d windows", n)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "attempted %d, failed %d (error_ratio %g), samples behind percentiles %d, correct %v\n",
		r.Attempted, r.Failed, r.ErrorRatio, r.SampleCount, r.Correct)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "PROBLEM: %s\n", p)
	}
}

// summaryLine is the one-object last line of standard output that the
// benchmark contract asks for.
func (r *passResult) summaryLine() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted uint64        `json:"attempted"`
		Failed    uint64        `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, make(map[string]mv)}
	for name, m := range r.Metrics {
		out.Metrics[name] = mv{m.Value, m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // only finite floats and strings are marshalled
	}
	return string(b)
}

// envelope is the one result schema: provenance plus every pass run.
type envelope struct {
	Schema     string        `json:"schema"`
	Commit     string        `json:"commit"`
	GoVersion  string        `json:"go_version"`
	NumCPU     int           `json:"nproc"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	Seed       uint64        `json:"seed"`
	Seconds    float64       `json:"seconds"`
	Start      time.Time     `json:"start"`
	Passes     []*passResult `json:"passes"`
}

func newEnvelope(seed uint64, seconds float64) *envelope {
	return &envelope{
		Schema: "packetstore-perflab/1", Commit: commit(), GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: seed, Seconds: seconds, Start: time.Now().UTC(),
	}
}

// commit names the source the numbers belong to; a checkout that is not
// a git repository (the benchmark driver's) reports "unknown".
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	rev := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(st) > 0 {
		rev += "+dirty"
	}
	return rev
}

func (e *envelope) write(path string) error {
	b, err := json.MarshalIndent(e, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readEnvelope(path string) (*envelope, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var e envelope
	if err := json.Unmarshal(b, &e); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &e, nil
}

func (e *envelope) pass(workload string, traced bool) *passResult {
	for _, p := range e.Passes {
		if p.Workload == workload && p.Traced == traced {
			return p
		}
	}
	return nil
}

// median of xs; 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles of xs: the smallest value with at least a quarter of xs at
// or below it, and the same from above.
func quartiles(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := (len(s)+3)/4 - 1
	return s[i], s[len(s)-1-i]
}

// percentile of raw samples, sorted in place: the smallest sample with
// at least p of the samples at or below it. Raw samples, not hdrhist:
// its ~3% buckets are coarser than the bounds.
func percentile(samples []uint32, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	i := int(p*float64(len(samples))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(samples) {
		i = len(samples) - 1
	}
	return float64(samples[i])
}
