// Command benchmark is the repository's one repeatable benchmark
// (ISSUE 13, "perflab"): six workloads, eight end-to-end metrics measured
// with tracing off, and a per-layer ledger taken from outside the
// program in a second, traced pass. README.md explains the workloads,
// the metrics and how they interact; BENCHMARK.json declares them.
//
//	go run ./benchmark -seed 1 -out result.json         # every workload, both passes
//	go run ./benchmark -workload put1k_c1 -trace 0      # one workload, one pass
//	go run ./benchmark -compare base.json new.json      # verdict per (metric, workload)
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
)

// setupRepeats is how many extra times a measured run sets its workload
// up, each in a fresh child process, so setup_s summarises five cold
// set-ups and not one sample.
const setupRepeats = 4

const detailPrefix = "#pass "

// options are the command's flags.
type options struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     int
	out       string
	traceOut  string
	compare   bool
	spec      string
	setupOnly bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run only this workload (default: all six, each in a child process)")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of every generated input; the only source of randomness")
	flag.Float64Var(&o.seconds, "seconds", 10, "measuring time of one pass over one workload")
	flag.IntVar(&o.trace, "trace", -1, "0: end-to-end metrics, tracing off; 1: per-layer metrics, traced pass; -1: both")
	flag.StringVar(&o.out, "out", "", "write the result envelope (provenance + every pass) to this file")
	flag.StringVar(&o.traceOut, "trace-out", "", "with -workload and -trace 1: write the recorded spans to this file")
	flag.BoolVar(&o.compare, "compare", false, "compare two result envelopes: -compare base.json new.json")
	flag.StringVar(&o.spec, "spec", "BENCHMARK.json", "with -compare: the file holding each metric's bound")
	flag.BoolVar(&o.setupOnly, "setup-only", false, "internal: set -workload up once, print the seconds it took, exit")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare wants two files, got %d", flag.NArg())
		}
		return compareFiles(os.Stdout, o.spec, flag.Arg(0), flag.Arg(1))
	}
	if o.seconds <= 0 || o.trace < -1 || o.trace > 1 {
		return fmt.Errorf("-seconds must be positive and -trace one of -1, 0, 1")
	}
	env := newEnvelope(o.seed, o.seconds)
	if o.workload == "" {
		for _, w := range workloads {
			for _, traced := range passes(o.trace) {
				p, err := runChild(w, o.seed, o.seconds, traced)
				if err != nil {
					return err
				}
				env.Passes = append(env.Passes, p)
			}
		}
		return finish(env, o.out, "")
	}
	w := workloadByName(o.workload)
	if w == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.setupOnly {
		d, _, took, err := setup(w, o.seed)
		if err != nil {
			return err
		}
		fmt.Println(took.Seconds())
		return d.stopNetwork()
	}
	var last string
	for _, traced := range passes(o.trace) {
		var setups []float64
		if !traced {
			for i := 0; i < setupRepeats; i++ {
				s, err := setupChild(w, o.seed)
				if err != nil {
					return err
				}
				setups = append(setups, s)
			}
		}
		p, spans, err := runPass(w, o.seconds, o.seed, traced)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		if !traced {
			p.set("setup_s", append(setups, p.Metrics["setup_s"].Value)...)
		}
		if traced && o.traceOut != "" {
			if err := writeSpans(o.traceOut, spans); err != nil {
				return err
			}
		}
		p.print(os.Stdout)
		env.Passes = append(env.Passes, p)
		last = p.summaryLine()
	}
	return finish(env, o.out, last)
}

func passes(trace int) []bool {
	switch trace {
	case 0:
		return []bool{false}
	case 1:
		return []bool{true}
	}
	return []bool{false, true}
}

// finish writes the envelope if asked to and ends standard output with
// the machine-readable lines: every pass in full, then (for a single
// workload) the one-object summary the benchmark contract asks for.
func finish(env *envelope, out, summary string) error {
	if out != "" {
		if err := env.write(out); err != nil {
			return err
		}
	}
	if summary == "" {
		return nil
	}
	for _, p := range env.Passes {
		b, err := json.Marshal(p)
		if err != nil {
			return err
		}
		fmt.Printf("%s%s\n", detailPrefix, b)
	}
	fmt.Println(summary)
	return nil
}

// self re-executes this program, so every workload gets a process of its
// own: set-up time and peak memory then belong to that workload alone.
func self(args ...string) (*exec.Cmd, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	return cmd, nil
}

func setupChild(w *workload, seed uint64) (float64, error) {
	cmd, err := self("-setup-only", "-workload", w.name, "-seed", fmt.Sprint(seed))
	if err != nil {
		return 0, err
	}
	b, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("set-up child: %w", err)
	}
	var s float64
	if _, err := fmt.Sscan(strings.TrimSpace(string(b)), &s); err != nil {
		return 0, fmt.Errorf("set-up child printed %q: %w", b, err)
	}
	return s, nil
}

// runChild runs one pass over one workload in a child process, echoes
// what it prints for people and returns the pass it reports.
func runChild(w *workload, seed uint64, seconds float64, traced bool) (*passResult, error) {
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd, err := self("-workload", w.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", trace)
	if err != nil {
		return nil, err
	}
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	var p *passResult
	sc := bufio.NewScanner(pipe)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, detailPrefix):
			p = new(passResult)
			if err := json.Unmarshal([]byte(line[len(detailPrefix):]), p); err != nil {
				p = nil
			}
		case !strings.HasPrefix(line, "{"):
			fmt.Println(line)
		}
	}
	io.Copy(io.Discard, pipe)
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("%s: child: %w", w.name, err)
	}
	if p == nil {
		return nil, fmt.Errorf("%s: child reported no pass", w.name)
	}
	return p, nil
}
