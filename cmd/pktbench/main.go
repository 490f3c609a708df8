// Command pktbench reproduces the paper's evaluation: every table and
// figure, plus the projection and agenda experiments (see DESIGN.md's
// experiment index and EXPERIMENTS.md for recorded results).
//
// Usage:
//
//	pktbench -experiment table1|figure2|table2|ablation|figure3|recovery|metasize|scaling|torture|batch|heal|erase|readmix|surge|numa|all \
//	         [-profile paper|fast|off] [-requests N] [-duration D] [-conns 1,25,50,75,100] \
//	         [-shards 1,2,4,8] [-batches 1,4,16,64] [-seeds N] [-json FILE]
//
// The torture experiment sweeps the fault-injection harness (crash,
// corruption, shard-loss and network-fault modes) over -seeds seeds and
// writes BENCH_torture.json; any failing run names its seed and exits
// non-zero. The batch experiment sweeps the group-persist pipeline
// (MaxBatch x connections) and writes BENCH_batch.json. The heal
// experiment sweeps the self-healing torture mode (shard loss and
// latent bit flips under live traffic, supervised by the Healer) over
// -seeds seeds, measures non-victim throughput during continuous
// destroy-rebuild churn, and writes BENCH_heal.json. The erase
// experiment sweeps the cross-shard parity torture mode (whole data
// areas destroyed and healed by reconstruction) over -seeds seeds,
// measures the parity write overhead and warm/cold/reconstruct rebuild
// times, and writes BENCH_erase.json.
// The readmix experiment sweeps GET-heavy mixes (50/90/99% reads x
// connection counts) with the lock-free read fast path forced off and
// on, and writes BENCH_readmix.json. The numa experiment sweeps socket
// placements (flat, aligned, interleaved, anti-aligned) of PM
// partitions vs queues/loops on a modeled 2-socket machine and writes
// BENCH_numa.json. The surge experiment drives open-loop load at
// 0.5-3x calibrated capacity with overload control (the X-Budget-Us
// deadline rule) off and on, runs a client circuit-breaker containment
// episode against a MaxConns-capped server, and writes BENCH_surge.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"packetstore/internal/bench"
	"packetstore/internal/calib"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "table1|figure2|table2|ablation|figure3|recovery|metasize|scaling|torture|batch|heal|erase|readmix|surge|numa|all")
		seeds      = flag.Int("seeds", 256, "torture runs for the crash mode (other modes scale down)")
		profile    = flag.String("profile", "paper", "latency profile: paper|fast|off")
		requests   = flag.Int("requests", 4000, "requests per RTT measurement")
		duration   = flag.Duration("duration", time.Second, "measurement window per throughput point")
		connsFlag  = flag.String("conns", "1,25,50,75,100", "connection counts for figure sweeps")
		shardsFlag = flag.String("shards", "1,2,4,8", "shard counts for the scaling sweep")
		batchFlag  = flag.String("batches", "1,4,16,64", "MaxBatch values for the group-commit sweep")
		jsonPath   = flag.String("json", "", "also write the scaling result as JSON to FILE")
	)
	flag.Parse()

	prof, ok := calib.ByName(*profile)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown profile %q\n", *profile)
		os.Exit(2)
	}
	parseInts := func(flagName, s string) []int {
		var out []int
		for _, f := range strings.Split(s, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || n <= 0 {
				fmt.Fprintf(os.Stderr, "bad -%s entry %q\n", flagName, f)
				os.Exit(2)
			}
			out = append(out, n)
		}
		return out
	}
	conns := parseInts("conns", *connsFlag)
	shards := parseInts("shards", *shardsFlag)
	batches := parseInts("batches", *batchFlag)

	ran := false
	run := func(name string, fn func() error) {
		ran = true
		fmt.Printf("=== %s (profile %s) ===\n", name, prof.Name)
		start := time.Now()
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("--- %s done in %v ---\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	want := func(name string) bool { return *experiment == "all" || *experiment == name }

	if want("table1") {
		run("E1 table1", func() error {
			res, err := bench.RunTable1(prof, *requests)
			if err != nil {
				return err
			}
			res.Print(os.Stdout)
			return nil
		})
	}
	if want("figure2") {
		run("E2 figure2", func() error {
			res, err := bench.RunFigure2(prof, conns, *duration, false)
			if err != nil {
				return err
			}
			res.Print(os.Stdout)
			return nil
		})
	}
	if want("table2") {
		run("E3 table2", func() error {
			res, err := bench.RunTable2(prof, *requests)
			if err != nil {
				return err
			}
			res.Print(os.Stdout)
			return nil
		})
	}
	if want("ablation") {
		run("E4 ablation", func() error {
			res, err := bench.RunAblation(prof, *requests)
			if err != nil {
				return err
			}
			res.Print(os.Stdout)
			return nil
		})
	}
	if want("figure3") {
		run("E5 figure3", func() error {
			res, err := bench.RunFigure2(prof, conns, *duration, true)
			if err != nil {
				return err
			}
			res.Print(os.Stdout)
			return nil
		})
	}
	if want("recovery") {
		run("E6 recovery", func() error {
			res, err := bench.RunRecovery(prof, nil)
			if err != nil {
				return err
			}
			res.Print(os.Stdout)
			return nil
		})
	}
	if want("metasize") {
		run("E7 metasize", func() error {
			res, err := bench.RunMetaSize(prof, *requests, nil)
			if err != nil {
				return err
			}
			res.Print(os.Stdout)
			return nil
		})
	}
	if want("scaling") {
		run("E8 scaling", func() error {
			// The scaling sweep defaults to the issue's grid: shards
			// 1,2,4,8 x 25,100 connections.
			sc := conns
			if *connsFlag == "1,25,50,75,100" {
				sc = []int{25, 100}
			}
			res, err := bench.RunScaling(prof, shards, sc, *duration)
			if err != nil {
				return err
			}
			res.Print(os.Stdout)
			if *jsonPath != "" {
				blob, err := json.MarshalIndent(res, "", "  ")
				if err != nil {
					return err
				}
				if err := os.WriteFile(*jsonPath, append(blob, '\n'), 0o644); err != nil {
					return err
				}
				fmt.Printf("wrote %s\n", *jsonPath)
			}
			return nil
		})
	}
	if want("batch") {
		run("E10 batch", func() error {
			// The batch sweep defaults to the issue's grid: MaxBatch
			// 1,4,16,64 x 1,16,64,100 connections.
			bc := conns
			if *connsFlag == "1,25,50,75,100" {
				bc = []int{1, 16, 64, 100}
			}
			res, err := bench.RunBatch(prof, batches, bc, *duration)
			if err != nil {
				return err
			}
			res.Print(os.Stdout)
			out := *jsonPath
			if out == "" || *experiment == "all" {
				out = "BENCH_batch.json"
			}
			blob, err := json.MarshalIndent(res, "", "  ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", out)
			return nil
		})
	}
	if want("readmix") {
		run("E14 readmix", func() error {
			// The read-mix sweep defaults to the issue's grid: 50/90/99%
			// reads x 16,100 connections on the largest -shards entry.
			ns := shards[len(shards)-1]
			rc := []int{16, 100}
			if *connsFlag != "1,25,50,75,100" {
				rc = conns
			}
			res, err := bench.RunReadMix(prof, ns, rc, *duration)
			if err != nil {
				return err
			}
			res.Print(os.Stdout)
			out := *jsonPath
			if out == "" || *experiment == "all" {
				out = "BENCH_readmix.json"
			}
			blob, err := json.MarshalIndent(res, "", "  ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", out)
			return nil
		})
	}
	if want("numa") {
		run("E16 numa", func() error {
			// The locality sweep runs one fixed deployment shape on a
			// modeled 2-socket machine: the largest -shards entry, capped
			// at 4 — two shards per socket give the full locality
			// contrast, and more loops than cores just adds scheduler
			// noise that blurs the p50 comparison.
			ns := shards[len(shards)-1]
			if ns > 4 {
				ns = 4
			}
			res, err := bench.RunNUMA(prof, ns, 2, *duration, 0)
			if err != nil {
				return err
			}
			res.Print(os.Stdout)
			out := *jsonPath
			if out == "" || *experiment == "all" {
				out = "BENCH_numa.json"
			}
			blob, err := json.MarshalIndent(res, "", "  ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", out)
			return nil
		})
	}
	if want("surge") {
		run("E15 surge", func() error {
			// The surge sweep runs one fixed deployment shape (2 shards,
			// 96 connections) at offered loads of 0.5x-3x measured
			// capacity, overload control off and on, plus the breaker
			// containment episode. Conns/shards honor single-value
			// overrides.
			ns := 2
			if *shardsFlag != "1,2,4,8" && len(shards) == 1 {
				ns = shards[0]
			}
			nc := 96
			if *connsFlag != "1,25,50,75,100" && len(conns) == 1 {
				nc = conns[0]
			}
			res, err := bench.RunSurge(prof, ns, nc, *duration, nil)
			if err != nil {
				return err
			}
			res.Print(os.Stdout)
			out := *jsonPath
			if out == "" || *experiment == "all" {
				out = "BENCH_surge.json"
			}
			blob, err := json.MarshalIndent(struct {
				provenance
				bench.SurgeResult
			}{newProvenance(prof), res}, "", "  ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", out)
			return nil
		})
	}
	if want("torture") {
		run("E9 torture", func() error {
			res, err := bench.RunTorture(*seeds, 1000)
			if err != nil {
				return err
			}
			res.Print(os.Stdout)
			out := *jsonPath
			if out == "" || *experiment == "all" {
				out = "BENCH_torture.json"
			}
			blob, err := json.MarshalIndent(res, "", "  ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", out)
			if res.Failed() {
				return fmt.Errorf("torture sweep had failing runs (seeds above)")
			}
			return nil
		})
	}
	if want("heal") {
		run("E11 heal", func() error {
			res, err := bench.RunHeal(prof, *seeds, 2000, *duration)
			if err != nil {
				return err
			}
			res.Print(os.Stdout)
			out := *jsonPath
			if out == "" || *experiment == "all" {
				out = "BENCH_heal.json"
			}
			blob, err := json.MarshalIndent(res, "", "  ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", out)
			if res.Failed() {
				return fmt.Errorf("heal sweep had failing runs (seeds above)")
			}
			return nil
		})
	}
	if want("erase") {
		run("E13 erase", func() error {
			res, err := bench.RunErase(prof, *seeds, 3000, *duration)
			if err != nil {
				return err
			}
			res.Print(os.Stdout)
			out := *jsonPath
			if out == "" || *experiment == "all" {
				out = "BENCH_erase.json"
			}
			blob, err := json.MarshalIndent(res, "", "  ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", out)
			if res.Failed() {
				return fmt.Errorf("erase sweep had failing runs (seeds above)")
			}
			return nil
		})
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *experiment)
		os.Exit(2)
	}
}

// provenance names where a recorded result came from: the commit ("+dirty"
// when the tree has uncommitted changes, "unknown" outside a git
// checkout), the toolchain, the host's CPU count and the latency profile.
type provenance struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Profile    string `json:"profile"`
}

func newProvenance(prof calib.Profile) provenance {
	rev := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		rev = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(st) > 0 {
			rev += "+dirty"
		}
	}
	return provenance{
		Commit: rev, GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Profile: prof.Name,
	}
}
