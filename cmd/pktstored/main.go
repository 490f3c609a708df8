// Command pktstored serves a packetstore over real TCP sockets, backed
// by a file-backed persistent-memory image. It runs the same request
// engine as the simulated deployment's event loops; a socket delivers
// bytes in DRAM, so requests take that engine's copy path (the
// simulated-NIC zero-copy mechanisms need a PM receive pool). The
// on-media format, crash consistency and recovery are identical, so
// images are interchangeable with pmkv and the examples.
//
// Usage:
//
//	pktstored -listen :8080 -pm store.img
//
// By default a self-healing supervisor runs alongside the server: a
// background scrubber re-validates record CRCs on a budget, quarantined
// shards are rebuilt online while the rest keep serving. Disable with
// -heal=false. Either way GET /healthz reports per-shard state (200
// all-serving, 503 degraded) and the server's own counters.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"packetstore/internal/calib"
	"packetstore/internal/core"
	"packetstore/internal/kvserver"
	"packetstore/internal/pmem"
)

func main() {
	var (
		listen    = flag.String("listen", ":8080", "TCP listen address")
		pmPath    = flag.String("pm", "pktstored.img", "persistent-memory image file")
		metaSlots = flag.Int("meta-slots", 65536, "metadata slots (fixed at image creation)")
		dataSlots = flag.Int("data-slots", 65536, "data slots (fixed at image creation)")
		shards    = flag.Int("shards", 1, "store partitions (fixed at image creation; slots are per shard)")
		maxConns  = flag.Int("max-conns", 0, "connection cap; beyond it new connections are shed with 503 (0 = unlimited)")
		idle      = flag.Duration("idle-timeout", 0, "close connections idle this long (0 = never)")
		heal      = flag.Bool("heal", true, "run the self-healing supervisor (background scrub + online shard rebuild)")
		scrubIval = flag.Duration("scrub-interval", 5*time.Millisecond, "pause between scrub budget slices")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof (plus a /healthz JSON mirror) on this address, e.g. localhost:6060 (empty = off)")
		numaNodes = flag.Int("numa-nodes", 1, "model this many NUMA sockets: shard i's PM partition lands on node i mod N and /healthz reports local vs remote line traffic (1 = flat)")

		overload   = flag.Bool("overload", false, "enable overload control: requests whose X-Budget-Us lapsed are answered 503 unexecuted")
		retryAfter = flag.Duration("overload-retry-after", 0, "Retry-After-Ms hint on overload 503s (0 = 25ms default)")
	)
	flag.Parse()
	if *shards < 1 {
		fatal(fmt.Errorf("-shards must be >= 1, got %d", *shards))
	}

	cfg := core.Config{MetaSlots: *metaSlots, DataSlots: *dataSlots, VerifyOnGet: true}
	// Single-shard images keep the exact pre-sharding size, so existing
	// image files stay openable.
	size := cfg.RegionSize()
	if *shards > 1 {
		size = core.ShardedRegionSize(cfg, *shards)
	}
	r, err := pmem.OpenFile(*pmPath, size, calib.Off())
	if err != nil {
		fatal(err)
	}
	ss, err := core.OpenSharded(r, cfg, *shards)
	if err != nil {
		fatal(err)
	}
	if *numaNodes > 1 {
		// Real-socket mode runs without latency emulation, so the NUMA
		// model contributes accounting only: /healthz shows how many PM
		// lines each placement kept node-local. Shard i goes to node
		// i mod N, matching the simulated aligned deployment.
		shardNode := make([]int, *shards)
		for i := range shardNode {
			shardNode[i] = i % *numaNodes
		}
		if err := ss.SetNUMAPlacement(calib.Off().NUMA, *numaNodes, shardNode); err != nil {
			fatal(err)
		}
		fmt.Printf("pktstored: NUMA accounting on (%d nodes, shard i -> node i mod %d)\n",
			*numaNodes, *numaNodes)
	}
	fmt.Printf("pktstored: %d records recovered from %s (%d shards)\n",
		ss.Len(), *pmPath, ss.Shards())
	for i, h := range ss.Health() {
		if h != nil {
			fmt.Fprintf(os.Stderr, "pktstored: WARNING shard %d quarantined: %v (its keys answer 503)\n", i, h)
		}
	}

	lst, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal(err)
	}
	srv := kvserver.NewNetServerWithConfig(lst, kvserver.ShardedPktStore{S: ss},
		kvserver.Config{MaxConns: *maxConns, IdleTimeout: *idle,
			Overload: kvserver.OverloadConfig{Enabled: *overload, RetryAfter: *retryAfter}})
	if *overload {
		fmt.Println("pktstored: overload control on (expired X-Budget-Us requests answered 503 unexecuted)")
	}

	var healer *kvserver.Healer
	if *heal {
		healer = kvserver.NewHealer(ss, kvserver.HealConfig{ScrubInterval: *scrubIval})
		go healer.Run()
		healer.SetLoopSource(srv.LoopStats)
		srv.SetHealthSource(healer.Health)
		fmt.Printf("pktstored: healer running (scrub interval %v); GET /healthz reports shard state\n", *scrubIval)
	}

	if *pprofAddr != "" {
		// Contention profiles are off by default in the runtime; a server
		// asked to expose pprof wants them, and the sampling rates below
		// are cheap enough to leave on while serving.
		runtime.SetMutexProfileFraction(100)
		runtime.SetBlockProfileRate(int(time.Millisecond))
		// The main listener speaks the store's own wire protocol, so the
		// stdlib profiling handlers get their own HTTP listener. The
		// /healthz mirror serves the same report as the native endpoint,
		// letting one scrape target cover profiles and health.
		plst, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fatal(err)
		}
		http.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
			rep := srv.Health()
			w.Header().Set("Content-Type", "application/json")
			if !rep.Ready {
				w.WriteHeader(http.StatusServiceUnavailable)
			}
			_ = json.NewEncoder(w).Encode(rep)
		})
		go func() {
			if err := http.Serve(plst, nil); err != nil {
				fmt.Fprintln(os.Stderr, "pktstored: pprof listener:", err)
			}
		}()
		fmt.Printf("pktstored: pprof + /healthz mirror on http://%s/debug/pprof/\n", plst.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Println("pktstored: shutting down")
		if healer != nil {
			healer.Close()
		}
		srv.Close()
	}()

	fmt.Printf("pktstored: listening on %s\n", *listen)
	if err := srv.Serve(); err != nil {
		fatal(err)
	}
	if err := r.Close(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pktstored:", err)
	os.Exit(1)
}
