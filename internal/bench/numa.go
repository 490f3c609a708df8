package bench

import (
	"io"
	"sort"
	"time"

	"packetstore/internal/calib"
	"packetstore/internal/kvserver"
	"packetstore/internal/wrkgen"
)

// NUMAPoint is one measurement of the locality experiment: a fixed
// sharded deployment whose PM partitions, RSS queue interrupts and
// event loops are placed on sockets per Placement.
type NUMAPoint struct {
	// Placement names the shape under test:
	//
	//	flat        — no NUMA model (Nodes=1): the pre-change baseline the
	//	              aligned point must match, proving the model is a
	//	              no-op when off.
	//	aligned     — shard i's partition, queue and loop all on node
	//	              i mod Nodes: every PM line a loop touches is local.
	//	interleaved — partitions page-striped across nodes (the OS
	//	              first-touch-free default), loops on i mod Nodes.
	//	anti        — partitions on i mod Nodes but loops on
	//	              (i+1) mod Nodes: every line is a cross-socket miss.
	Placement string
	Conns     int
	// Throughput is measured req/s.
	Throughput float64
	MeanLatUs  float64
	P50LatUs   float64
	P99LatUs   float64
	// Requests completed during the measured window.
	Requests uint64
	// LocalLines/RemoteLines are the region's placement-accounting
	// deltas over the run: cache lines charged at the caller's own
	// node's rate vs at the cross-socket rate.
	LocalLines  uint64
	RemoteLines uint64
	// RemoteShare = RemoteLines / (LocalLines + RemoteLines).
	RemoteShare float64
	// RemoteExtraUs is the modeled cross-socket surcharge per completed
	// request, in microseconds — the latency the placement left on the
	// table relative to an all-local layout.
	RemoteExtraUs float64
}

// NUMAResult reproduces experiment E16: the same sharded deployment and
// hash-aligned 1KB PUT workload swept over socket placements, at a low
// and a high connection count. Aligned placement should recover at
// least the modeled remote penalty in p50 relative to anti-aligned,
// with a ~0% remote-line share against anti-aligned's majority share.
//
// Each placement runs Rounds times, interleaved round-robin with the
// others (deployment N+1's page faults and GC debt systematically tax
// whichever placement happens to run next on a 1-CPU host, so
// back-to-back repetition would bias by sweep position). The reported
// latencies are the median-p50 round; the line counters aggregate all
// rounds.
type NUMAResult struct {
	Duration time.Duration
	Shards   int
	Nodes    int
	Rounds   int
	Points   []NUMAPoint
}

func (r NUMAResult) point(placement string, conns int) *NUMAPoint {
	for i := range r.Points {
		if r.Points[i].Placement == placement && r.Points[i].Conns == conns {
			return &r.Points[i]
		}
	}
	return nil
}

// RecoveredP50Us is the headline number at a connection count: the p50
// latency aligned placement recovered relative to anti-aligned.
func (r NUMAResult) RecoveredP50Us(conns int) float64 {
	al, anti := r.point("aligned", conns), r.point("anti", conns)
	if al == nil || anti == nil {
		return 0
	}
	return anti.P50LatUs - al.P50LatUs
}

// RecoveredMeanUs is the mean-latency recovery at a connection count.
// On hosts whose histogram buckets near the operating point are wider
// than the modeled penalty, the mean resolves the contrast the
// quantized p50 cannot.
func (r NUMAResult) RecoveredMeanUs(conns int) float64 {
	al, anti := r.point("aligned", conns), r.point("anti", conns)
	if al == nil || anti == nil {
		return 0
	}
	return anti.MeanLatUs - al.MeanLatUs
}

// ModeledPenaltyUs is the per-op cross-socket surcharge the model
// charged the anti-aligned placement — the floor RecoveredP50Us should
// clear.
func (r NUMAResult) ModeledPenaltyUs(conns int) float64 {
	anti := r.point("anti", conns)
	if anti == nil {
		return 0
	}
	return anti.RemoteExtraUs
}

// RunNUMA sweeps socket placements over a 4-shard deployment on a
// modeled 2-socket machine, at 16 and 100 connections. rounds <= 0
// selects the default of 5 interleaved rounds per placement.
func RunNUMA(profile calib.Profile, shards, nodes int, duration time.Duration, rounds int) (NUMAResult, error) {
	if shards <= 1 {
		shards = 4
	}
	if nodes <= 1 {
		nodes = 2
	}
	if duration <= 0 {
		duration = time.Second
	}
	out := NUMAResult{Duration: duration, Shards: shards, Nodes: nodes}

	same := make([]int, shards)
	next := make([]int, shards)
	for i := range same {
		same[i] = i % nodes
		next[i] = (i + 1) % nodes
	}
	type shape struct {
		name       string
		numaNodes  int
		shardNode  []int
		loopNodes  []int
		queueNodes []int
	}
	shapes := []shape{
		{name: "flat"},
		{name: "aligned", numaNodes: nodes, shardNode: same, loopNodes: same, queueNodes: same},
		{name: "interleaved", numaNodes: nodes, shardNode: nil, loopNodes: same, queueNodes: same},
		{name: "anti", numaNodes: nodes, shardNode: same, loopNodes: next, queueNodes: next},
	}
	if rounds <= 0 {
		rounds = 5
	}
	out.Rounds = rounds
	type agg struct {
		reps     []NUMAPoint
		requests uint64
		local    uint64
		remote   uint64
		extra    time.Duration
	}
	for _, conns := range []int{16, 100} {
		aggs := make([]agg, len(shapes))
		for round := 0; round < rounds; round++ {
			for i, sh := range shapes {
				cfg := storeCfgLarge()
				cfg.MetaSlots /= shards
				cfg.DataSlots /= shards
				d, err := deploy(deployOptions{
					profile: profile, kind: kindPktStore, zeroCopy: true,
					shards: shards, storeCfg: cfg,
					srvCfg:    kvserver.Config{MaxBatch: 16},
					numaNodes: sh.numaNodes, numaShardNode: sh.shardNode,
					numaLoopNodes: sh.loopNodes, numaQueueNodes: sh.queueNodes,
				})
				if err != nil {
					return out, err
				}
				before := d.pm.Stats()
				res, err := wrkgen.Run(d.align(wrkgen.Config{
					Conns: conns, Duration: duration, Warmup: duration / 5,
					ValueSize: 1024, KeySpace: 1 << 14, PutPct: 100, Seed: 7,
					KeyDist: wrkgen.DistSeq,
				}), d.dial)
				after := d.pm.Stats()
				d.close()
				if err != nil {
					return out, err
				}
				a := &aggs[i]
				a.reps = append(a.reps, NUMAPoint{
					Placement: sh.name, Conns: conns,
					Throughput: res.Throughput(),
					MeanLatUs:  us(res.Hist.Mean()),
					P50LatUs:   us(res.Hist.Percentile(50)),
					P99LatUs:   us(res.Hist.Percentile(99)),
				})
				a.requests += res.Requests
				a.local += after.LocalLines - before.LocalLines
				a.remote += after.RemoteLines - before.RemoteLines
				a.extra += after.RemoteExtra - before.RemoteExtra
			}
		}
		for i := range aggs {
			a := &aggs[i]
			// Median round by p50: position-in-sweep effects (page-fault
			// and GC debt from the previous deployment) land on different
			// rounds for different placements; the median sheds them.
			sort.Slice(a.reps, func(x, y int) bool { return a.reps[x].P50LatUs < a.reps[y].P50LatUs })
			p := a.reps[len(a.reps)/2]
			p.Requests = a.requests
			p.LocalLines, p.RemoteLines = a.local, a.remote
			if total := a.local + a.remote; total > 0 {
				p.RemoteShare = float64(a.remote) / float64(total)
			}
			if a.requests > 0 {
				p.RemoteExtraUs = us(a.extra) / float64(a.requests)
			}
			out.Points = append(out.Points, p)
		}
	}
	return out, nil
}

// Print renders the locality experiment.
func (r NUMAResult) Print(w io.Writer) {
	fprintf(w, "NUMA placement: %d shards on %d modeled sockets, hash-aligned 1KB PUTs (%v per point, median of %d interleaved rounds)\n",
		r.Shards, r.Nodes, r.Duration, r.Rounds)
	fprintf(w, "\n%-18s %6s %12s %10s %10s %10s %8s %10s\n",
		"placement", "conns", "req/s", "mean us", "p50 us", "p99 us", "remote%", "extra us")
	for _, p := range r.Points {
		fprintf(w, "%-18s %6d %12.0f %10.1f %10.1f %10.1f %8.1f %10.3f\n",
			p.Placement, p.Conns, p.Throughput, p.MeanLatUs, p.P50LatUs, p.P99LatUs,
			p.RemoteShare*100, p.RemoteExtraUs)
	}
	for _, conns := range []int{16, 100} {
		if rec, mod := r.RecoveredP50Us(conns), r.ModeledPenaltyUs(conns); mod > 0 {
			fprintf(w, "\n%d conns: aligned recovered %.1f us of p50, %.1f us of mean vs anti-aligned (modeled remote penalty %.1f us/op).",
				conns, rec, r.RecoveredMeanUs(conns), mod)
		}
	}
	fprintf(w, "\n")
}
