package bench

import (
	"fmt"
	"io"
	"time"

	"packetstore/internal/calib"
	"packetstore/internal/core"
	"packetstore/internal/fault"
	"packetstore/internal/kvserver"
	"packetstore/internal/pmem"
	"packetstore/internal/wrkgen"
)

// EraseResult is experiment E13: the cross-shard parity sweep. Part one
// runs the erase torture mode over many seeds — whole data areas
// destroyed under traffic, healed by parity reconstruction (operator-
// reported or scrub-discovered), with two-member loss required to
// surface as typed ErrUnrecoverable. Part two prices the redundancy:
// write throughput with parity groups on vs off at the E10 group-commit
// sweet spot. Part three times a single-shard rebuild three ways — cold
// (full value rescan), warm (scrub stamps fresh, value sweep skipped:
// the scrub-aware hand-off), and after a data-area erase (every record
// re-materialised from parity).
type EraseResult struct {
	BaseSeed int64
	Runs     int
	Failures int
	// FailureNotes carries the first few failures verbatim — each names
	// the seed that reproduces it.
	FailureNotes []string `json:",omitempty"`

	// Sweep shape: even seeds lose one member (healable), odd seeds lose
	// two (must fail typed).
	SingleLossRuns int
	TwoLossRuns    int
	// Reconstructions totals records re-materialised from parity across
	// the sweep.
	Reconstructions uint64

	// Operator-path quarantine-to-readmission distribution (seed%4==0
	// runs).
	Rejoins     int
	RejoinP50us float64
	RejoinP95us float64
	RejoinMaxus float64

	// Parity write overhead: continual 128B PUTs, 16 pipelined
	// connections, group commit MaxBatch=16, four shards — without and
	// with a parity group spanning them. OverheadPct is the throughput
	// given up for the redundancy.
	BaselineThroughput float64
	ParityThroughput   float64
	OverheadPct        float64
	// ParityWritesPerOp / ParityLinesPerOp are the incremental parity
	// cost amortized over measured requests; the fence counts confirm
	// parity rides the existing group fence instead of adding its own.
	ParityWritesPerOp float64
	ParityLinesPerOp  float64
	BaseFencesPerOp   float64
	ParityFencesPerOp float64

	// Rebuild timing for one shard of RebuildRecords records.
	RebuildRecords       int
	ColdRebuildUs        float64
	WarmRebuildUs        float64
	ReconstructRebuildUs float64
}

// Failed reports whether the sweep found a correctness failure.
func (r EraseResult) Failed() bool {
	return r.Failures > 0
}

// RunErase executes experiment E13. seeds sizes the torture sweep
// (default 200); window is the throughput measurement duration per
// deployment (default 400ms).
func RunErase(profile calib.Profile, seeds int, baseSeed int64, window time.Duration) (EraseResult, error) {
	if seeds <= 0 {
		seeds = 200
	}
	if window <= 0 {
		window = 400 * time.Millisecond
	}
	out := EraseResult{BaseSeed: baseSeed, Runs: seeds}

	var rejoinNs []int64
	for i := 0; i < seeds; i++ {
		rs, err := fault.RunErase(baseSeed + int64(i))
		if rs.Seed%2 == 1 {
			out.TwoLossRuns++
		} else {
			out.SingleLossRuns++
		}
		out.Reconstructions += rs.Reconstructions
		if rs.RejoinNs > 0 {
			rejoinNs = append(rejoinNs, rs.RejoinNs)
		}
		if err != nil {
			out.Failures++
			if len(out.FailureNotes) < 8 {
				out.FailureNotes = append(out.FailureNotes, fmt.Sprintf("seed %d: %v", rs.Seed, err))
			}
		}
	}
	out.Rejoins = len(rejoinNs)
	out.RejoinP50us = pctUs(rejoinNs, 0.50)
	out.RejoinP95us = pctUs(rejoinNs, 0.95)
	out.RejoinMaxus = pctUs(rejoinNs, 1.00)

	base, err := parityThroughput(profile, 0, window)
	if err != nil {
		return out, err
	}
	par, err := parityThroughput(profile, 4, window)
	if err != nil {
		return out, err
	}
	out.BaselineThroughput = base.throughput
	out.ParityThroughput = par.throughput
	if base.throughput > 0 {
		out.OverheadPct = 1 - par.throughput/base.throughput
	}
	out.ParityWritesPerOp = par.parityWritesPerOp
	out.ParityLinesPerOp = par.parityLinesPerOp
	out.BaseFencesPerOp = base.fencesPerOp
	out.ParityFencesPerOp = par.fencesPerOp

	cold, n, err := rebuildTime(profile, rebuildCold)
	if err != nil {
		return out, err
	}
	warm, _, err := rebuildTime(profile, rebuildWarm)
	if err != nil {
		return out, err
	}
	recon, _, err := rebuildTime(profile, rebuildErase)
	if err != nil {
		return out, err
	}
	out.RebuildRecords = n
	out.ColdRebuildUs = us(cold)
	out.WarmRebuildUs = us(warm)
	out.ReconstructRebuildUs = us(recon)
	return out, nil
}

// parityPoint is one throughput deployment's measurement.
type parityPoint struct {
	throughput        float64
	parityWritesPerOp float64
	parityLinesPerOp  float64
	fencesPerOp       float64
}

// parityThroughput measures continual-PUT throughput on a four-shard
// zero-copy deployment, with parity groups of size pg (0 disables).
// Geometry and workload are otherwise identical, so the delta is the
// parity fold-and-flush cost on the commit path.
func parityThroughput(profile calib.Profile, pg int, window time.Duration) (parityPoint, error) {
	const shards = 4
	cfg := core.Config{
		MetaSlots: 1 << 14, SlotSize: 128,
		DataSlots: 1 << 14, DataBufSize: 2048,
		ChecksumReuse: true, ParityGroup: pg,
	}
	d, err := deploy(deployOptions{
		profile: profile, kind: kindPktStore, zeroCopy: true,
		shards: shards, storeCfg: cfg,
		srvCfg: kvserver.Config{MaxBatch: 16},
	})
	if err != nil {
		return parityPoint{}, err
	}
	defer d.close()
	wl := d.align(wrkgen.Config{
		Conns: 16, ValueSize: 128,
		KeySpace: 4096, KeyDist: wrkgen.DistUniform,
		PutPct: 100, Seed: 11, Pipeline: 4,
	})
	// Warmup pass: fault in buffers and fill the keyspace so the
	// measured window is steady-state overwrites.
	wl.Requests = 2000 * wl.Conns
	if _, err := wrkgen.Run(wl, d.dial); err != nil {
		return parityPoint{}, err
	}
	d.pm.ResetStats()
	st0 := d.srv.Stats()
	wl.Requests = 0
	wl.Duration = window
	wl.Seed = 12
	res, err := wrkgen.Run(wl, d.dial)
	if err != nil {
		return parityPoint{}, err
	}
	pm := d.pm.Stats()
	st := d.srv.Stats()
	// This is the one harness where zero-copy PUTs — NIC DMA into PM —
	// fold parity: with the server stopped, every stripe must hold.
	d.srv.Close()
	if err := d.ss.VerifyParity(); err != nil {
		return parityPoint{}, fmt.Errorf("bench: parity after %d zero-copy PUTs: %w", res.Requests, err)
	}
	p := parityPoint{throughput: res.Throughput()}
	if res.Requests > 0 {
		n := float64(res.Requests)
		p.parityWritesPerOp = float64(st.ParityWrites-st0.ParityWrites) / n
		p.parityLinesPerOp = float64(pm.ParityLines) / n
		p.fencesPerOp = float64(pm.Fences) / n
	}
	return p, nil
}

// rebuildMode selects what state a timed rebuild starts from.
type rebuildMode int

const (
	// rebuildCold quarantines a healthy shard directly: the rescan's
	// value sweep re-reads and re-checksums every record.
	rebuildCold rebuildMode = iota
	// rebuildWarm runs one full scrub pass first, so every record's
	// stamp is fresh and the value sweep is skipped — the scrub-aware
	// rebuild hand-off.
	rebuildWarm
	// rebuildErase destroys the shard's whole data area first: the
	// rescan must re-materialise every record from parity and resync
	// the group.
	rebuildErase
)

// rebuildTime builds a four-shard parity store, loads it, applies the
// mode's preparation to one shard, and times Quarantine→Rebuild→rejoin.
func rebuildTime(profile calib.Profile, mode rebuildMode) (time.Duration, int, error) {
	const shards = 4
	cfg := core.Config{
		MetaSlots: 4096, SlotSize: 128,
		DataSlots: 8192, DataBufSize: 512,
		ParityGroup: shards,
	}
	r := pmem.New(core.ShardedRegionSize(cfg, shards), profile)
	ss, err := core.OpenSharded(r, cfg, shards)
	if err != nil {
		return 0, 0, err
	}
	val := make([]byte, 1024)
	for i := 0; i < 3000; i++ {
		k := []byte(fmt.Sprintf("key%012d", i))
		if err := ss.Put(k, val); err != nil {
			return 0, 0, err
		}
	}
	const victim = 0
	st := ss.Shard(victim)
	records := st.Stats().Records
	switch mode {
	case rebuildWarm:
		cursor := 0
		for {
			res := st.ScrubSlots(cursor, 512)
			cursor = res.Next
			if cursor == 0 {
				break
			}
		}
	case rebuildErase:
		ss.EraseDataArea(victim)
	}
	ss.Quarantine(victim, fmt.Errorf("bench: timed rebuild"))
	t0 := time.Now()
	if err := ss.Rebuild(victim); err != nil {
		return 0, records, err
	}
	el := time.Since(t0)
	if got := ss.Shard(victim).Stats().Records; got != records {
		return el, records, fmt.Errorf("bench: rebuild kept %d/%d records", got, records)
	}
	if err := ss.VerifyParity(); err != nil {
		return el, records, fmt.Errorf("bench: post-rebuild parity: %w", err)
	}
	return el, records, nil
}

// Print renders the erase summary.
func (r EraseResult) Print(w io.Writer) {
	fprintf(w, "Erase (E13): cross-shard parity sweep, base seed %d\n", r.BaseSeed)
	fprintf(w, "  torture: %d runs (%d single-loss, %d two-loss), %d failures\n",
		r.Runs, r.SingleLossRuns, r.TwoLossRuns, r.Failures)
	for _, note := range r.FailureNotes {
		fprintf(w, "  FAIL %s\n", note)
	}
	fprintf(w, "  reconstructions: %d records re-materialised from parity\n", r.Reconstructions)
	fprintf(w, "  operator rejoin [us]: p50 %.1f  p95 %.1f  max %.1f  (%d rejoins)\n",
		r.RejoinP50us, r.RejoinP95us, r.RejoinMaxus, r.Rejoins)
	fprintf(w, "  write overhead (16 conns, batch 16): base %.0f req/s, parity %.0f req/s, overhead %.1f%%\n",
		r.BaselineThroughput, r.ParityThroughput, r.OverheadPct*100)
	fprintf(w, "    parity writes/op %.2f, parity lines/op %.2f, fences/op %.2f -> %.2f\n",
		r.ParityWritesPerOp, r.ParityLinesPerOp, r.BaseFencesPerOp, r.ParityFencesPerOp)
	fprintf(w, "  one-shard rebuild (%d records): cold %.0f us, warm/scrubbed %.0f us, erase+reconstruct %.0f us\n",
		r.RebuildRecords, r.ColdRebuildUs, r.WarmRebuildUs, r.ReconstructRebuildUs)
}
