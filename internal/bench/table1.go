package bench

import (
	"io"
	"time"

	"packetstore/internal/calib"
)

// Table1Result reproduces Table 1: the latency breakdown of a 1KB write
// RTT against the NoveLSM baseline.
//
// Methodology follows the paper: the networking row is the RTT against a
// discarding server; persistence is the RTT difference between the full
// configuration and one with the PM flush/fence latencies zeroed; the
// data-management rows come from direct instrumentation of the storage
// stack's phases (which the paper obtained by selectively disabling
// operations).
type Table1Result struct {
	Requests int

	NetworkingRTT time.Duration // discard server
	TotalRTT      time.Duration // full NoveLSM-sim
	NoPersistRTT  time.Duration // flushes free
	// LinesFlushed is the full-stack rung's PM write-back count: storage
	// work the discard rung (no region at all) cannot do, stated without
	// a clock.
	LinesFlushed uint64

	// Data-management breakdown (per request).
	RequestPrep time.Duration
	Checksum    time.Duration
	DataCopy    time.Duration
	AllocInsert time.Duration

	// Derived aggregates.
	DataMgmt    time.Duration // sum of the four rows above
	Persistence time.Duration // instrumented flush+fence time per put
	// PersistenceBySubtraction cross-checks Persistence with the paper's
	// methodology (full RTT minus flush-free RTT); it carries the full
	// run-to-run noise of two RTT measurements.
	PersistenceBySubtraction time.Duration
}

// RunTable1 executes experiment E1.
func RunTable1(profile calib.Profile, requests int) (Table1Result, error) {
	if requests <= 0 {
		requests = 2000
	}
	out := Table1Result{Requests: requests}

	// 1. Networking only.
	d, err := deploy(deployOptions{profile: profile, kind: kindDiscard})
	if err != nil {
		return out, err
	}
	out.NetworkingRTT, err = measureRTT(d, requests, 1024)
	d.close()
	if err != nil {
		return out, err
	}

	// 2. Full storage stack, with phase instrumentation.
	d, err = deploy(deployOptions{profile: profile, kind: kindNoveLSM})
	if err != nil {
		return out, err
	}
	d.db.ResetBreakdown()
	out.TotalRTT, err = measureRTT(d, requests, 1024)
	bd := d.db.Breakdown()
	out.LinesFlushed = d.pm.Stats().LinesFlushed
	d.close()
	if err != nil {
		return out, err
	}
	if bd.Ops > 0 {
		ops := time.Duration(bd.Ops)
		out.RequestPrep = bd.Prep / ops
		out.Checksum = bd.Checksum / ops
		out.DataCopy = bd.Insert.Copy / ops
		out.AllocInsert = (bd.Insert.Search + bd.Insert.Alloc + bd.Insert.Link) / ops
		out.Persistence = bd.Insert.Flush / ops
	}
	out.DataMgmt = out.RequestPrep + out.Checksum + out.DataCopy + out.AllocInsert

	// 3. Persistence disabled (flush/fence free).
	d, err = deploy(deployOptions{profile: profile, kind: kindNoveLSM, noPersist: true})
	if err != nil {
		return out, err
	}
	out.NoPersistRTT, err = measureRTT(d, requests, 1024)
	d.close()
	if err != nil {
		return out, err
	}
	if out.TotalRTT > out.NoPersistRTT {
		out.PersistenceBySubtraction = out.TotalRTT - out.NoPersistRTT
	}
	return out, nil
}

// Print renders the result in the paper's Table 1 format.
func (r Table1Result) Print(w io.Writer) {
	fprintf(w, "Table 1: latency breakdown of RTT for a 1KB write (%d requests)\n", r.Requests)
	fprintf(w, "%-12s %-38s %10s\n", "Overhead", "Operation", "Time [us]")
	fprintf(w, "%-12s %-38s %10.2f\n", "Networking", "TCP/IP & HTTP both hosts + fabric", us(r.NetworkingRTT))
	fprintf(w, "%-12s %-38s %10.2f\n", "Data mgmt.", "Request preparation", us(r.RequestPrep))
	fprintf(w, "%-12s %-38s %10.2f\n", "", "Checksum calculation", us(r.Checksum))
	fprintf(w, "%-12s %-38s %10.2f\n", "", "Data copy", us(r.DataCopy))
	fprintf(w, "%-12s %-38s %10.2f\n", "", "Buffer allocation and insertion", us(r.AllocInsert))
	fprintf(w, "%-12s %-38s %10.2f\n", "", "(sum)", us(r.DataMgmt))
	fprintf(w, "%-12s %-38s %10.2f\n", "Persistence", "Flush CPU caches to PM", us(r.Persistence))
	fprintf(w, "%-12s %-38s %10.2f\n", "Total", "(measured full-stack RTT)", us(r.TotalRTT))
	fprintf(w, "cross-check: persistence by RTT subtraction = %.2f us (noisier)\n", us(r.PersistenceBySubtraction))
}
