package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"packetstore/internal/calib"
	"packetstore/internal/kvclient"
	"packetstore/internal/kvproto"
	"packetstore/internal/pmem"
)

// runConfig shapes one pass over one workload.
type runConfig struct {
	seed    uint64
	traced  bool
	warmup  time.Duration
	window  time.Duration
	windows int
	// recoverReps is how many times the epilogue cuts the power and
	// reopens the store; each is one window of recover_ms.
	recoverReps int
	// The read-back GETs the first readBackKeys keys readBackRounds times
	// over the network; after recovery every key is read directly.
	readBackKeys, readBackRounds int
	// probeOps is the length of each count-bounded probe.
	probeOps int
	// minCrashReps is the least number of load/cut/recover repetitions
	// crash_recover makes, however short the run.
	minCrashReps int
	// ladder adds the Table-1-style rungs to a traced put1k_c1 pass.
	ladder     bool
	ladderRung time.Duration
}

// passConfig splits seconds of measuring into the pass's windows.
// Untraced: 1 s warm-up, then ten equal windows. Traced: forty short
// windows, a counter snapshot at every boundary; on put1k_c1 the forty
// share a third of the time and the four ladder rungs take a sixth each. Runs shorter
// than 3 s (the tests') keep the shape and cut the repetitions.
func passConfig(w *workload, seed uint64, seconds float64, traced bool) runConfig {
	total := time.Duration(seconds * float64(time.Second))
	cfg := runConfig{seed: seed, traced: traced, warmup: time.Second, windows: 10,
		recoverReps: 9, readBackKeys: keySpace, readBackRounds: 2, minCrashReps: 3, probeOps: 20000}
	if total < 3*time.Second {
		cfg.warmup, cfg.windows = total/6, 3
		cfg.recoverReps, cfg.readBackRounds, cfg.minCrashReps = 1, 1, 1
		cfg.readBackKeys, cfg.probeOps = keySpace/16, 2000
	}
	cfg.window = total / time.Duration(cfg.windows)
	if !traced {
		return cfg
	}
	cfg.windows, cfg.recoverReps, cfg.readBackRounds = 40, 1, 1
	cfg.window = total / 40
	if w.name == "put1k_c1" {
		cfg.ladder = true
		cfg.window, cfg.ladderRung = total/120, total/6
	}
	return cfg
}

// worker is one closed-loop client: it sends its next operation only
// after the previous one (or, pipelined, the one `pipeline` back) has
// been answered.
type worker struct {
	t    *traffic
	id   int
	pick *picker
	chk  *checker
	cl   *kvclient.Client // nil for embedded workloads
	val  []byte

	lat      [][opKinds][]uint32 // [window][kind] latencies of requests without spans, ns
	spanned  []uint32            // latencies of the requests that carried spans
	ops      uint64              // operations issued; in a traced pass the odd ones carry spans
	readback []uint32
	done     [opKinds]atomic.Uint64 // completed ops, read by the snapshotter
	log      spanLog
	err      error
}

// traffic is one workload's measured run.
type traffic struct {
	d     *deployment
	m     *model
	cfg   runConfig
	keys  [][]byte
	paths []string

	origin time.Time // warm-up starts
	start  time.Time // first window starts
	end    time.Time

	attempted atomic.Uint64
	failed    atomic.Uint64
	workers   []*worker
}

func newTraffic(d *deployment, m *model, cfg runConfig) (*traffic, error) {
	t := &traffic{d: d, m: m, cfg: cfg, keys: make([][]byte, keySpace), paths: make([]string, keySpace)}
	for id := range t.keys {
		t.keys[id] = keyOf(id)
		t.paths[id] = kvproto.KeyPath(t.keys[id])
	}
	for i := 0; i < d.w.workers; i++ {
		wk := &worker{t: t, id: i, pick: newPicker(d.w, cfg.seed, i), chk: newChecker(m),
			val: make([]byte, valueSize), lat: make([][opKinds][]uint32, cfg.windows)}
		wk.log.worker = uint64(i + 1)
		if d.w.kind != kindEmbedded {
			c, err := d.dial()
			if err != nil {
				t.closeClients()
				return nil, fmt.Errorf("dial: %w", err)
			}
			wk.cl = kvclient.New(c)
			// A lost reply must fail the run, not hang it.
			wk.cl.SetTimeout(10 * time.Second)
		}
		t.workers = append(t.workers, wk)
	}
	return t, nil
}

func (t *traffic) closeClients() {
	for _, wk := range t.workers {
		if wk.cl != nil {
			wk.cl.Close()
		}
	}
}

func (t *traffic) opCounts() (ops [opKinds]uint64) {
	for _, wk := range t.workers {
		for k := range ops {
			ops[k] += wk.done[k].Load()
		}
	}
	return
}

// traceNext reports whether the next operation carries spans: in a
// traced pass every second one does, so spanned and plain requests see
// the same host and their p50 ratio is what the spans cost.
func (wk *worker) traceNext() bool {
	wk.ops++
	return wk.t.cfg.traced && wk.ops%2 == 1
}

// record files one finished operation under the window its reply
// arrived in. Operations of the warm-up count as attempts (a failure
// there is still a failure) but leave no latency sample.
func (wk *worker) record(kind int, t0, t1 time.Time, ok, spanned bool) {
	wk.t.attempted.Add(1)
	if !ok {
		wk.t.failed.Add(1)
		return
	}
	wk.done[kind].Add(1)
	if t1.Before(wk.t.start) {
		return
	}
	lat := uint32(t1.Sub(t0))
	if i := int(t1.Sub(wk.t.start) / wk.t.cfg.window); i >= len(wk.lat) {
		return
	} else if spanned {
		wk.spanned = append(wk.spanned, lat)
	} else {
		wk.lat[i][kind] = append(wk.lat[i][kind], lat)
	}
}

// inflight is one pipelined request awaiting its reply.
type inflight struct {
	kind, id int
	version  uint64 // PUT: the version sent; GET: the acknowledged floor when sent
	t0, sent time.Time
	traced   bool
}

// runNet drives one connection until the run ends.
func (wk *worker) runNet() error {
	t, depth := wk.t, wk.t.d.w.pipeline
	q := make([]inflight, 0, depth)
	recv := func() error {
		f := q[0]
		q = q[:copy(q, q[1:])]
		var r0 time.Time
		if f.traced {
			r0 = time.Now()
		}
		status, body, err := wk.cl.Recv()
		t1 := time.Now()
		if err != nil {
			return err
		}
		ok := status == 200
		switch {
		case f.kind == opGet:
			ok = ok && wk.chk.atLeast(f.id, body, f.version)
		case ok:
			t.m.ackPut(f.id, f.version)
		}
		wk.record(f.kind, f.t0, t1, ok, f.traced)
		if f.traced {
			wk.log.request(f.kind, true, f.t0, f.sent, r0, t1)
		}
		return nil
	}
	for time.Now().Before(t.end) {
		kind, id := wk.pick.next()
		f := inflight{kind: kind, id: id, traced: wk.traceNext()}
		method, body := "GET", []byte(nil)
		if kind == opPut {
			f.version = t.m.nextVersion(id)
			fillValue(wk.val, t.m.seed, id, f.version)
			method, body = "PUT", wk.val
		} else {
			f.version, _ = t.m.state(id)
		}
		f.t0 = time.Now()
		if err := wk.cl.Send(method, t.paths[id], body); err != nil {
			return err
		}
		if f.traced {
			f.sent = time.Now()
		}
		q = append(q, f)
		if len(q) == depth {
			if err := recv(); err != nil {
				return err
			}
		}
	}
	for len(q) > 0 {
		if err := recv(); err != nil {
			return err
		}
	}
	return nil
}

// runEmbedded drives the store directly. The worker is the only reader
// and writer of its keys, so every answer is checked exactly.
func (wk *worker) runEmbedded() error {
	t, d := wk.t, wk.t.d
	for time.Now().Before(t.end) {
		kind, id := wk.pick.next()
		key := t.keys[id]
		traced := wk.traceNext()
		var ok bool
		var err error
		var t0, t1 time.Time
		switch kind {
		case opPut:
			v := t.m.nextVersion(id)
			fillValue(wk.val, t.m.seed, id, v)
			t0 = time.Now()
			err = d.put(key, wk.val)
			t1 = time.Now()
			ok = err == nil
			if ok {
				t.m.ackPut(id, v)
			}
		case opGet:
			var body []byte
			var found bool
			t0 = time.Now()
			body, found, err = d.get(key)
			t1 = time.Now()
			ok = err == nil && wk.chk.exact(id, body, found)
		case opDelete:
			_, present := t.m.state(id)
			t.m.nextVersion(id)
			var found bool
			t0 = time.Now()
			found, err = d.delete(key)
			t1 = time.Now()
			ok = err == nil && found == present
			if ok {
				t.m.ackDelete(id)
			}
		}
		if err != nil {
			return err
		}
		t2 := t1
		if traced {
			t2 = time.Now()
			wk.log.request(kind, false, t0, t0, t1, t2)
		}
		wk.record(kind, t0, t2, ok, traced)
	}
	return nil
}

// readBackChunk is how many read-back GETs make one window of get_p50_us
// and get_p99_us on a workload whose traffic has no GETs.
const readBackChunk = 4096

// readBack GETs this worker's share of the keys over its connection once
// the writers are quiet, checks each answer exactly, and times it: on a
// PUT-only workload these are the only GETs there are.
func (wk *worker) readBack() error {
	t := wk.t
	for round := 0; round < t.cfg.readBackRounds; round++ {
		for id := wk.id; id < t.cfg.readBackKeys; id += len(t.workers) {
			t0 := time.Now()
			if err := wk.cl.Send("GET", t.paths[id], nil); err != nil {
				return err
			}
			status, body, err := wk.cl.Recv()
			t1 := time.Now()
			if err != nil {
				return err
			}
			t.attempted.Add(1)
			if wk.chk.exact(id, body, status == 200) && (status == 200 || status == 404) {
				wk.readback = append(wk.readback, uint32(t1.Sub(t0)))
			} else {
				t.failed.Add(1)
			}
		}
	}
	return nil
}

// each runs fn on every worker's goroutine and waits for all.
func (t *traffic) each(fn func(*worker) error) error {
	var wg sync.WaitGroup
	for _, wk := range t.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wk.err = fn(wk)
		}()
	}
	wg.Wait()
	var errs []error
	for _, wk := range t.workers {
		if wk.err != nil {
			errs = append(errs, fmt.Errorf("worker %d: %w", wk.id, wk.err))
		}
	}
	return errors.Join(errs...)
}

// run drives the workers through warm-up and the windows. In a traced
// pass it snapshots every layer's counters at the window boundaries.
func (t *traffic) run() ([]snapshot, error) {
	cfg := t.cfg
	t.origin = time.Now()
	t.start = t.origin.Add(cfg.warmup)
	t.end = t.start.Add(time.Duration(cfg.windows) * cfg.window)
	for _, wk := range t.workers {
		wk.log.origin = t.origin
	}
	var snaps []snapshot
	failed := make(chan struct{})
	var sg sync.WaitGroup
	if cfg.traced {
		sg.Add(1)
		go func() {
			defer sg.Done()
			for i := 0; i < cfg.windows; i++ {
				select {
				case <-time.After(time.Until(t.start.Add(time.Duration(i) * cfg.window))):
				case <-failed:
					return
				}
				snaps = append(snaps, t.d.snapshot(t.opCounts()))
			}
		}()
	}
	err := t.each(func(wk *worker) error {
		if wk.cl == nil {
			return wk.runEmbedded()
		}
		return wk.runNet()
	})
	if err != nil {
		close(failed)
	}
	sg.Wait()
	if cfg.traced {
		// The closing snapshot, with the workers quiet.
		snaps = append(snaps, t.d.snapshot(t.opCounts()))
	}
	return snaps, err
}

// latencyWindows is the per-window values of the metrics one kind of
// operation contributes.
type latencyWindows struct {
	p50, p99 []float64 // us
	samples  uint64
}

// add appends the p50 and p99 of one window's raw samples (ns, sorted in
// place); a window without samples adds nothing.
func (l *latencyWindows) add(samples []uint32) {
	if len(samples) == 0 {
		return
	}
	l.samples += uint64(len(samples))
	l.p50 = append(l.p50, percentile(samples, 0.50)/1e3)
	l.p99 = append(l.p99, percentile(samples, 0.99)/1e3)
}

// windowStats reduces the workers' samples of one operation kind to
// per-window percentiles.
func (t *traffic) windowStats(kind int) (l latencyWindows) {
	for i := 0; i < t.cfg.windows; i++ {
		var all []uint32
		for _, wk := range t.workers {
			all = append(all, wk.lat[i][kind]...)
		}
		l.add(all)
	}
	return
}

// readBackStats cuts the read-back's samples, in the order they were
// taken, into windows of readBackChunk.
func (t *traffic) readBackStats() (l latencyWindows) {
	per := readBackChunk / len(t.workers)
	for lo := 0; ; lo += per {
		var all []uint32
		for _, wk := range t.workers {
			if lo < len(wk.readback) {
				all = append(all, wk.readback[lo:min(lo+per, len(wk.readback))]...)
			}
		}
		if len(all) == 0 {
			return
		}
		l.add(all)
	}
}

func (t *traffic) throughput() (rps []float64) {
	for i := 0; i < t.cfg.windows; i++ {
		n := 0
		for _, wk := range t.workers {
			for k := range wk.lat[i] {
				n += len(wk.lat[i][k])
			}
		}
		rps = append(rps, float64(n)/t.cfg.window.Seconds())
	}
	return
}

// setEndToEnd reports the six metrics the measured part of an untraced
// pass produces; setup_s and peak_rss_mb are runPass's.
func (r *passResult) setEndToEnd(rps []float64, put, get latencyWindows, recoverMs []float64) {
	r.set("throughput_rps", rps...)
	r.set("put_p50_us", put.p50...)
	r.set("put_p99_us", put.p99...)
	r.set("get_p50_us", get.p50...)
	r.set("get_p99_us", get.p99...)
	r.set("recover_ms", recoverMs...)
}

// setLayers reports every counter-derived per-layer metric from its
// per-window values.
func (r *passResult) setLayers(windows []map[string]float64) {
	for name := range windows[0] {
		ws := make([]float64, len(windows))
		for i, w := range windows {
			ws[i] = w[name]
		}
		r.set(name, ws...)
	}
}

// setup builds w's deployment and preloads it; its duration is setup_s.
func setup(w *workload, seed uint64) (*deployment, *model, time.Duration, error) {
	t0 := time.Now()
	d, err := deploy(w)
	if err != nil {
		return nil, nil, 0, err
	}
	var m *model
	if w.kind == kindCrash {
		m = newModel(seed, crashRecords)
		_, _, err = d.loadStaged(m, nil)
	} else {
		m = newModel(seed, keySpace)
		err = d.preload(m)
	}
	if err != nil {
		d.stopNetwork()
		return nil, nil, 0, err
	}
	return d, m, time.Since(t0), nil
}

// runPass measures one workload once and returns every metric of the
// pass. An error means the run could not be carried out; a wrong answer
// from the system is not an error but a failed operation or a problem in
// the result.
func runPass(w *workload, seconds float64, seed uint64, traced bool) (*passResult, []span, error) {
	cfg := passConfig(w, seed, seconds, traced)
	res := &passResult{
		Workload: w.name, Why: w.why, Transport: w.transport, Profile: w.profile, Traced: traced,
		Seed: seed, Clients: w.workers, Pipeline: w.pipeline,
		WindowSeconds: cfg.window.Seconds(), Windows: cfg.windows, WarmupSeconds: cfg.warmup.Seconds(),
		Start: time.Now().UTC(), Correct: true, Metrics: make(map[string]metric),
	}
	pmem.SetCrashLogger(func(int64) {}) // the epilogue's power cuts are the plan, not news
	if traced {
		for _, def := range perLayer {
			res.set(def.name, 0)
		}
		// Probes go first, on a heap nothing has been through yet, and
		// their regions are returned before the workload is built.
		p := runProbes(cfg.probeOps)
		if p.err != nil {
			res.problem("probe: %v", p.err)
		}
		for name, v := range p.metrics {
			res.set(name, v)
		}
		runtime.GC()
	}

	d, m, setupTime, err := setup(w, seed)
	if err != nil {
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	defer d.stopNetwork()

	var spans []span
	if w.kind == kindCrash {
		err = runCrash(d, m, cfg, res)
	} else {
		spans, err = runTraffic(d, m, cfg, res)
	}
	if err != nil {
		return nil, nil, err
	}
	if traced {
		res.set("sample_count", float64(res.SampleCount))
	} else {
		res.set("setup_s", setupTime.Seconds())
		rss, err := peakRSSMB()
		if err != nil {
			return nil, nil, err
		}
		res.set("peak_rss_mb", rss)
	}
	res.ErrorRatio = ratio(float64(res.Failed), float64(res.Attempted))
	if res.Failed > 0 {
		res.Correct = false
	}
	return res, spans, nil
}

// runTraffic is the measured part of a traffic workload: windows, then
// the epilogue every workload shares — read-back, integrity scrub, the
// server's own error counters, power cut, recovery, byte-exact read-back
// of every acknowledged key.
func runTraffic(d *deployment, m *model, cfg runConfig, res *passResult) ([]span, error) {
	w := d.w
	t, err := newTraffic(d, m, cfg)
	if err != nil {
		return nil, err
	}
	defer t.closeClients()
	snaps, err := t.run()
	if err != nil {
		return nil, fmt.Errorf("traffic: %w", err)
	}
	if w.kind != kindEmbedded {
		if err := t.each((*worker).readBack); err != nil {
			return nil, fmt.Errorf("read-back: %w", err)
		}
	}
	final := d.snapshot(t.opCounts())
	t.closeClients()
	if err := d.stopNetwork(); err != nil {
		return nil, fmt.Errorf("stop server: %w", err)
	}

	put, get := t.windowStats(opPut), t.windowStats(opGet)
	if get.samples == 0 {
		// No GETs in the traffic: the read-back's are the workload's GETs.
		get = t.readBackStats()
	}
	res.SampleCount = put.samples + get.samples

	// Gates on the layers' own view of the run.
	if w.kind == kindCluster {
		s := final.srv
		if s.Errors != 0 {
			res.problem("kvserver counted %d errors", s.Errors)
		}
		if s.ZeroCopyPuts != s.Puts || s.ZeroCopyFallbacks != 0 {
			res.problem("zero-copy PUT ratio %d/%d with %d fallbacks: PASTE is configured, it must be 1", s.ZeroCopyPuts, s.Puts, s.ZeroCopyFallbacks)
		}
		if s.ZeroCopyGets != s.Gets {
			res.problem("zero-copy GET ratio %d/%d", s.ZeroCopyGets, s.Gets)
		}
		if s.SoftwareSums != 0 {
			res.problem("%d body checksums computed in software: the NIC's must be reused", s.SoftwareSums)
		}
		if n := final.nic.RxDropNoBuf + final.nic.RxDropRing + final.nic.TxDropRing + final.nic.RxCsumBad; n != 0 {
			res.problem("server NIC dropped or rejected %d packets", n)
		}
	}

	rec, err := recoverAndCheck(d, m, cfg.seed, cfg.recoverReps, res)
	if err != nil {
		return nil, err
	}
	res.Attempted = t.attempted.Load() + rec.attempted
	res.Failed = t.failed.Load() + rec.failed

	if !cfg.traced {
		res.setEndToEnd(t.throughput(), put, get, rec.recoverMs)
		return nil, nil
	}

	// Traced pass: counters per window, spans of every second request.
	layers := make([]map[string]float64, 0, cfg.windows)
	for i := 0; i+1 < len(snaps); i++ {
		layers = append(layers, layerWindow(snaps[i], snaps[i+1]))
	}
	res.setLayers(layers)
	res.set("core.recover_ns_per_record", rec.recoverNsPerRecord()...)
	res.set("core.verify_ns_per_record", rec.verifyNsPerRecord)
	res.set("core.pm_bytes_per_user_byte", rec.pmBytesPerUser)
	var spans []span
	for _, wk := range t.workers {
		spans = append(spans, wk.log.spans...)
	}
	self := selfTimes(spans)
	res.set("kvclient.send_ns_p50", median(self["kvclient.send"]))
	res.set("kvclient.recv_wait_ns_p50", median(self["kvclient.recv"]))
	// Every second request carried spans; the p50 ratio of the two kinds
	// is what the spans cost.
	var spanned, plain []uint32
	for _, wk := range t.workers {
		spanned = append(spanned, wk.spanned...)
		for i := range wk.lat {
			for k := range wk.lat[i] {
				plain = append(plain, wk.lat[i][k]...)
			}
		}
	}
	res.set("trace.overhead_ratio", ratio(percentile(spanned, 0.50), percentile(plain, 0.50)))
	if cfg.ladder {
		// Lower quartiles, as for the end-to-end metrics: host noise
		// only slows a window.
		fullP50, _ := quartiles(put.p50)
		if err := runLadder(w, cfg, res, fullP50); err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
	}
	return spans, nil
}

// recovery is what one power-cut epilogue found.
type recovery struct {
	attempted, failed uint64
	records           int
	recoverMs         []float64 // one per cut-and-reopen
	gets              []uint32  // direct Get latency of every key after the first reopen, ns
	verifyNsPerRecord float64
	pmBytesPerUser    float64
}

func (rec recovery) recoverNsPerRecord() []float64 {
	out := make([]float64, len(rec.recoverMs))
	for i, ms := range rec.recoverMs {
		out[i] = ratio(ms*1e6, float64(rec.records))
	}
	return out
}

// recoverAndCheck scrubs the live store, then cuts the power
// (Region.Crash discards every line not flushed and fenced), reopens
// the store from the region, reads every acknowledged key back
// byte-exact and scrubs again. Further repetitions only time the
// recovery scan.
func recoverAndCheck(d *deployment, m *model, seed uint64, reps int, res *passResult) (recovery, error) {
	var rec recovery
	if bad, err := d.verify(); err != nil || bad != 0 {
		res.problem("integrity scrub before the power cut: %d bad records, err %v", bad, err)
	}
	live, userBytes := m.live()
	rec.records = live
	chk := newChecker(m)
	for rep := 0; rep < reps; rep++ {
		d.pm.Crash(int64(splitmix(seed + uint64(rep))))
		took, err := d.reopen()
		if err != nil {
			return rec, fmt.Errorf("reopen after power cut: %w", err)
		}
		rec.recoverMs = append(rec.recoverMs, float64(took.Nanoseconds())/1e6)
		if n := d.records(); n != live {
			res.problem("recovered %d records, %d were acknowledged", n, live)
		}
		if rep > 0 {
			continue
		}
		for id := range m.acked {
			key := keyOf(id)
			t0 := time.Now()
			body, found, err := d.get(key)
			t1 := time.Now()
			rec.attempted++
			if err != nil || !chk.exact(id, body, found) {
				rec.failed++
				continue
			}
			rec.gets = append(rec.gets, uint32(t1.Sub(t0)))
		}
		t0 := time.Now()
		if bad, err := d.verify(); err != nil || bad != 0 {
			res.problem("integrity scrub after recovery: %d bad records, err %v", bad, err)
		}
		rec.verifyNsPerRecord = ratio(float64(time.Since(t0).Nanoseconds()), float64(live))
		rec.pmBytesPerUser = ratio(float64(d.pmBytes()), float64(userBytes))
	}
	return rec, nil
}

// loadStaged writes the next version of every model key the way a bulk
// loader does — PutStaged x 8, then one Commit — and returns each
// group's per-record latency. snap, if set, is called before and after.
func (d *deployment) loadStaged(m *model, snap func()) (perRecordNs []uint32, took time.Duration, err error) {
	val := make([]byte, valueSize)
	if snap != nil {
		snap()
		defer snap()
	}
	start := time.Now()
	for base := 0; base < len(m.acked); base += 8 {
		t0 := time.Now()
		for id := base; id < base+8; id++ {
			fillValue(val, m.seed, id, m.nextVersion(id))
			if err := d.store.PutStaged(keyOf(id), val); err != nil {
				return nil, 0, fmt.Errorf("load key %d: %w", id, err)
			}
		}
		d.store.Commit()
		perRecordNs = append(perRecordNs, uint32(time.Since(t0).Nanoseconds()/8))
		for id := base; id < base+8; id++ {
			m.ackPut(id, m.issued[id])
		}
	}
	return perRecordNs, time.Since(start), nil
}

// runCrash is crash_recover's measured part. Set-up loaded version 1 of
// 32 768 records; each repetition overwrites them all in groups of
// eight, then goes through the same power-cut epilogue as every other
// workload, with its read-back timed. Repetitions play the part of
// windows.
func runCrash(d *deployment, m *model, cfg runConfig, res *passResult) error {
	var rps, recoverMs, recoverNs, verifyNs, pmRatio []float64
	var put, get latencyWindows
	var layers []map[string]float64
	deadline := time.Now().Add(cfg.warmup + time.Duration(cfg.windows)*cfg.window)
	for rep := 0; rep < cfg.minCrashReps || time.Now().Before(deadline); rep++ {
		var snaps []snapshot
		var snap func()
		if cfg.traced {
			snap = func() {
				var ops [opKinds]uint64
				ops[opPut] = uint64(len(snaps) * crashRecords)
				snaps = append(snaps, d.snapshot(ops))
			}
		}
		lat, took, err := d.loadStaged(m, snap)
		if err != nil {
			return err
		}
		rps = append(rps, crashRecords/took.Seconds())
		put.add(lat)
		if cfg.traced {
			layers = append(layers, layerWindow(snaps[0], snaps[1]))
		}

		rec, err := recoverAndCheck(d, m, cfg.seed+uint64(rep), 1, res)
		if err != nil {
			return err
		}
		res.Attempted += crashRecords + rec.attempted
		res.Failed += rec.failed
		get.add(rec.gets)
		recoverMs = append(recoverMs, rec.recoverMs...)
		recoverNs = append(recoverNs, rec.recoverNsPerRecord()...)
		verifyNs = append(verifyNs, rec.verifyNsPerRecord)
		pmRatio = append(pmRatio, rec.pmBytesPerUser)
	}
	res.Windows, res.WindowSeconds = len(rps), 0
	res.SampleCount = put.samples + get.samples
	if !cfg.traced {
		res.setEndToEnd(rps, put, get, recoverMs)
		return nil
	}
	res.setLayers(layers)
	res.set("core.recover_ns_per_record", recoverNs...)
	res.set("core.verify_ns_per_record", verifyNs...)
	res.set("core.pm_bytes_per_user_byte", pmRatio...)
	return nil
}

// runLadder replays the put1k_c1 stream against successively thinner
// stacks built from public constructors — the paper's Table 1 method,
// and the only way to split the network from outside the program. The
// rungs subtract to shares of fullP50, the same pass's p50 of the PUTs
// without spans, so discard + persist + datamgmt equals it by
// construction.
func runLadder(w *workload, cfg runConfig, res *passResult, fullP50 float64) error {
	rung := func(prof calib.Profile, be backendKind) (float64, error) {
		d, err := deployCluster(w, prof, be)
		if err != nil {
			return 0, err
		}
		defer d.stopNetwork()
		rc := runConfig{seed: cfg.seed, warmup: cfg.warmup / 2, window: cfg.ladderRung / 5, windows: 5}
		t, err := newTraffic(d, newModel(cfg.seed, keySpace), rc)
		if err != nil {
			return 0, err
		}
		defer t.closeClients()
		if _, err := t.run(); err != nil {
			return 0, err
		}
		if f := t.failed.Load(); f != 0 {
			return 0, fmt.Errorf("%d requests failed", f)
		}
		lo, _ := quartiles(t.windowStats(opPut).p50)
		return lo, nil
	}
	discard, err := rung(calib.Paper(), backendDiscard)
	if err != nil {
		return fmt.Errorf("discard rung: %w", err)
	}
	discardOff, err := rung(calib.Off(), backendDiscard)
	if err != nil {
		return fmt.Errorf("discard/off rung: %w", err)
	}
	rawpm, err := rung(calib.Paper(), backendRawPM)
	if err != nil {
		return fmt.Errorf("rawpm rung: %w", err)
	}
	copyPath, err := rung(calib.Paper(), backendPktStoreCopy)
	if err != nil {
		return fmt.Errorf("copy-path rung: %w", err)
	}
	res.set("net.discard_put_p50_us", discard)
	res.set("net.discard_put_p50_us_off", discardOff)
	res.set("net.rawpm_put_p50_us", rawpm)
	res.set("net.pktstore_copy_put_p50_us", copyPath)
	res.set("ladder.persist_us", rawpm-discard)
	res.set("ladder.datamgmt_us", fullP50-rawpm)
	res.set("ladder.zero_copy_gain_us", copyPath-fullP50)
	return nil
}

// peakRSSMB is VmHWM of this process: the workload runs in a process of
// its own, so the high-water mark is the workload's.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}
