package fault

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"packetstore/internal/calib"
	"packetstore/internal/core"
	"packetstore/internal/host"
	"packetstore/internal/kvclient"
	"packetstore/internal/kvserver"
	"packetstore/internal/pmem"
	"packetstore/internal/tcp"
)

// The torture harness model-checks the store against randomized fault
// schedules. Each run derives a workload, a fault plan and the post-cut
// device state from one seed, executes it against a real store, and
// compares recovery against a reference model:
//
//   - crash runs: after a power cut at any persist operation (torn
//     write-backs included), recovery must equal the acked prefix of
//     the workload — every acknowledged op exact, the one in-flight op
//     old/new/absent, nothing else, no checksum failures, nothing
//     quarantined.
//   - corruption runs: after random media bit flips, every read returns
//     the correct bytes, reports the key missing (quarantined), or
//     fails with an error — wrong bytes are never served, and no more
//     keys are affected than bits were flipped.
//   - shard runs: a shard whose metadata is destroyed quarantines on
//     reopen; its keyspace answers ErrShardDown while every other
//     shard keeps serving exact data.
//   - net runs: under frame loss, reordering, duplication and
//     corruption, a client-acknowledged put is committed exactly on
//     the server; unacknowledged puts are absent or exact.

// RunStats describes one torture run.
type RunStats struct {
	Seed       int64
	Shards     int
	PersistOps int64 // calibration total (crash runs)
	CutAt      int64
	TearBytes  int
	// BatchSize is the group-commit width drawn for crash runs: 1 means
	// the per-op path, >1 stages that many puts per Commit.
	BatchSize  int
	AckedOps   int
	RecoveryNs int64
	Records    int // records alive after recovery
	// SlotsQuarantined counts slots fenced off by recovery; Detected
	// counts keys whose corruption surfaced as a miss or an error.
	SlotsQuarantined int
	Detected         int
	ShardsDown       int
	// RejoinNs is the quarantine-to-readmission time of a heal run's
	// victim shard; TrafficOps/TrafficErrs count the concurrent traffic
	// issued during the heal and how much of it hit the outage window.
	RejoinNs    int64
	TrafficOps  int64
	TrafficErrs int64
	// Reconstructions counts records the erase mode re-materialised
	// from parity and the surviving group members.
	Reconstructions uint64
}

// tortureCfg is the small, fully explicit geometry the PM-level modes
// run on: every field is set so the harness can locate the superblock
// and per-shard strides without private layout knowledge.
func tortureCfg() core.Config {
	return core.Config{
		MetaSlots: 256, SlotSize: 128,
		DataSlots: 256, DataBufSize: 512,
		VerifyOnGet: true,
	}
}

// storeAPI is the store surface the harness checks — both *core.Store
// and *core.ShardedStore implement it.
type storeAPI interface {
	Put(key, value []byte) error
	PutStaged(key, value []byte) error
	Commit()
	Get(key []byte) ([]byte, bool, error)
	Delete(key []byte) (bool, error)
	Range(start, end []byte, limit int) ([]core.Record, error)
	Verify() ([][]byte, error)
	Stats() core.Stats
	Len() int
}

func openStore(r *pmem.Region, cfg core.Config, shards int) (storeAPI, error) {
	if shards > 1 {
		return core.OpenSharded(r, cfg, shards)
	}
	return core.Open(r, cfg)
}

// wlOp is one workload operation.
type wlOp struct {
	del bool
	key string
	val []byte
}

// crashOps derives a deterministic put/delete workload over a small key
// space (overwrites and deletes exercise slot recycling).
func crashOps(rng *rand.Rand, n, keys, maxVal int) []wlOp {
	ops := make([]wlOp, n)
	for i := range ops {
		k := fmt.Sprintf("key-%02d", rng.Intn(keys))
		if rng.Intn(5) == 0 {
			ops[i] = wlOp{del: true, key: k}
			continue
		}
		v := make([]byte, 1+rng.Intn(maxVal))
		rng.Read(v)
		ops[i] = wlOp{key: k, val: v}
	}
	return ops
}

// inflightOp describes one operation that was indeterminate when power
// died: a staged-but-uncommitted (or mid-commit) put, or the delete in
// flight. val is the last value staged for the key in the cut batch —
// earlier stagings of the same key are superseded before their sequence
// is ever stamped, so only the last can surface.
type inflightOp struct {
	del bool
	val []byte
}

// replayBatched drives ops against st, grouping puts into batches of
// `batch` staged puts per Commit (batch<=1 is the per-op path). Deletes
// are immediate operations: any open batch is committed — and its puts
// acked — before the delete issues, so the in-flight set at a cut is
// always either one delete, one unbatched put, or the puts of a single
// group commit. Returns the acked reference model and, if power died,
// the in-flight set (nil means the replay completed).
func replayBatched(st storeAPI, r *pmem.Region, ops []wlOp, batch int) (model map[string][]byte, acked int, inflight map[string]inflightOp, err error) {
	model = make(map[string][]byte)
	var pending []wlOp

	pendingSet := func(extra ...wlOp) map[string]inflightOp {
		fl := make(map[string]inflightOp)
		for _, p := range append(pending, extra...) {
			fl[p.key] = inflightOp{del: p.del, val: p.val}
		}
		return fl
	}
	commit := func() bool {
		st.Commit()
		if r.PowerFailed() {
			return true
		}
		for _, p := range pending {
			model[p.key] = p.val
			acked++
		}
		pending = nil
		return false
	}

	for i, o := range ops {
		if o.del {
			if len(pending) > 0 && commit() {
				return model, acked, pendingSet(), nil
			}
			_, derr := st.Delete([]byte(o.key))
			if r.PowerFailed() {
				return model, acked, pendingSet(o), nil
			}
			if derr != nil {
				return model, acked, nil, fmt.Errorf("op %d failed before the cut: %w", i, derr)
			}
			delete(model, o.key)
			acked++
			continue
		}
		if batch <= 1 {
			perr := st.Put([]byte(o.key), o.val)
			if r.PowerFailed() {
				return model, acked, pendingSet(o), nil
			}
			if perr != nil {
				return model, acked, nil, fmt.Errorf("op %d failed before the cut: %w", i, perr)
			}
			model[o.key] = o.val
			acked++
			continue
		}
		perr := st.PutStaged([]byte(o.key), o.val)
		if r.PowerFailed() {
			return model, acked, pendingSet(o), nil
		}
		if perr != nil {
			return model, acked, nil, fmt.Errorf("op %d failed before the cut: %w", i, perr)
		}
		pending = append(pending, o)
		if len(pending) >= batch && commit() {
			return model, acked, pendingSet(), nil
		}
	}
	if len(pending) > 0 && commit() {
		return model, acked, pendingSet(), nil
	}
	return model, acked, nil, nil
}

// RunCrash executes one crash-consistency run: calibrate the workload's
// persist-operation count on a scratch store, pick a group-commit batch
// size, a cut point and (half the time) a torn write-back from the
// seed, replay with the plan armed, crash, recover, and compare against
// the reference model. With batch > 1 the cut can land mid-group, so
// every put of the cut batch is independently indeterminate — committed
// sequence numbers flush under one fence, and any per-line subset may
// survive the cut.
func RunCrash(seed int64, shards int) (RunStats, error) {
	if shards < 1 {
		shards = 1
	}
	rs := RunStats{Seed: seed, Shards: shards}
	cfg := tortureCfg()
	rng := rand.New(rand.NewSource(seed))
	ops := crashOps(rng, 40, 12, 360)
	rs.BatchSize = []int{1, 2, 4, 8}[rng.Intn(4)]

	size := cfg.RegionSize()
	if shards > 1 {
		size = core.ShardedRegionSize(cfg, shards)
	}

	// Calibration: identical geometry, workload and batching, counting
	// hook. The store's index heights come from a fixed-seed rng and
	// sharded commits walk shards in order, so the replay issues the
	// exact same persist sequence.
	calSt, err := openStore(pmem.New(size, calib.Off()), cfg, shards)
	if err != nil {
		return rs, fmt.Errorf("calibration open: %w", err)
	}
	var calErr error
	total := CountPersistOps(storeRegion(calSt), func() {
		_, _, _, calErr = replayBatched(calSt, storeRegion(calSt), ops, rs.BatchSize)
	})
	if calErr != nil {
		return rs, fmt.Errorf("calibration: %w", calErr)
	}
	if total == 0 {
		return rs, errors.New("calibration counted no persist operations")
	}
	rs.PersistOps = total
	rs.CutAt = 1 + rng.Int63n(total)
	if rng.Intn(2) == 1 {
		rs.TearBytes = 1 + rng.Intn(pmem.LineSize-1)
	}

	// Replay with the plan armed.
	r := pmem.New(size, calib.Off())
	st, err := openStore(r, cfg, shards)
	if err != nil {
		return rs, fmt.Errorf("replay open: %w", err)
	}
	plan := &Plan{Seed: seed, CutAt: rs.CutAt, TearBytes: rs.TearBytes}
	plan.Install(r)

	model, acked, inflight, err := replayBatched(st, r, ops, rs.BatchSize)
	if err != nil {
		return rs, err
	}
	rs.AckedOps = acked
	if inflight == nil {
		return rs, fmt.Errorf("cut at op %d/%d never fired", rs.CutAt, total)
	}

	r.Crash(seed)
	t0 := time.Now()
	st2, err := openStore(r, cfg, shards)
	rs.RecoveryNs = time.Since(t0).Nanoseconds()
	if err != nil {
		return rs, fmt.Errorf("recovery failed: %w", err)
	}
	if ss, ok := st2.(*core.ShardedStore); ok && ss.DownShards() > 0 {
		return rs, fmt.Errorf("clean power cut quarantined %d shards", ss.DownShards())
	}

	// Compare the recovered store against the reference model. Keys in
	// the in-flight set are judged per-key: a group commit flushes all
	// its sequence stamps under one fence, so any per-line subset of the
	// cut batch may have committed — each key independently shows its
	// acked old value, the batch's (last) staged value, or nothing if it
	// had no acked version.
	recs, err := st2.Range(nil, nil, 0)
	if err != nil {
		return rs, fmt.Errorf("range after recovery: %w", err)
	}
	seen := make(map[string][]byte, len(recs))
	for _, rec := range recs {
		seen[string(rec.Key)] = rec.Value
	}
	for k, want := range model {
		if _, ok := inflight[k]; ok {
			continue // judged below under in-flight rules
		}
		got, ok := seen[k]
		if !ok {
			return rs, fmt.Errorf("acked key %q lost by recovery", k)
		}
		if !bytes.Equal(got, want) {
			return rs, fmt.Errorf("acked key %q recovered with wrong value", k)
		}
	}
	for k, fl := range inflight {
		oldVal, hadOld := model[k]
		if got, ok := seen[k]; ok {
			okOld := hadOld && bytes.Equal(got, oldVal)
			okNew := !fl.del && bytes.Equal(got, fl.val)
			if !okOld && !okNew {
				return rs, fmt.Errorf("in-flight key %q recovered with impossible value", k)
			}
		} else if hadOld && !fl.del && !bytes.Equal(oldVal, fl.val) {
			// An in-flight overwrite may surface old or new but must not
			// lose the acked old version entirely.
			return rs, fmt.Errorf("in-flight overwrite of %q lost the acked old value", k)
		}
	}
	for k := range seen {
		if _, inModel := model[k]; inModel {
			continue
		}
		if _, inFlight := inflight[k]; inFlight {
			continue
		}
		return rs, fmt.Errorf("phantom key %q after recovery", k)
	}
	if bad, err := st2.Verify(); err != nil || len(bad) > 0 {
		return rs, fmt.Errorf("verify after recovery: %d bad keys, err %v", len(bad), err)
	}
	rs.SlotsQuarantined = st2.Stats().SlotsQuarantined
	if rs.SlotsQuarantined != 0 {
		// A power cut is not media corruption: every committed slot was
		// fenced before its commit word was written, so nothing should
		// ever fail validation.
		return rs, fmt.Errorf("clean power cut quarantined %d slots", rs.SlotsQuarantined)
	}
	rs.Records = st2.Len()
	return rs, nil
}

// RunDropFence plants a protocol bug instead of a power cut: every fence
// of one acked Put in a victim shard is swallowed (PersistDecision.Drop),
// the other shards keep committing — and fencing — afterwards, then the
// power dies. An sfence orders only the issuing core's own clwbs, so the
// victim's flushed lines are still in the undefined window and the crash
// loses the acked key on about half the seeds; a simulator whose fence
// drained the whole region would let the neighbours' fences paper over
// the bug on every seed. It reports whether this seed's crash exposed
// the bug (the recovered store no longer serves the acked value). err is
// for harness failures and for damage to any other key, which the
// planted bug does not excuse.
func RunDropFence(seed int64) (caught bool, err error) {
	const shards = 4
	cfg := tortureCfg()
	rng := rand.New(rand.NewSource(seed))
	r := pmem.New(core.ShardedRegionSize(cfg, shards), calib.Off())
	ss, err := core.OpenSharded(r, cfg, shards)
	if err != nil {
		return false, err
	}
	model := make(map[string][]byte)
	put := func(k string) error {
		v := make([]byte, 1+rng.Intn(360))
		rng.Read(v)
		model[k] = v
		return ss.Put([]byte(k), v)
	}
	for i := 0; i < 16; i++ {
		if err := put(fmt.Sprintf("key-%03d", i)); err != nil {
			return false, err
		}
	}
	victimKey := fmt.Sprintf("victim-%d", seed)
	victim := core.ShardOf([]byte(victimKey), shards)
	drop := true
	r.SetPersistHook(func(op pmem.PersistOp) pmem.PersistDecision {
		return pmem.PersistDecision{Drop: drop && op == pmem.OpFence}
	})
	if err := put(victimKey); err != nil { // acked by a store that believes it fenced
		return false, err
	}
	drop = false
	for i, n := 0, 0; n < 16; i++ {
		k := fmt.Sprintf("late-%03d", i)
		if core.ShardOf([]byte(k), shards) == victim {
			continue
		}
		if err := put(k); err != nil {
			return false, err
		}
		n++
	}

	r.Crash(seed)
	ss2, err := core.OpenSharded(r, cfg, shards)
	if err != nil {
		return false, fmt.Errorf("recovery failed: %w", err)
	}
	for k, want := range model {
		got, ok, gerr := ss2.Get([]byte(k))
		intact := gerr == nil && ok && bytes.Equal(got, want)
		switch {
		case k == victimKey:
			caught = !intact
		case !intact:
			return caught, fmt.Errorf("fenced key %q damaged by a neighbour's dropped fence: ok=%v err=%v", k, ok, gerr)
		}
	}
	return caught, nil
}

// storeRegion recovers the region under a store opened by openStore.
func storeRegion(st storeAPI) *pmem.Region {
	switch s := st.(type) {
	case *core.Store:
		return s.Region()
	case *core.ShardedStore:
		return s.Region()
	}
	panic("fault: unknown store type")
}

// RunCorrupt executes one media-corruption run: fill a store with
// records, flip random bits across the metadata and data areas (the
// superblock is spared — shard loss is RunShard's subject), reboot,
// and require that no read ever returns wrong bytes.
func RunCorrupt(seed int64) (RunStats, error) {
	rs := RunStats{Seed: seed, Shards: 1}
	cfg := tortureCfg()
	rng := rand.New(rand.NewSource(seed))
	r := pmem.New(cfg.RegionSize(), calib.Off())
	s, err := core.Open(r, cfg)
	if err != nil {
		return rs, err
	}
	// Unique keys only: recycling is exercised by RunCrash; here every
	// record must be attributable to exactly one key so the damage
	// accounting below is exact.
	model := make(map[string][]byte)
	for i := 0; i < 24; i++ {
		k := fmt.Sprintf("key-%03d", i)
		v := make([]byte, 1+rng.Intn(360))
		rng.Read(v)
		if err := s.Put([]byte(k), v); err != nil {
			return rs, err
		}
		model[k] = v
	}

	sbSize := cfg.RegionSize() - cfg.MetaSlots*cfg.SlotSize - cfg.DataSlots*cfg.DataBufSize
	const flips = 6
	for i := 0; i < flips; i++ {
		off := sbSize + rng.Intn(cfg.RegionSize()-sbSize)
		r.CorruptByte(off, 1<<uint(rng.Intn(8)))
	}

	r.Crash(seed)
	t0 := time.Now()
	s2, err := core.Open(r, cfg)
	rs.RecoveryNs = time.Since(t0).Nanoseconds()
	if err != nil {
		return rs, fmt.Errorf("store must survive slot corruption, open failed: %w", err)
	}
	rs.SlotsQuarantined = s2.Quarantined()

	for k, want := range model {
		got, ok, err := s2.Get([]byte(k))
		switch {
		case err != nil:
			rs.Detected++ // value checksum caught it on read
		case !ok:
			rs.Detected++ // slot checksum caught it at recovery
		case !bytes.Equal(got, want):
			return rs, fmt.Errorf("key %q served wrong bytes after corruption", k)
		}
	}
	if rs.Detected > flips {
		return rs, fmt.Errorf("%d keys affected by %d bit flips", rs.Detected, flips)
	}
	recs, err := s2.Range(nil, nil, 0)
	if err != nil {
		return rs, fmt.Errorf("range after corruption: %w", err)
	}
	for _, rec := range recs {
		if _, ok := model[string(rec.Key)]; !ok {
			return rs, fmt.Errorf("phantom key %q after corruption", rec.Key)
		}
	}
	rs.Records = s2.Len()
	return rs, nil
}

// RunShard executes one graceful-degradation run: destroy one shard's
// superblock, reboot, and require the store to reopen with exactly that
// shard quarantined — its keyspace answering ErrShardDown, every other
// key served exactly.
func RunShard(seed int64) (RunStats, error) {
	const shards = 4
	rs := RunStats{Seed: seed, Shards: shards}
	cfg := tortureCfg()
	rng := rand.New(rand.NewSource(seed))
	size := core.ShardedRegionSize(cfg, shards)
	stride := size / shards
	r := pmem.New(size, calib.Off())
	ss, err := core.OpenSharded(r, cfg, shards)
	if err != nil {
		return rs, err
	}
	model := make(map[string][]byte)
	for i := 0; i < 32; i++ {
		k := fmt.Sprintf("key-%03d", i)
		v := make([]byte, 1+rng.Intn(360))
		rng.Read(v)
		if err := ss.Put([]byte(k), v); err != nil {
			return rs, err
		}
		model[k] = v
	}

	victim := rng.Intn(shards)
	// Trash the victim's superblock magic: unrecognizable metadata that
	// recovery must refuse to reformat over.
	r.CorruptByte(victim*stride, 0xff)
	r.Crash(seed)

	t0 := time.Now()
	ss2, err := core.OpenSharded(r, cfg, shards)
	rs.RecoveryNs = time.Since(t0).Nanoseconds()
	if err != nil {
		return rs, fmt.Errorf("multi-shard open must degrade, not fail: %w", err)
	}
	rs.ShardsDown = ss2.DownShards()
	if rs.ShardsDown != 1 {
		return rs, fmt.Errorf("want 1 shard down, got %d", rs.ShardsDown)
	}
	if ss2.Health()[victim] == nil {
		return rs, fmt.Errorf("shard %d should be the quarantined one", victim)
	}
	for k, want := range model {
		got, ok, err := ss2.Get([]byte(k))
		if core.ShardOf([]byte(k), shards) == victim {
			if !errors.Is(err, core.ErrShardDown) {
				return rs, fmt.Errorf("key %q on downed shard: want ErrShardDown, got %v", k, err)
			}
			if err := ss2.Put([]byte(k), []byte("x")); !errors.Is(err, core.ErrShardDown) {
				return rs, fmt.Errorf("put on downed shard: want ErrShardDown, got %v", err)
			}
			continue
		}
		if err != nil || !ok || !bytes.Equal(got, want) {
			return rs, fmt.Errorf("healthy shard stopped serving %q: ok=%v err=%v", k, ok, err)
		}
	}
	// A hash-partitioned range cannot silently skip a shard.
	if _, err := ss2.Range(nil, nil, 0); !errors.Is(err, core.ErrShardDown) {
		return rs, fmt.Errorf("range with a shard down: want ErrShardDown, got %v", err)
	}
	rs.Records = ss2.Len()
	return rs, nil
}

// RunNet executes one network-fault run: a client drives the server
// through a wire that drops, duplicates, reorders and bit-flips frames.
// TCP retransmission plus the checksum path must make every
// acknowledged put exactly durable; unacknowledged puts may be absent
// or exact, never mangled.
func RunNet(seed int64) (RunStats, error) {
	rs := RunStats{Seed: seed, Shards: 1}
	cfg := core.Config{
		MetaSlots: 512, SlotSize: 128,
		DataSlots: 1024, DataBufSize: 2048,
		ChecksumReuse: true, VerifyOnGet: true,
	}
	rng := rand.New(rand.NewSource(seed))
	r := pmem.New(cfg.RegionSize(), calib.Off())
	s, err := core.Open(r, cfg)
	if err != nil {
		return rs, err
	}
	tb := host.NewTestbed(host.Options{
		ServerRxPool: s.Pool(),
		Loss:         0.03,
		Reorder:      0.05,
		Duplicate:    0.03,
		Corrupt:      0.03,
		Seed:         seed,
		StackConfig:  tcp.Config{MinRTO: 2 * time.Millisecond},
	})
	defer tb.Close()
	srv, err := kvserver.New(tb.Server.Stack, 80, kvserver.PktStore{S: s})
	if err != nil {
		return rs, err
	}
	go srv.Run()
	defer srv.Close()

	dial := func() *kvclient.Client {
		for attempt := 0; attempt < 10; attempt++ {
			if c, err := tb.Dial(80); err == nil {
				return kvclient.New(c)
			}
		}
		return nil
	}
	cl := dial()
	if cl == nil {
		return rs, errors.New("could not establish a connection through the impaired wire")
	}

	acked := make(map[string][]byte)
	maybe := make(map[string][]byte)
	for i := 0; i < 30; i++ {
		k := fmt.Sprintf("net-%03d", i)
		v := make([]byte, 1+rng.Intn(300))
		rng.Read(v)
		if cl == nil {
			cl = dial()
		}
		if cl == nil {
			maybe[k] = v // never sent: must simply be absent, which maybe allows
			continue
		}
		if err := cl.Put([]byte(k), v); err != nil {
			maybe[k] = v // no ack: the server may or may not have committed it
			cl.Close()
			cl = nil
			continue
		}
		acked[k] = v
	}
	// Read acked keys back through the impaired wire: a successful GET
	// must return the exact bytes.
	for k, want := range acked {
		if cl == nil {
			cl = dial()
		}
		if cl == nil {
			break
		}
		got, ok, err := cl.Get([]byte(k))
		if err != nil {
			cl.Close()
			cl = nil
			continue // transport gave up; the store check below still runs
		}
		if !ok {
			return rs, fmt.Errorf("acked key %q missing over the network", k)
		}
		if !bytes.Equal(got, want) {
			return rs, fmt.Errorf("key %q read back wrong bytes over the network", k)
		}
	}
	if cl != nil {
		cl.Close()
	}

	// Ground truth: committed state must exactly equal acked state plus
	// any prefix of the unacknowledged ops.
	for k, want := range acked {
		got, ok, err := s.Get([]byte(k))
		if err != nil || !ok || !bytes.Equal(got, want) {
			return rs, fmt.Errorf("acked key %q not committed exactly: ok=%v err=%v", k, ok, err)
		}
	}
	recs, err := s.Range(nil, nil, 0)
	if err != nil {
		return rs, err
	}
	for _, rec := range recs {
		k := string(rec.Key)
		if want, ok := acked[k]; ok {
			if !bytes.Equal(rec.Value, want) {
				return rs, fmt.Errorf("acked key %q stored with wrong bytes", k)
			}
			continue
		}
		if want, ok := maybe[k]; ok {
			if !bytes.Equal(rec.Value, want) {
				return rs, fmt.Errorf("unacked key %q stored with wrong bytes", k)
			}
			continue
		}
		return rs, fmt.Errorf("phantom key %q on the server", k)
	}
	rs.AckedOps = len(acked)
	rs.Records = s.Len()
	return rs, nil
}
