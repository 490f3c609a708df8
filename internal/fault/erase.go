package fault

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"packetstore/internal/calib"
	"packetstore/internal/core"
	"packetstore/internal/kvserver"
	"packetstore/internal/pmem"
)

// RunErase executes one data-area-loss run — the erase torture mode.
// The store runs with cross-shard parity groups; a victim shard's
// entire data area is destroyed at media level (both images zeroed)
// while traffic keeps flowing and a Healer supervises. The seed picks
// the flavor:
//
//   - seed%4 == 0 (operator path): the loss is known — the victim is
//     erased and explicitly quarantined. The healer's rebuild must
//     re-materialise every record from parity and the surviving group
//     members and re-admit the shard with zero acked-write loss.
//   - other even seeds (detection path): the victim is erased and
//     nothing is told. The background scrubber must discover the
//     damage itself and repair it — in place, or by quarantining the
//     shard into the rebuild path — until every victim key serves
//     exact bytes again.
//   - odd seeds (beyond redundancy): TWO members of one parity group
//     are erased. Rebuilds must fail with the typed ErrUnrecoverable —
//     the shards stay down, their keyspace answers ErrShardDown, and
//     the surviving shards keep serving exact bytes. Silent loss or
//     wrong bytes fail the run.
func RunErase(seed int64) (RunStats, error) {
	const shards = 4
	rs := RunStats{Seed: seed, Shards: shards}
	cfg := tortureCfg()
	cfg.ParityGroup = shards // one group: any single member is recoverable
	rng := rand.New(rand.NewSource(seed))
	r := pmem.New(core.ShardedRegionSize(cfg, shards), calib.Off())
	ss, err := core.OpenSharded(r, cfg, shards)
	if err != nil {
		return rs, err
	}

	model := make(map[string][]byte)
	var keys []string
	perShard := make([][]string, shards)
	for i := 0; i < 32; i++ {
		k := fmt.Sprintf("key-%03d", i)
		v := make([]byte, 1+rng.Intn(360))
		rng.Read(v)
		if err := ss.Put([]byte(k), v); err != nil {
			return rs, err
		}
		model[k] = v
		keys = append(keys, k)
		sh := core.ShardOf([]byte(k), shards)
		perShard[sh] = append(perShard[sh], k)
	}

	// Victims must actually hold records, or the flavor degenerates (an
	// empty member's data area carries no information to lose).
	victim := rng.Intn(shards)
	for len(perShard[victim]) == 0 {
		victim = (victim + 1) % shards
	}
	twoLoss := seed%2 == 1
	victim2 := -1
	if twoLoss {
		victim2 = (victim + 1 + rng.Intn(shards-1)) % shards
		for victim2 == victim || len(perShard[victim2]) == 0 {
			victim2 = (victim2 + 1) % shards
		}
	}
	lost := func(sh int) bool { return sh == victim || sh == victim2 }

	// Concurrent traffic over keys on undamaged shards: those must serve
	// exact bytes through the entire heal, no exceptions.
	var safe []string
	for _, k := range keys {
		if !lost(core.ShardOf([]byte(k), shards)) {
			safe = append(safe, k)
		}
	}
	type trafficReport struct {
		ops, errs int64
		err       error
	}
	stop := make(chan struct{})
	trafficDone := make(chan trafficReport, 1)
	go func() {
		rng2 := rand.New(rand.NewSource(seed ^ 0x51ab))
		var ops int64
		for {
			select {
			case <-stop:
				trafficDone <- trafficReport{ops: ops}
				return
			default:
			}
			k := safe[rng2.Intn(len(safe))]
			v, ok, err := ss.Get([]byte(k))
			ops++
			if err != nil {
				trafficDone <- trafficReport{ops: ops,
					err: fmt.Errorf("traffic Get(%q) during erase heal: %v", k, err)}
				return
			}
			if !ok || !bytes.Equal(v, model[k]) {
				trafficDone <- trafficReport{ops: ops,
					err: fmt.Errorf("traffic Get(%q) served wrong bytes during erase heal", k)}
				return
			}
		}
	}()
	finishTraffic := func() error {
		close(stop)
		rep := <-trafficDone
		rs.TrafficOps, rs.TrafficErrs = rep.ops, rep.errs
		return rep.err
	}

	h := kvserver.NewHealer(ss, kvserver.HealConfig{
		ScrubInterval:  500 * time.Microsecond,
		ScrubSlots:     64,
		RebuildBackoff: time.Millisecond,
	})
	if twoLoss {
		// Both members are gone before the supervisor can act. With the
		// healer already running, its scrubber can repair the first victim
		// in place in the gap between the two erasures (each waits for
		// every range lock, which the traffic goroutine's reads contend
		// for), and the run degenerates into two single losses.
		ss.EraseDataArea(victim)
		ss.EraseDataArea(victim2)
	}
	go h.Run()
	defer h.Close()

	const healDeadline = 15 * time.Second
	waitHeal := func(what string, cond func() bool) error {
		deadline := time.Now().Add(healDeadline)
		for time.Now().Before(deadline) {
			if cond() {
				return nil
			}
			time.Sleep(time.Millisecond)
		}
		return fmt.Errorf("erase heal timed out waiting for %s", what)
	}

	switch {
	case twoLoss:
		ss.Quarantine(victim, fmt.Errorf("fault: data area lost"))
		ss.Quarantine(victim2, fmt.Errorf("fault: data area lost"))
		// The healer keeps attempting rebuilds; each must fail typed — two
		// members of one group lost the same stripes.
		if err := waitHeal("typed unrecoverable verdict", func() bool {
			health := ss.Health()
			return errors.Is(health[victim], core.ErrUnrecoverable) &&
				errors.Is(health[victim2], core.ErrUnrecoverable)
		}); err != nil {
			finishTraffic()
			return rs, err
		}
		if err := finishTraffic(); err != nil {
			return rs, err
		}
		for _, k := range keys {
			v, ok, gerr := ss.Get([]byte(k))
			if lost(core.ShardOf([]byte(k), shards)) {
				if !errors.Is(gerr, core.ErrShardDown) {
					return rs, fmt.Errorf("key %q beyond redundancy: want ErrShardDown, got ok=%v err=%v", k, ok, gerr)
				}
				continue
			}
			if gerr != nil || !ok || !bytes.Equal(v, model[k]) {
				return rs, fmt.Errorf("surviving key %q: ok=%v err=%v", k, ok, gerr)
			}
		}
		rs.ShardsDown = ss.DownShards()
		if rs.ShardsDown != 2 {
			return rs, fmt.Errorf("want exactly the 2 lost shards down, got %d", rs.ShardsDown)
		}

	case seed%4 == 0:
		// Operator path: the loss is reported; rebuild reconstructs.
		ss.EraseDataArea(victim)
		ss.Quarantine(victim, fmt.Errorf("fault: data area lost"))
		if err := waitHeal("reconstruction rejoin", func() bool {
			return h.Stats().Rebuilds > 0 && ss.ShardErr(victim) == nil
		}); err != nil {
			finishTraffic()
			return rs, err
		}
		if err := finishTraffic(); err != nil {
			return rs, err
		}
		st := h.Stats()
		if len(st.Rejoins) == 0 {
			return rs, errors.New("healer recorded no time-to-rejoin sample")
		}
		rs.RejoinNs = st.Rejoins[0].Nanoseconds()
		rs.RecoveryNs = rs.RejoinNs

	default:
		// Detection path: nothing is told; the scrubber must find and
		// repair the loss (in place or via quarantine + rebuild).
		ss.EraseDataArea(victim)
		if err := waitHeal("scrub-driven repair", func() bool {
			if ss.ShardErr(victim) != nil {
				return false // quarantined: the rebuild path is still working
			}
			for _, k := range perShard[victim] {
				v, ok, gerr := ss.Get([]byte(k))
				if gerr != nil || !ok || !bytes.Equal(v, model[k]) {
					return false
				}
			}
			return true
		}); err != nil {
			finishTraffic()
			return rs, err
		}
		if err := finishTraffic(); err != nil {
			return rs, err
		}
	}

	if !twoLoss {
		// Zero acked-write loss, victim included, and an intact group.
		for _, k := range keys {
			v, ok, gerr := ss.Get([]byte(k))
			if gerr != nil || !ok || !bytes.Equal(v, model[k]) {
				return rs, fmt.Errorf("acked key %q lost across erase heal: ok=%v err=%v", k, ok, gerr)
			}
		}
		rs.Reconstructions = ss.Stats().Reconstructions
		if rs.Reconstructions == 0 {
			return rs, errors.New("erase healed without a single parity reconstruction")
		}
		if err := ss.VerifyParity(); err != nil {
			return rs, fmt.Errorf("parity group inconsistent after heal: %v", err)
		}
		rs.ShardsDown = ss.DownShards()
		if rs.ShardsDown != 0 {
			return rs, fmt.Errorf("%d shards still down after erase heal", rs.ShardsDown)
		}
	}
	rs.Records = ss.Len()
	return rs, nil
}
