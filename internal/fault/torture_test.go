package fault

import (
	"testing"
)

// tortureBase keeps CI runs on a fixed, known-good seed range; the
// pktbench experiment can sweep arbitrary ranges.
const tortureBase = int64(1000)

// seeds returns the per-mode run count: a fixed subset in -short mode
// (CI), the full sweep otherwise.
func seeds(t *testing.T, short, full int) int {
	t.Helper()
	if testing.Short() {
		return short
	}
	return full
}

// TestTortureCrash is the headline crash-consistency sweep: 200+ seeds
// in full mode, alternating single-shard and sharded stores, each run
// cutting power at a seed-chosen persist operation (half with a torn
// cache line) and model-checking recovery.
func TestTortureCrash(t *testing.T) {
	n := seeds(t, 24, 208)
	for i := 0; i < n; i++ {
		shards := 1
		if i%2 == 1 {
			shards = 4
		}
		rs, err := RunCrash(tortureBase+int64(i), shards)
		if err != nil {
			t.Fatalf("seed %d (shards %d, cut %d/%d tear %d): %v",
				rs.Seed, shards, rs.CutAt, rs.PersistOps, rs.TearBytes, err)
		}
	}
}

// TestTortureDroppedFence is the strictness sweep: a fence dropped in one
// shard while the others keep committing must be caught by the crash
// sweep — on at least one seed the acked key is gone — and must never
// damage a fenced key.
func TestTortureDroppedFence(t *testing.T) {
	n := seeds(t, 16, 64)
	caught := 0
	for i := 0; i < n; i++ {
		c, err := RunDropFence(tortureBase + int64(i))
		if err != nil {
			t.Fatalf("seed %d: %v", tortureBase+int64(i), err)
		}
		if c {
			caught++
		}
	}
	if caught == 0 {
		t.Fatalf("a fence dropped in one shard went unseen over %d crash seeds: a neighbour's fence retired its lines", n)
	}
	t.Logf("dropped fence caught on %d of %d seeds", caught, n)
}

// TestTortureCorrupt flips random media bits and requires detection:
// reads return correct bytes, a miss, or an error — never wrong data.
func TestTortureCorrupt(t *testing.T) {
	n := seeds(t, 8, 64)
	for i := 0; i < n; i++ {
		rs, err := RunCorrupt(tortureBase + int64(i))
		if err != nil {
			t.Fatalf("seed %d (quarantined %d, detected %d): %v",
				rs.Seed, rs.SlotsQuarantined, rs.Detected, err)
		}
	}
}

// TestTortureShard destroys one shard's metadata and requires graceful
// degradation: that shard quarantined, every other key still served.
func TestTortureShard(t *testing.T) {
	n := seeds(t, 4, 32)
	for i := 0; i < n; i++ {
		rs, err := RunShard(tortureBase + int64(i))
		if err != nil {
			t.Fatalf("seed %d: %v", rs.Seed, err)
		}
	}
}

// TestTortureNet drives the store through a lossy, reordering,
// duplicating, bit-flipping wire: acked puts must be exactly durable.
func TestTortureNet(t *testing.T) {
	n := seeds(t, 2, 8)
	for i := 0; i < n; i++ {
		rs, err := RunNet(tortureBase + int64(i))
		if err != nil {
			t.Fatalf("seed %d (acked %d): %v", rs.Seed, rs.AckedOps, err)
		}
	}
}

// TestTortureErase destroys whole data areas under cross-shard parity:
// single-member loss must heal with zero acked-write loss and an intact
// parity group (operator-reported on seed%4==0, scrub-discovered on
// other even seeds); two-member loss (odd seeds) must surface as typed
// ErrUnrecoverable — never silent misses or wrong bytes.
func TestTortureErase(t *testing.T) {
	n := seeds(t, 6, 208)
	for i := 0; i < n; i++ {
		rs, err := RunErase(tortureBase + int64(i))
		if err != nil {
			t.Fatalf("seed %d (reconstructed %d, rejoin %dns, traffic %d): %v",
				rs.Seed, rs.Reconstructions, rs.RejoinNs, rs.TrafficOps, err)
		}
	}
}

// TestTortureHeal injects shard loss (even seeds) and latent bit flips
// (odd seeds) into a live store under traffic: the healer must rebuild
// and rejoin every quarantined shard with the acked prefix intact, and
// the scrubber must find every injected flip.
func TestTortureHeal(t *testing.T) {
	n := seeds(t, 6, 32)
	for i := 0; i < n; i++ {
		rs, err := RunHeal(tortureBase + int64(i))
		if err != nil {
			t.Fatalf("seed %d (detected %d, rejoin %dns, traffic %d/%d): %v",
				rs.Seed, rs.Detected, rs.RejoinNs, rs.TrafficErrs, rs.TrafficOps, err)
		}
	}
}
