package bench

import (
	"strings"
	"testing"
	"time"

	"packetstore/internal/calib"
)

// TestSurgeSmoke is the CI gate on overload control: at 2x capacity
// with control on, the server must shed measurably (doomed-work drops
// or client-side lapses) while goodput holds a floor relative to the
// sweep's peak. Short mode shrinks the sweep to
// the 1x and 2x control-on points plus the 2x baseline.
func TestSurgeSmoke(t *testing.T) {
	prof := calib.Off()
	shards, conns := 2, 16
	dur := 400 * time.Millisecond
	factors := []float64{1, 2}
	if testing.Short() {
		dur = 250 * time.Millisecond
	}
	res, err := RunSurge(prof, shards, conns, dur, factors)
	if err != nil {
		t.Fatal(err)
	}
	if res.CapacityRps <= 0 || res.Budget <= 0 {
		t.Fatalf("calibration failed: %+v", res)
	}
	p2 := res.point(2, true)
	if p2 == nil || p2.Offered == 0 {
		t.Fatalf("no 2x control point: %+v", res.Points)
	}
	if p2.Shed+p2.ClientDrops+p2.SrvExpired == 0 {
		t.Fatalf("2x overload shed nothing: %+v", *p2)
	}
	// Goodput floor: the controller must keep a usable fraction of peak
	// at 2x. Full mode only — short mode runs under -race in CI, whose
	// ~10x slowdown makes the calibrated capacity stale by sweep time, so
	// performance ratios are not assertable there (the mechanism
	// assertions above still are).
	if !testing.Short() {
		if frac := res.GoodputFraction(2, true); frac < 0.5 {
			t.Fatalf("2x goodput %.0f%% of peak, want >= 50%%", frac*100)
		}
	}
	// Containment: the surplus clients must have tripped breakers, and
	// the server's healthz must show the accept-cap sheds that tripped
	// them.
	c := res.Containment
	if c.BreakerOpens == 0 {
		t.Fatalf("no breaker opens in containment phase: %+v", c)
	}
	if c.HealthOverload == nil || c.HealthOverload.Sheds == 0 {
		t.Fatalf("healthz overload section shows no accept-cap sheds: %+v", c)
	}
	var sb strings.Builder
	res.Print(&sb)
	if sb.Len() == 0 {
		t.Fatal("empty Print")
	}
}
