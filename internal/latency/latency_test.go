package latency

import (
	"testing"
	"time"
)

func TestSpinZero(t *testing.T) {
	start := time.Now()
	Spin(0)
	if e := time.Since(start); e > time.Millisecond {
		t.Fatalf("Spin(0) took %v, want ~0", e)
	}
}

func TestSpinBelowMinIsNoop(t *testing.T) {
	before := TotalSpun()
	Spin(minSpin - 1)
	if TotalSpun() != before {
		t.Fatalf("sub-threshold spin charged time")
	}
}

// TestSpinDuration: a spin never returns before d, for both primitives,
// down to the 30ns and 120ns a lone PM fence or two-line store charges
// and up to a multi-line write-back paid at one fence.
func TestSpinDuration(t *testing.T) {
	for _, spin := range []struct {
		name string
		fn   func(time.Duration)
	}{{"Spin", Spin}, {"SpinHot", SpinHot}} {
		for _, d := range []time.Duration{
			30 * time.Nanosecond, 120 * time.Nanosecond, 2400 * time.Nanosecond,
			time.Microsecond, 10 * time.Microsecond, 100 * time.Microsecond,
		} {
			start := time.Now()
			spin.fn(d)
			e := time.Since(start)
			if e < d {
				t.Errorf("%s(%v) returned after %v, want >= %v", spin.name, d, e, d)
			}
			// Allow generous slack for scheduler preemption, but catch
			// gross overshoot (e.g. accidentally sleeping).
			if e > d*20+time.Millisecond {
				t.Errorf("%s(%v) took %v, way over budget", spin.name, d, e)
			}
		}
	}
}

// TestSpinFromCountsElapsed: a spin timed from an earlier reading never
// returns before d has passed since it, and returns at once when d
// already has — the work done since counts toward the wait.
func TestSpinFromCountsElapsed(t *testing.T) {
	for _, spin := range []struct {
		name string
		fn   func(start, d time.Duration)
	}{{"SpinFrom", SpinFrom}, {"SpinHotFrom", SpinHotFrom}} {
		for _, d := range []time.Duration{30 * time.Nanosecond, 2400 * time.Nanosecond, 100 * time.Microsecond} {
			start := Now()
			spin.fn(start, d)
			if e := Now() - start; e < d {
				t.Errorf("%s(start, %v) returned %v after start", spin.name, d, e)
			}
		}
		t0 := time.Now()
		spin.fn(Now()-time.Second, 100*time.Millisecond)
		if e := time.Since(t0); e > 50*time.Millisecond {
			t.Errorf("%s with the wait already elapsed took %v", spin.name, e)
		}
	}
}

func TestTotalSpunAccumulates(t *testing.T) {
	ResetTotalSpun()
	Spin(time.Microsecond)
	Spin(2 * time.Microsecond)
	if got := TotalSpun(); got != 3*time.Microsecond {
		t.Fatalf("TotalSpun = %v, want 3µs", got)
	}
	ResetTotalSpun()
	if TotalSpun() != 0 {
		t.Fatalf("ResetTotalSpun did not zero the counter")
	}
}

func BenchmarkSpin1us(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Spin(time.Microsecond)
	}
}

// BenchmarkSpinHot30ns times the shortest modelled stall, a lone fence:
// what it costs above 30ns is the clock reads.
func BenchmarkSpinHot30ns(b *testing.B) {
	for i := 0; i < b.N; i++ {
		SpinHot(30 * time.Nanosecond)
	}
}
