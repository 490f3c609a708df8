package bench

import (
	"bytes"
	"testing"
	"time"

	"packetstore/internal/calib"
)

// The harness smoke tests run with the "off" profile and small request
// counts: they validate plumbing and invariants, not absolute numbers
// (cmd/pktbench with the "paper" profile produces those).

func TestTable1Smoke(t *testing.T) {
	res, err := RunTable1(calib.Off(), 200)
	if err != nil {
		t.Fatal(err)
	}
	if res.NetworkingRTT <= 0 || res.TotalRTT <= 0 {
		t.Fatalf("bad RTTs: %+v", res)
	}
	// Under calib.Off nothing models full-stack RTT > discard RTT, so the
	// ordering is logged, not asserted (pktbench table1 under the paper
	// profile is where it is measured). What must hold on any host: the
	// full-stack rung persisted what it acknowledged.
	t.Logf("RTT: discard %v, full stack %v", res.NetworkingRTT, res.TotalRTT)
	if res.LinesFlushed == 0 {
		t.Fatalf("full-stack rung flushed no PM lines: %+v", res)
	}
	if res.RequestPrep <= 0 || res.Checksum <= 0 || res.DataCopy <= 0 || res.AllocInsert <= 0 {
		t.Fatalf("breakdown rows missing: %+v", res)
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !bytes.Contains(buf.Bytes(), []byte("Checksum calculation")) {
		t.Fatal("print output missing rows")
	}
}

func TestTable2Smoke(t *testing.T) {
	res, err := RunTable2(calib.Off(), 200)
	if err != nil {
		t.Fatal(err)
	}
	if res.ZeroCopyPuts == 0 || res.ChecksumReused == 0 {
		t.Fatalf("zero-copy machinery not engaged: %+v", res)
	}
	if res.DataCopy != 0 {
		t.Fatalf("zero-copy path copied data: %v", res.DataCopy)
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if buf.Len() == 0 {
		t.Fatal("empty print")
	}
}

func TestFigure2Smoke(t *testing.T) {
	res, err := RunFigure2(calib.Off(), []int{1, 4}, 150*time.Millisecond, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 3 {
		t.Fatalf("%d series", len(res.Series))
	}
	for _, s := range res.Series {
		if len(s.Throughput) != 2 {
			t.Fatalf("series %s has %d points", s.Name, len(s.Throughput))
		}
		for i, tput := range s.Throughput {
			if tput <= 0 {
				t.Fatalf("series %s point %d: zero throughput", s.Name, i)
			}
		}
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !bytes.Contains(buf.Bytes(), []byte("Throughput")) {
		t.Fatal("print output missing panels")
	}
}

func TestAblationSmoke(t *testing.T) {
	res, err := RunAblation(calib.Off(), 200)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	full, noReuse, noZC := res.Rows[0], res.Rows[1], res.Rows[2]
	// Disabling checksum reuse must show software checksum time the full
	// configuration does not have.
	if noReuse.Checksum <= full.Checksum {
		t.Fatalf("checksum ablation invisible: full=%v off=%v", full.Checksum, noReuse.Checksum)
	}
	// Disabling zero-copy must show copy time.
	if noZC.DataCopy <= full.DataCopy {
		t.Fatalf("zero-copy ablation invisible: full=%v off=%v", full.DataCopy, noZC.DataCopy)
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if buf.Len() == 0 {
		t.Fatal("empty print")
	}
}

func TestScalingSmoke(t *testing.T) {
	res, err := RunScaling(calib.Off(), []int{1, 2}, []int{4}, 150*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("%d points", len(res.Points))
	}
	for _, p := range res.Points {
		if p.Throughput <= 0 {
			t.Fatalf("zero throughput at %d shards", p.Shards)
		}
		if p.Puts == 0 || p.ZeroCopyPuts != p.Puts {
			// Aligned load means every PUT must take the zero-copy path,
			// at every shard count — the hash-alignment invariant.
			t.Fatalf("%d shards: %d/%d PUTs zero-copy", p.Shards, p.ZeroCopyPuts, p.Puts)
		}
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !bytes.Contains(buf.Bytes(), []byte("Speedup")) {
		t.Fatal("print output missing speedups")
	}
}

func TestRecoverySmoke(t *testing.T) {
	res, err := RunRecovery(calib.Off(), []int{500, 2000})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 || res.Points[0].RecoverTime <= 0 {
		t.Fatalf("%+v", res)
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if buf.Len() == 0 {
		t.Fatal("empty print")
	}
}

func TestMetaSizeSmoke(t *testing.T) {
	res, err := RunMetaSize(calib.Off(), 150, []int{128, 256})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 || res.Points[0].PutRTT <= 0 || res.Points[0].GetRTT <= 0 {
		t.Fatalf("%+v", res)
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if buf.Len() == 0 {
		t.Fatal("empty print")
	}
}
