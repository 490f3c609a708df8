package checksum

import (
	"bytes"
	"hash/crc32"
	"math/rand"
	"testing"
	"testing/quick"
)

// refChecksum is a direct, obviously-correct RFC 1071 implementation used
// as the oracle for the optimized code.
func refChecksum(b []byte) uint16 {
	var sum uint64
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint64(b[i])<<8 | uint64(b[i+1])
	}
	if len(b)%2 == 1 {
		sum += uint64(b[len(b)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + (sum >> 16)
	}
	return ^uint16(sum)
}

func TestChecksumKnownVectors(t *testing.T) {
	// RFC 1071 worked example: 0x0001, 0xf203, 0xf4f5, 0xf6f7 sums to
	// 0xddf2 (before complement).
	b := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Fold(Partial(0, b)); got != 0xddf2 {
		t.Errorf("Fold(Partial) = %#04x, want 0xddf2", got)
	}
	if got := Checksum(b); got != ^uint16(0xddf2) {
		t.Errorf("Checksum = %#04x, want %#04x", got, ^uint16(0xddf2))
	}
	if got, want := Checksum(nil), ^uint16(0); got != want {
		t.Errorf("Checksum(nil) = %#04x, want %#04x", got, want)
	}
}

func TestChecksumMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(2000)
		b := make([]byte, n)
		rng.Read(b)
		if got, want := Checksum(b), refChecksum(b); got != want {
			t.Fatalf("len=%d: Checksum=%#04x want %#04x", n, got, want)
		}
	}
}

func TestChecksumQuick(t *testing.T) {
	f := func(b []byte) bool { return Checksum(b) == refChecksum(b) }
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestCombineSplitInvariant(t *testing.T) {
	// Splitting data at any even boundary and combining partial sums must
	// equal the whole-buffer sum.
	f := func(b []byte, splitRaw uint16) bool {
		if len(b) < 2 {
			return true
		}
		split := int(splitRaw) % len(b)
		split &^= 1 // even boundary
		whole := Fold(Partial(0, b))
		combined := Fold(Combine(Partial(0, b[:split]), Partial(0, b[split:])))
		return whole == combined
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestCombineOdd(t *testing.T) {
	f := func(b []byte, splitRaw uint16) bool {
		if len(b) < 3 {
			return true
		}
		split := int(splitRaw)%(len(b)-1) | 1 // odd boundary
		whole := Fold(Partial(0, b))
		combined := Fold(CombineOdd(Partial(0, b[:split]), Partial(0, b[split:])))
		return whole == combined
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSubtractPeelsPrefix(t *testing.T) {
	// sum(b) - sum(prefix) == sum(suffix) for even-length prefixes: the
	// exact operation used to peel HTTP headers off a NIC payload sum.
	// Ones-complement subtraction can produce negative zero (0xffff)
	// where direct accumulation produces +0, so the comparison must be
	// through Norm16 — as every production consumer compares.
	f := func(b []byte, cutRaw uint16) bool {
		if len(b) < 2 {
			return true
		}
		cut := int(cutRaw) % len(b)
		cut &^= 1
		whole := Partial(0, b)
		peeled := Subtract(whole, Partial(0, b[:cut]))
		return Norm16(Fold(peeled)) == Norm16(Fold(Partial(0, b[cut:])))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestAccumulatorArbitraryPieces(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(1500)
		b := make([]byte, n)
		rng.Read(b)
		var acc Accumulator
		rest := b
		for len(rest) > 0 {
			k := 1 + rng.Intn(len(rest))
			acc.Add(rest[:k])
			rest = rest[k:]
		}
		if got, want := acc.Sum16(), Fold(Partial(0, b)); got != want {
			t.Fatalf("trial %d len %d: acc=%#04x want %#04x", trial, n, got, want)
		}
	}
}

func TestAccumulatorAddPartial(t *testing.T) {
	b := []byte("the quick brown fox jumps over the lazy dog????")
	var acc Accumulator
	acc.Add(b[:10])
	if !acc.AddPartial(Partial(0, b[10:31]), 21) {
		t.Fatal("AddPartial rejected at even offset")
	}
	// Offset is now odd (10+21=31): AddPartial must refuse.
	if acc.AddPartial(Partial(0, b[31:]), len(b)-31) {
		t.Fatal("AddPartial accepted at odd offset")
	}
	acc.Add(b[31:])
	if got, want := acc.Sum16(), Fold(Partial(0, b)); got != want {
		t.Fatalf("got %#04x want %#04x", got, want)
	}
	acc.Reset()
	if acc.Sum() != 0 {
		t.Fatal("Reset did not clear")
	}
}

func TestUpdateUint16(t *testing.T) {
	f := func(b []byte, idxRaw uint16, newVal uint16) bool {
		if len(b) < 2 {
			return true
		}
		idx := int(idxRaw) % (len(b) - 1)
		idx &^= 1
		old := Checksum(b)
		oldVal := uint16(b[idx])<<8 | uint16(b[idx+1])
		nb := bytes.Clone(b)
		nb[idx], nb[idx+1] = byte(newVal>>8), byte(newVal)
		return UpdateUint16(old, oldVal, newVal) == Checksum(nb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPseudoHeaderSum(t *testing.T) {
	src := [4]byte{10, 0, 0, 1}
	dst := [4]byte{10, 0, 0, 2}
	// Reference: build the 12-byte pseudo header and sum it.
	ph := []byte{10, 0, 0, 1, 10, 0, 0, 2, 0, 6, 0x12, 0x34}
	want := Fold(Partial(0, ph))
	if got := Fold(PseudoHeaderSum(src, dst, 6, 0x1234)); got != want {
		t.Fatalf("got %#04x want %#04x", got, want)
	}
}

func TestCRC32CAgainstStdlib(t *testing.T) {
	table := crc32.MakeTable(crc32.Castagnoli)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		b := make([]byte, rng.Intn(4096))
		rng.Read(b)
		want := crc32.Checksum(b, table)
		if got := CRC32C(b); got != want {
			t.Fatalf("CRC32C mismatch len=%d: got %#08x want %#08x", len(b), got, want)
		}
		if got := CRC32CFast(b); got != want {
			t.Fatalf("CRC32CFast mismatch len=%d: got %#08x want %#08x", len(b), got, want)
		}
	}
}

func TestCRC32CIncremental(t *testing.T) {
	f := func(a, b []byte) bool {
		whole := CRC32C(append(bytes.Clone(a), b...))
		inc := UpdateCRC32C(CRC32C(a), b)
		incFast := UpdateCRC32CFast(CRC32CFast(a), b)
		return whole == inc && whole == incFast
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMaskRoundTrip(t *testing.T) {
	f := func(crc uint32) bool {
		m := Mask(crc)
		return Unmask(m) == crc && m != crc
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
	// Known LevelDB property: masking is not idempotent.
	if Mask(Mask(0x12345678)) == Mask(0x12345678) {
		t.Fatal("double mask equals single mask")
	}
}

func BenchmarkChecksum1K(b *testing.B) {
	buf := make([]byte, 1024)
	rand.New(rand.NewSource(1)).Read(buf)
	b.SetBytes(1024)
	for i := 0; i < b.N; i++ {
		Checksum(buf)
	}
}

func BenchmarkCRC32C1K(b *testing.B) {
	buf := make([]byte, 1024)
	rand.New(rand.NewSource(1)).Read(buf)
	b.SetBytes(1024)
	for i := 0; i < b.N; i++ {
		CRC32C(buf)
	}
}

func BenchmarkCRC32CFast1K(b *testing.B) {
	buf := make([]byte, 1024)
	rand.New(rand.NewSource(1)).Read(buf)
	b.SetBytes(1024)
	for i := 0; i < b.N; i++ {
		CRC32CFast(buf)
	}
}

// partialWords16 is the previous Partial kernel, kept as the oracle of the
// 64-bit one: it adds 16-bit big-endian words and folds opportunistically
// every 8 bytes. It is exact while its 32-bit accumulator does not wrap,
// which holds for a zero starting sum and buffers far beyond 4 KiB, and
// for starting sums below 0xf0000000 at the lengths tested here.
func partialWords16(sum uint32, b []byte) uint32 {
	n := len(b)
	i := 0
	for ; i+8 <= n; i += 8 {
		sum += uint32(b[i])<<8 | uint32(b[i+1])
		sum += uint32(b[i+2])<<8 | uint32(b[i+3])
		sum += uint32(b[i+4])<<8 | uint32(b[i+5])
		sum += uint32(b[i+6])<<8 | uint32(b[i+7])
		if sum >= 0xffff0000 {
			sum = (sum & 0xffff) + (sum >> 16)
		}
	}
	for ; i+2 <= n; i += 2 {
		sum += uint32(b[i])<<8 | uint32(b[i+1])
	}
	if i < n {
		sum += uint32(b[i]) << 8
	}
	return sum
}

func TestPartialMatchesWords16Kernel(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	fill := func(b []byte) {
		switch rng.Intn(4) {
		case 0:
			rng.Read(b)
		case 1: // all ones: the carry-heaviest input
			for i := range b {
				b[i] = 0xff
			}
		case 2: // all zeros: the one input whose sum is +0
			clear(b)
		default:
			rng.Read(b)
			for i := range b {
				b[i] |= 0xf0
			}
		}
	}
	for trial := 0; trial < 5000; trial++ {
		n := rng.Intn(4097)
		if trial%2 == 1 {
			n |= 1 // odd lengths on every other trial
		}
		b := make([]byte, n)
		fill(b)
		// Exact fold equality (not just Norm16): both kernels give +0
		// only for an all-zero input and agree mod 0xffff otherwise.
		if got, want := Fold(Partial(0, b)), Fold(partialWords16(0, b)); got != want {
			t.Fatalf("len %d: Fold(Partial)=%#04x, 16-bit kernel %#04x", n, got, want)
		}
		// Any starting sum, including ones the 16-bit kernel would wrap.
		start := rng.Uint32()
		if got, want := Fold(Partial(start, b)), Fold(Combine(start, partialWords16(0, b))); got != want {
			t.Fatalf("len %d start %#08x: Fold(Partial)=%#04x want %#04x", n, start, got, want)
		}
		if low := start >> 4; Fold(Partial(low, b)) != Fold(partialWords16(low, b)) {
			t.Fatalf("len %d start %#08x: kernels disagree", n, low)
		}

		if n < 2 {
			continue
		}
		// Through the algebra built on Partial: odd-offset combine,
		// prefix subtraction and piecewise accumulation.
		cut := 1 + rng.Intn(n-1)
		odd := cut | 1
		if odd >= n {
			odd = n - 1
		}
		if odd%2 == 1 {
			got := Fold(CombineOdd(Partial(0, b[:odd]), Partial(0, b[odd:])))
			want := Fold(CombineOdd(partialWords16(0, b[:odd]), partialWords16(0, b[odd:])))
			if got != want {
				t.Fatalf("len %d: CombineOdd at %d: %#04x want %#04x", n, odd, got, want)
			}
		}
		even := cut &^ 1
		got := Norm16(Fold(Subtract(Partial(0, b), Partial(0, b[:even]))))
		want := Norm16(Fold(Subtract(partialWords16(0, b), partialWords16(0, b[:even]))))
		if got != want || got != Norm16(Fold(partialWords16(0, b[even:]))) {
			t.Fatalf("len %d: Subtract prefix %d: %#04x want %#04x", n, even, got, want)
		}
		var acc Accumulator
		for rest := b; len(rest) > 0; {
			k := 1 + rng.Intn(len(rest))
			acc.Add(rest[:k])
			rest = rest[k:]
		}
		if acc.Sum16() != Fold(partialWords16(0, b)) {
			t.Fatalf("len %d: Accumulator %#04x want %#04x", n, acc.Sum16(), Fold(partialWords16(0, b)))
		}
	}
}

func BenchmarkPartial1KWords16(b *testing.B) {
	buf := make([]byte, 1024)
	rand.New(rand.NewSource(1)).Read(buf)
	b.SetBytes(1024)
	for i := 0; i < b.N; i++ {
		partialWords16(0, buf)
	}
}
