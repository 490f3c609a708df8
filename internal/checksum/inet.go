// Package checksum implements the two checksum families used across the
// network and storage stacks.
//
// The Internet checksum (RFC 1071) is the 16-bit ones-complement sum used
// by IPv4, TCP and UDP. Its key algebraic properties — partial sums combine
// additively, and single-word updates can be applied incrementally
// (RFC 1624) — are exactly what lets the packetstore reuse NIC-computed
// sums as storage integrity metadata without ever re-reading the payload:
// the sum over a byte range can be derived by combining per-segment sums
// and subtracting the sums of the few bytes outside the range.
//
// CRC32C (Castagnoli) is the checksum LevelDB and most storage systems use
// for on-media integrity. It is implemented here in pure table-driven Go
// (no SSE4.2 acceleration) because the baseline's checksum cost is one of
// the overheads the paper measures: the paper's 1.77µs per 1KB implies a
// software implementation at roughly 0.6 GB/s, which table-driven Go
// matches far better than a hardware CRC instruction would. The Internet
// checksum has no such role: on the testbed the NIC computes it, so the
// software kernel below (used where offload is off, and on the store's copy
// path) sums eight bytes per add rather than two.
package checksum

import (
	"encoding/binary"
	"math/bits"
)

// Partial extends an unfolded Internet-checksum partial sum with the bytes
// of b. The sum argument and result are 32-bit accumulators that have not
// yet been folded to 16 bits; fold with Fold. Partial assumes b starts at
// an even byte offset of the covered data; when accumulating a range in
// pieces, use Accumulator, which tracks byte parity across pieces.
//
// The kernel adds 64-bit big-endian words with end-around carry. Because
// 2^16 ≡ 1 (mod 0xffff), a 64-bit word is congruent to the sum of its four
// 16-bit words, and the carry out of bit 63 re-enters at bit 0 for the same
// reason, so the folded result equals the 16-bit word sum of RFC 1071. The
// unfolded value is an accumulator, not a canonical sum: compare sums only
// after Fold (and Norm16 across derivations).
func Partial(sum uint32, b []byte) uint32 {
	s, c := uint64(sum), uint64(0)
	for ; len(b) >= 32; b = b[32:] {
		s, c = bits.Add64(s, binary.BigEndian.Uint64(b), c)
		s, c = bits.Add64(s, binary.BigEndian.Uint64(b[8:]), c)
		s, c = bits.Add64(s, binary.BigEndian.Uint64(b[16:]), c)
		s, c = bits.Add64(s, binary.BigEndian.Uint64(b[24:]), c)
	}
	for ; len(b) >= 8; b = b[8:] {
		s, c = bits.Add64(s, binary.BigEndian.Uint64(b), c)
	}
	for ; len(b) >= 2; b = b[2:] {
		s, c = bits.Add64(s, uint64(b[0])<<8|uint64(b[1]), c)
	}
	if len(b) == 1 {
		s, c = bits.Add64(s, uint64(b[0])<<8, c)
	}
	// Fold the last carry in, then 64 bits to 32, each with end-around
	// carry; neither final increment can overflow again.
	s, c = bits.Add64(s, 0, c)
	s += c
	r, c32 := bits.Add32(uint32(s), uint32(s>>32), 0)
	return r + c32
}

// Fold reduces an unfolded partial sum to the final 16-bit ones-complement
// sum (without complementing; the wire checksum field is ^Fold(sum)).
func Fold(sum uint32) uint16 {
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + (sum >> 16)
	}
	return uint16(sum)
}

// Checksum computes the folded, complemented Internet checksum of b, as it
// would appear in a protocol checksum field covering exactly b.
func Checksum(b []byte) uint16 { return ^Fold(Partial(0, b)) }

// Combine merges two unfolded partial sums where b covers bytes that begin
// at an even offset relative to the start of a's coverage. Because the
// ones-complement sum is position-independent apart from byte parity,
// Combine is a single end-around addition.
func Combine(a, b uint32) uint32 {
	s := uint64(a) + uint64(b)
	return uint32(s&0xffffffff) + uint32(s>>32)
}

// CombineOdd merges partial sum b into a when b's coverage begins at an odd
// byte offset relative to a's start: every byte of b is swapped within its
// 16-bit word before adding.
func CombineOdd(a, b uint32) uint32 {
	f := Fold(b)
	return Combine(a, uint32(f<<8|f>>8))
}

// Subtract removes partial sum b (covering an even-offset, even-parity
// range) from a, yielding the partial sum of the remaining bytes. This is
// the operation the packetstore uses to peel protocol/application headers
// off a NIC-provided whole-payload sum.
func Subtract(a, b uint32) uint32 {
	// Ones-complement subtraction: add the complement.
	return Combine(a, uint32(^Fold(b)))
}

// UpdateUint16 incrementally updates folded checksum old (the complemented
// wire value) when a 16-bit word of the covered data changes from oldVal
// to newVal, per RFC 1624 (eqn. 3): HC' = ~(~HC + ~m + m').
func UpdateUint16(old uint16, oldVal, newVal uint16) uint16 {
	sum := uint32(^old&0xffff) + uint32(^oldVal&0xffff) + uint32(newVal)
	return ^Fold(sum)
}

// Accumulator incrementally builds an Internet-checksum partial sum over a
// byte range delivered in arbitrary-length pieces, tracking byte parity so
// odd-length pieces are handled correctly.
type Accumulator struct {
	sum uint32
	odd bool // next byte lands in the low half of its 16-bit word
}

// Add appends b to the accumulated range.
func (a *Accumulator) Add(b []byte) {
	if len(b) == 0 {
		return
	}
	if a.odd {
		// Consume one byte into the low half of the pending word.
		a.sum = Combine(a.sum, uint32(b[0]))
		b = b[1:]
		a.odd = false
		if len(b) == 0 {
			return
		}
	}
	a.sum = Combine(a.sum, Partial(0, b))
	if len(b)%2 == 1 {
		a.odd = true
	}
}

// AddPartial appends a precomputed partial sum covering n bytes that start
// at the accumulator's current offset. It is valid only when the current
// offset is even (no pending odd byte); callers with odd alignment must
// fall back to Add on the raw bytes. The boolean reports whether the sum
// was accepted.
func (a *Accumulator) AddPartial(sum uint32, n int) bool {
	if a.odd {
		return false
	}
	a.sum = Combine(a.sum, sum)
	if n%2 == 1 {
		a.odd = true
	}
	return true
}

// Sum returns the accumulated unfolded partial sum.
func (a *Accumulator) Sum() uint32 { return a.sum }

// Sum16 returns the folded (uncomplemented) 16-bit sum of the accumulated
// range.
func (a *Accumulator) Sum16() uint16 { return Fold(a.sum) }

// Reset clears the accumulator for reuse.
func (a *Accumulator) Reset() { a.sum, a.odd = 0, false }

// Norm16 canonicalizes a folded ones-complement sum: negative zero
// (0xffff) maps to positive zero. Compare sums via Norm16 when they may
// come from different derivations (direct accumulation vs algebraic
// subtraction), which can disagree only in the representation of zero.
func Norm16(s uint16) uint16 {
	if s == 0xffff {
		return 0
	}
	return s
}

// Sub16 computes the ones-complement difference a - b of two folded sums.
func Sub16(a, b uint16) uint16 {
	return Fold(uint32(a) + uint32(^b))
}

// Swap16 byte-swaps a folded sum — the parity adjustment for combining a
// sum whose data starts at an odd offset of the covering range.
func Swap16(s uint16) uint16 { return s<<8 | s>>8 }

// PseudoHeaderSum computes the unfolded partial sum of the TCP/UDP IPv4
// pseudo-header: source and destination addresses, protocol number, and
// L4 segment length.
func PseudoHeaderSum(src, dst [4]byte, proto uint8, l4len int) uint32 {
	var sum uint32
	sum += uint32(src[0])<<8 | uint32(src[1])
	sum += uint32(src[2])<<8 | uint32(src[3])
	sum += uint32(dst[0])<<8 | uint32(dst[1])
	sum += uint32(dst[2])<<8 | uint32(dst[3])
	sum += uint32(proto)
	sum += uint32(l4len)
	return sum
}
