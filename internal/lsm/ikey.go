// Package lsm implements the paper's baseline storage stack: NoveLSM as
// §3 of the paper measures it. The memtable is a persistent skip list in
// a PM region, so there is no write-ahead log (persistence comes from
// the PM memtable), and compaction is disabled: a full memtable is
// retired to a stack of immutable PM memtables and a fresh arena takes
// the writes. After a crash every arena is recovered in place.
//
// The data-management phases the paper's Table 1 itemizes — request
// preparation (write-batch encoding), checksum calculation (CRC32C over
// key+value), data copy, and buffer allocation + index insertion — are
// real code paths here, individually instrumented (Breakdown),
// reproducing the paper's measurement methodology.
package lsm

import (
	"bytes"
	"encoding/binary"
)

// Kind tags an internal key as a value or a tombstone.
type Kind uint8

const (
	// KindDelete marks a tombstone.
	KindDelete Kind = 0
	// KindValue marks a live value.
	KindValue Kind = 1
)

// MaxSeq is the largest sequence number; lookups use it to position at
// the newest entry for a user key.
const MaxSeq = uint64(1)<<56 - 1

// ikey is an internal key: user key followed by 8 bytes of
// (seq << 8 | kind), ordered user-key ascending then seq descending —
// so the newest entry for a user key sorts first.
type ikey []byte

// makeIKey builds an internal key.
func makeIKey(userKey []byte, seq uint64, kind Kind) ikey {
	k := make([]byte, len(userKey)+8)
	copy(k, userKey)
	binary.BigEndian.PutUint64(k[len(userKey):], seq<<8|uint64(kind))
	return k
}

// userKey extracts the user key portion.
func (k ikey) userKey() []byte { return k[:len(k)-8] }

// seq extracts the sequence number.
func (k ikey) seq() uint64 { return binary.BigEndian.Uint64(k[len(k)-8:]) >> 8 }

// kind extracts the kind tag.
func (k ikey) kind() Kind { return Kind(k[len(k)-1]) }

// valid reports whether the key has room for a trailer.
func (k ikey) valid() bool { return len(k) >= 8 }

// icmp orders internal keys: user key ascending, then sequence number
// descending (trailer bytes compare inverted).
func icmp(a, b []byte) int {
	ua, ub := ikey(a).userKey(), ikey(b).userKey()
	if c := bytes.Compare(ua, ub); c != 0 {
		return c
	}
	// Larger trailer (higher seq) sorts first.
	return -bytes.Compare(a[len(a)-8:], b[len(b)-8:])
}

// lookupKey returns the internal key that positions at the newest entry
// for userKey at or below seq.
func lookupKey(userKey []byte, seq uint64) ikey {
	return makeIKey(userKey, seq, KindValue)
}
