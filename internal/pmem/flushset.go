package pmem

import "slices"

// FlushSet accumulates dirty byte ranges for one batched write-back.
// Ranges are deduplicated at cache-line granularity when the set is
// issued (FlushBatch): adjacent extents, re-flushed slot headers and
// repeated index lines collapse to a single clwb each. A FlushSet is
// not safe for concurrent use; each event loop (or store) owns its own
// and reuses it across batches (FlushBatch resets it).
type FlushSet struct {
	spans []lineSpan
	refs  int // line references accumulated by Add (before dedup)
	// scratch is reused by VisitSpans so parity maintenance can walk the
	// set without consuming it or disturbing its dedup accounting.
	scratch []lineSpan
}

// lineSpan is an inclusive range of cache-line indices.
type lineSpan struct{ first, last int }

// byFirst orders spans by start line (slices.SortFunc, unlike sort.Slice,
// allocates nothing — FlushBatch sits on the commit path).
func byFirst(a, b lineSpan) int { return a.first - b.first }

// Add records that [off, off+n) must be written back in the next
// FlushBatch. Zero-length ranges are ignored.
func (fs *FlushSet) Add(off, n int) {
	if n <= 0 {
		return
	}
	first := off / LineSize
	last := (off + n - 1) / LineSize
	fs.refs += last - first + 1
	if len(fs.spans) > 0 {
		// Fast path: extend the tail when ranges arrive in address order
		// (sequential extents, key bytes following a slot header).
		if t := &fs.spans[len(fs.spans)-1]; first == t.last+1 {
			t.last = last
			return
		}
	}
	fs.spans = append(fs.spans, lineSpan{first, last})
}

// Empty reports whether the set holds no ranges.
func (fs *FlushSet) Empty() bool { return len(fs.spans) == 0 }

// Refs returns the total line references added since the last reset —
// the clwb count a non-deduplicating protocol would have issued.
func (fs *FlushSet) Refs() int { return fs.refs }

// Reset discards the accumulated ranges (capacity is kept).
func (fs *FlushSet) Reset() {
	fs.spans = fs.spans[:0]
	fs.refs = 0
}

// VisitSpans calls fn(off, n) for every distinct line-aligned byte range
// currently in the set, in ascending address order with overlaps and
// adjacency merged. The set itself is untouched: iteration works on a
// scratch copy, so the later FlushBatch still sees the original spans
// and its dedup (LinesCoalesced) accounting is unaffected. fn may Add
// further ranges to the set; they are not visited.
func (fs *FlushSet) VisitSpans(fn func(off, n int)) {
	if len(fs.spans) == 0 {
		return
	}
	fs.scratch = append(fs.scratch[:0], fs.spans...)
	slices.SortFunc(fs.scratch, byFirst)
	cur := fs.scratch[0]
	for _, sp := range fs.scratch[1:] {
		if sp.first <= cur.last+1 {
			if sp.last > cur.last {
				cur.last = sp.last
			}
			continue
		}
		fn(cur.first*LineSize, (cur.last-cur.first+1)*LineSize)
		cur = sp
	}
	fn(cur.first*LineSize, (cur.last-cur.first+1)*LineSize)
}

// normalize sorts the spans, merges overlapping and adjacent ones in
// place, and returns the number of line references collapsed by the
// overlap dedup (adjacency is mere iteration convenience, not a dup).
func (fs *FlushSet) normalize() int {
	if len(fs.spans) < 2 {
		return 0
	}
	slices.SortFunc(fs.spans, byFirst)
	coalesced := 0
	out := fs.spans[:1]
	for _, sp := range fs.spans[1:] {
		t := &out[len(out)-1]
		if sp.first <= t.last { // overlap: duplicate line references
			if sp.last <= t.last {
				coalesced += sp.last - sp.first + 1
				continue
			}
			coalesced += t.last - sp.first + 1
			t.last = sp.last
			continue
		}
		if sp.first == t.last+1 { // adjacent: merge for iteration only
			t.last = sp.last
			continue
		}
		out = append(out, sp)
	}
	fs.spans = out
	return coalesced
}

// BatchStats reports what one FlushBatch actually issued.
type BatchStats struct {
	// Lines is the distinct cache-line count covered after dedup — the
	// clwbs issued.
	Lines int
	// Coalesced is how many duplicate line references the dedup absorbed
	// (Refs - Lines over overlapping ranges).
	Coalesced int
	// Flushed is how many of the issued lines were dirty and actually
	// moved into the write-back (flushed-but-unfenced) window; clean
	// lines retire for free, as clwb of a clean line does.
	Flushed int
	// Wasted counts issued lines that were already in the write-back
	// window — redundant clwbs a well-formed commit protocol never
	// produces (the duplicate-flush assertion counter).
	Wasted int
}

// FlushBatch issues one clwb per distinct dirty line accumulated in fs,
// as a single persist operation: an installed PersistHook is consulted
// exactly once (the whole batch is one cut point, and a torn cut tears
// the first dirty line of the deduplicated set), latency is charged for
// the deduplicated dirty-line count only, and Stats.Flushes increments
// by one. The set is reset afterwards. Durability still requires a
// Fence on the same handle, exactly as for Flush.
func (d *Domain) FlushBatch(fs *FlushSet) BatchStats {
	bs := BatchStats{Coalesced: fs.normalize()}
	for _, sp := range fs.spans {
		bs.Lines += sp.last - sp.first + 1
	}
	if bs.Lines > 0 {
		if last := fs.spans[len(fs.spans)-1].last; (last+1)*LineSize > len(d.r.buf) {
			panic("pmem: FlushBatch range outside region")
		}
		d.flushSpans(fs.spans, &bs, true)
	}
	fs.Reset()
	return bs
}
