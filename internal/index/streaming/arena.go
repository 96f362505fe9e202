package streaming

import (
	"math"

	"sssj/internal/apss"
)

// This file implements the block-arena posting storage shared by every
// streaming index (INV, L2, L2AP/AP, sequential and sharded).
//
// The previous layout kept one growable circular buffer per dimension
// (map[uint32]*cbuf.Ring[entry]): a separately heap-allocated header and
// backing array per posting list, resized independently as entries
// arrived and expired. On realistic vocabularies (10^4–10^5 live
// dimensions, most lists holding a handful of entries) that is a
// pointer chase per touched dimension, an allocation churn proportional
// to dimension churn, and a heap the GC must walk object by object.
//
// The arena replaces all of it with a handful of flat slices. Posting
// entries live in fixed-size blocks of blockCap entries, stored
// struct-of-arrays (slots, times, values, prefix norms in parallel
// slices), so a scan walks contiguous memory in the field order the hot
// loop reads. Blocks are allocated by bumping the end of the shared
// slices and recycled through a freelist: when time filtering or the
// horizon sweep expires a whole block, it goes back on the freelist and
// the next push reuses it — steady-state streaming allocates nothing.
//
// Each dimension's posting list is a chain of blocks linked
// oldest↔newest. Entries are appended at the newest block's tail and
// expired from the oldest end (INV/L2, time-ordered) or compacted in
// place (L2AP after re-indexing breaks time order), matching the two
// scan disciplines of §6.2.
//
// Entries do not store the 8-byte item id; they store the item's compact
// uint32 slot (see slotTab), which is also what the dense accumulator is
// keyed by. The id is recovered from the slot table at emission time.

const (
	blockShift = 4               // log2 of entries per block
	blockCap   = 1 << blockShift // entries per block; see DESIGN.md for the sizing rationale
)

// chain is one dimension's posting list: a doubly linked list of arena
// blocks. n is the number of live entries across the chain.
type chain struct {
	newest int32 // block holding the most recent entries, -1 when empty
	oldest int32 // block holding the oldest entries, -1 when empty
	n      int32
}

func newChain() *chain { return &chain{newest: -1, oldest: -1} }

// parena is a posting-entry arena. The zero value is ready to use;
// withPnorm must be set before the first push for the prefix-filtering
// schemes (their entries carry ‖x'_j‖).
type parena struct {
	withPnorm bool

	// Entry storage, struct-of-arrays. Block b owns the index range
	// [b<<blockShift, (b+1)<<blockShift).
	slot  []uint32
	t     []float64
	val   []float64
	pnorm []float64

	// Per-block metadata. Live entries of block b are the positions
	// [off[b], end[b]) within the block.
	older []int32 // link toward older entries, -1 at the oldest block
	newer []int32 // link toward newer entries, -1 at the newest block
	off   []int32
	end   []int32

	// tmax[b] bounds the entry times of block b from above (withPnorm
	// arenas only): the decay bracket of a disordered (L2AP) chain, whose
	// lanes carry no time order. Derived state, kept as a monotone maximum
	// over the block's ever-held entries: push and compaction moves fold
	// entries in, removals never shrink it — stale-high only weakens the
	// bracket. Checkpoint load rebuilds it through the ordinary push path.
	tmax []float64

	free  []int32  // recycled block indexes
	heads []*chain // recycled chain heads of emptied dimensions
}

// blocks returns the number of blocks ever allocated (live + free),
// for occupancy accounting and tests.
func (ar *parena) blocks() int { return len(ar.older) }

// freeBlocks returns the current freelist length, for tests.
func (ar *parena) freeBlocks() int { return len(ar.free) }

var (
	zeroU32 [blockCap]uint32
	zeroF64 [blockCap]float64
)

// alloc returns an empty block, recycling from the freelist when
// possible.
func (ar *parena) alloc() int32 {
	if n := len(ar.free); n > 0 {
		b := ar.free[n-1]
		ar.free = ar.free[:n-1]
		ar.older[b], ar.newer[b] = -1, -1
		ar.off[b], ar.end[b] = 0, 0
		if ar.withPnorm {
			ar.tmax[b] = math.Inf(-1)
		}
		return b
	}
	b := int32(len(ar.older))
	ar.older = append(ar.older, -1)
	ar.newer = append(ar.newer, -1)
	ar.off = append(ar.off, 0)
	ar.end = append(ar.end, 0)
	ar.slot = append(ar.slot, zeroU32[:]...)
	ar.t = append(ar.t, zeroF64[:]...)
	ar.val = append(ar.val, zeroF64[:]...)
	if ar.withPnorm {
		ar.pnorm = append(ar.pnorm, zeroF64[:]...)
		ar.tmax = append(ar.tmax, math.Inf(-1))
	}
	return b
}

// coverAt folds the entry at arena index ai into block b's tmax. Called
// on every push and on every compaction move into b.
func (ar *parena) coverAt(b int32, ai int) {
	if t := ar.t[ai]; t > ar.tmax[b] {
		ar.tmax[b] = t
	}
}

// release puts a block on the freelist.
func (ar *parena) release(b int32) { ar.free = append(ar.free, b) }

// releaseChain frees every block of ch and empties it. Used when a
// dimension's whole list expires.
func (ar *parena) releaseChain(ch *chain) {
	for b := ch.oldest; b >= 0; {
		nb := ar.newer[b]
		ar.release(b)
		b = nb
	}
	ch.newest, ch.oldest, ch.n = -1, -1, 0
}

// push appends an entry at the newest end of ch.
func (ar *parena) push(ch *chain, slot uint32, t, val, pnorm float64) {
	b := ch.newest
	if b < 0 || ar.end[b] == blockCap {
		nb := ar.alloc()
		if b >= 0 {
			ar.older[nb] = b
			ar.newer[b] = nb
		} else {
			ch.oldest = nb
		}
		ch.newest = nb
		b = nb
	}
	i := int(b)<<blockShift + int(ar.end[b])
	ar.slot[i] = slot
	ar.t[i] = t
	ar.val[i] = val
	if ar.withPnorm {
		ar.pnorm[i] = pnorm
		ar.coverAt(b, i)
	}
	ar.end[b]++
	ch.n++
}

// pushTo appends an entry to dimension d's chain in lists, creating the
// chain head on first use (from the recycled heads when there are any) —
// the one indexing path shared by the engines and the checkpoint loader.
func (ar *parena) pushTo(lists map[uint32]*chain, d uint32, slot uint32, t, val, pnorm float64) {
	ch := lists[d]
	if ch == nil {
		if n := len(ar.heads); n > 0 {
			ch = ar.heads[n-1]
			ar.heads = ar.heads[:n-1]
		} else {
			ch = newChain()
		}
		lists[d] = ch
	}
	ar.push(ch, slot, t, val, pnorm)
}

// dropChain releases dimension d's emptied chain ch from lists, keeping
// the head for the next dimension pushTo creates.
func (ar *parena) dropChain(lists map[uint32]*chain, d uint32, ch *chain) {
	delete(lists, d)
	ar.heads = append(ar.heads, ch)
}

// descendCut scans ch newest→oldest, calling visit with the absolute
// arena index of each live entry. The first entry with now-t > tau cuts
// the scan: it and everything older is dropped, with fully expired
// blocks recycled. This is the backward time-filtering scan of the
// time-ordered indexes (§6.2). Returns the number of removed entries.
func (ar *parena) descendCut(ch *chain, now, tau float64, visit func(i int)) int {
	for b := ch.newest; b >= 0; b = ar.older[b] {
		base := int(b) << blockShift
		for i := int(ar.end[b]) - 1; i >= int(ar.off[b]); i-- {
			ai := base + i
			if now-ar.t[ai] > tau {
				return ar.cutAt(ch, b, int32(i))
			}
			visit(ai)
		}
	}
	return 0
}

// cutAt drops the entry at position i of block b and every older entry,
// recycling fully expired blocks. Returns the number of removed entries.
func (ar *parena) cutAt(ch *chain, b, i int32) int {
	removed := int(i + 1 - ar.off[b])
	for ob := ar.older[b]; ob >= 0; {
		next := ar.older[ob]
		removed += int(ar.end[ob] - ar.off[ob])
		ar.release(ob)
		ob = next
	}
	if i+1 == ar.end[b] {
		// b itself is fully expired.
		nb := ar.newer[b]
		ar.release(b)
		if nb < 0 {
			ch.newest, ch.oldest = -1, -1
		} else {
			ar.older[nb] = -1
			ch.oldest = nb
		}
	} else {
		ar.older[b] = -1
		ar.off[b] = i + 1
		ch.oldest = b
	}
	ch.n -= int32(removed)
	return removed
}

// sweepOrdered expires entries from the oldest end of a time-ordered
// chain: blocks whose newest entry is expired are recycled whole; the
// first block with a live entry is trimmed in place. Returns the number
// of removed entries.
func (ar *parena) sweepOrdered(ch *chain, now, tau float64) int {
	removed := 0
	for b := ch.oldest; b >= 0; {
		base := int(b) << blockShift
		lo, hi := int(ar.off[b]), int(ar.end[b])
		i := lo
		for i < hi && now-ar.t[base+i] > tau {
			i++
		}
		removed += i - lo
		if i < hi {
			ar.off[b] = int32(i)
			ch.oldest = b
			ar.older[b] = -1
			break
		}
		nb := ar.newer[b]
		ar.release(b)
		b = nb
		if b < 0 {
			ch.newest, ch.oldest = -1, -1
		}
	}
	ch.n -= int32(removed)
	return removed
}

// compact visits entries oldest→newest, keeping those for which keep
// returns true. Survivors are packed toward the oldest end preserving
// order; emptied blocks at the newest end are recycled. This is the
// forward scan of the AP engines, whose lists re-indexing can disorder
// (§5.3), so expiry cannot truncate from one end. Returns the number of
// removed entries.
func (ar *parena) compact(ch *chain, keep func(i int) bool) int {
	if ch.oldest < 0 {
		return 0
	}
	removed := 0
	wb, wi := ch.oldest, ar.off[ch.oldest]
	for rb := ch.oldest; rb >= 0; rb = ar.newer[rb] {
		base := int(rb) << blockShift
		for ri := ar.off[rb]; ri < ar.end[rb]; ri++ {
			ai := base + int(ri)
			if !keep(ai) {
				removed++
				continue
			}
			// Advance the write cursor through the same live-position
			// sequence the read cursor follows; it can never overtake.
			if wi == ar.end[wb] && wb != rb {
				wb = ar.newer[wb]
				wi = ar.off[wb]
			}
			wa := int(wb)<<blockShift + int(wi)
			if wa != ai {
				ar.slot[wa] = ar.slot[ai]
				ar.t[wa] = ar.t[ai]
				ar.val[wa] = ar.val[ai]
				if ar.withPnorm {
					ar.pnorm[wa] = ar.pnorm[ai]
					// The write block's tmax must keep covering the lane it
					// just received.
					ar.coverAt(wb, wa)
				}
			}
			wi++
		}
	}
	if removed == 0 {
		return 0
	}
	// Trim everything past the write cursor. If nothing was written into
	// wb, the chain emptied entirely (wi can only equal off[wb] when no
	// survivor reached wb, which given the cursor advance rule means
	// there were no survivors at all).
	if wi == ar.off[wb] {
		ar.releaseChain(ch)
		ch.n = 0
		return removed
	}
	for b := ar.newer[wb]; b >= 0; {
		nb := ar.newer[b]
		ar.release(b)
		b = nb
	}
	ar.newer[wb] = -1
	ar.end[wb] = wi
	ch.newest = wb
	ch.n -= int32(removed)
	return removed
}

// vdescend is the block-granular variant of descendCut used by the block
// scan kernels (kernelv.go) on time-ordered chains: newest block first,
// blk receives each block's live lanes [lo, hi). Expired lanes form a
// prefix of a block (times ascend with position), so the cut point of
// the scalar backward scan is the first live lane of the block that
// contains it: that block's live lanes are processed, then the cut drops
// the expired lane and everything older, exactly like descendCut.
// Returns the number of removed entries.
func (ar *parena) vdescend(ch *chain, now, tau float64, blk func(base, lo, hi int)) int {
	for b := ch.newest; b >= 0; {
		base := int(b) << blockShift
		lo, hi := int(ar.off[b]), int(ar.end[b])
		first := lo
		for first < hi && now-ar.t[base+first] > tau {
			first++
		}
		if first < hi {
			blk(base, first, hi)
		}
		if first > lo {
			return ar.cutAt(ch, b, int32(first-1))
		}
		b = ar.older[b]
	}
	return 0
}

// vcompact is the block-granular variant of compact used by the
// vectorized scan kernels (kernelv.go) on disordered (AP) chains. Expiry
// is the keep criterion: per block it first computes the live-lane
// bitmask (bit j set ⇔ lane at block position j has now-t ≤ tau), hands
// the whole block to blk for batched lane processing, then packs the
// survivors exactly as compact does (same write-cursor walk, same final
// layout, write-block tmax re-covered on every move). blk sees the
// block's storage untouched: the write cursor cannot have reached a
// block before all older blocks were read, so moves only overwrite
// already-processed positions. Returns the number of removed entries.
func (ar *parena) vcompact(ch *chain, now, tau float64, blk func(b int32, base, lo, hi int, live uint16)) int {
	if ch.oldest < 0 {
		return 0
	}
	removed := 0
	wb, wi := ch.oldest, ar.off[ch.oldest]
	for rb := ch.oldest; rb >= 0; rb = ar.newer[rb] {
		base := int(rb) << blockShift
		lo, hi := int(ar.off[rb]), int(ar.end[rb])
		var live uint16
		for j := lo; j < hi; j++ {
			if !(now-ar.t[base+j] > tau) {
				live |= 1 << uint(j)
			}
		}
		blk(rb, base, lo, hi, live)
		for ri := lo; ri < hi; ri++ {
			if live&(1<<uint(ri)) == 0 {
				removed++
				continue
			}
			if wi == ar.end[wb] && wb != rb {
				wb = ar.newer[wb]
				wi = ar.off[wb]
			}
			ai := base + ri
			wa := int(wb)<<blockShift + int(wi)
			if wa != ai {
				ar.slot[wa] = ar.slot[ai]
				ar.t[wa] = ar.t[ai]
				ar.val[wa] = ar.val[ai]
				if ar.withPnorm {
					ar.pnorm[wa] = ar.pnorm[ai]
					ar.coverAt(wb, wa)
				}
			}
			wi++
		}
	}
	if removed == 0 {
		return 0
	}
	if wi == ar.off[wb] {
		ar.releaseChain(ch)
		return removed
	}
	for b := ar.newer[wb]; b >= 0; {
		nb := ar.newer[b]
		ar.release(b)
		b = nb
	}
	ar.newer[wb] = -1
	ar.end[wb] = wi
	ch.newest = wb
	ch.n -= int32(removed)
	return removed
}

// ascend visits every live entry oldest→newest (the INV live-window
// rebuild, and tests).
func (ar *parena) ascend(ch *chain, visit func(i int)) {
	for b := ch.oldest; b >= 0; b = ar.newer[b] {
		base := int(b) << blockShift
		for i := ar.off[b]; i < ar.end[b]; i++ {
			visit(base + int(i))
		}
	}
}

// chainBlocks counts the blocks of ch (checkpoint framing).
func (ar *parena) chainBlocks(ch *chain) int {
	n := 0
	for b := ch.oldest; b >= 0; b = ar.newer[b] {
		n++
	}
	return n
}

// slotTab assigns compact uint32 slots to live items. Posting entries
// and the dense accumulator refer to items by slot; the table maps a
// slot back to the item id (for emission and checkpointing) and records
// the item's arrival time (which is every posting entry's time, so slot
// expiry and entry expiry coincide) and its foreign-join side bit (what
// cross-side admission gating reads; always side A in a self-join).
// Slots are recycled through a freelist when the item leaves the
// horizon, so the slot space — and with it the accumulator arrays —
// stays proportional to the live window, not the stream length.
type slotTab struct {
	id   []uint64
	t    []float64
	side []apss.Side
	free []uint32
}

// alloc assigns a slot to item id arriving at time t on the given side.
func (s *slotTab) alloc(id uint64, t float64, side apss.Side) uint32 {
	if n := len(s.free); n > 0 {
		sl := s.free[n-1]
		s.free = s.free[:n-1]
		s.id[sl] = id
		s.t[sl] = t
		s.side[sl] = side
		return sl
	}
	s.id = append(s.id, id)
	s.t = append(s.t, t)
	s.side = append(s.side, side)
	return uint32(len(s.id) - 1)
}

// release recycles a slot whose item left the horizon.
func (s *slotTab) release(sl uint32) { s.free = append(s.free, sl) }

// span returns the size of the slot space (live + free), the bound the
// accumulator arrays are sized to.
func (s *slotTab) span() int { return len(s.id) }
