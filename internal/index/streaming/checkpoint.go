package streaming

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"

	"sssj/internal/apss"
	"sssj/internal/cbuf"
	"sssj/internal/dimorder"
	"sssj/internal/stream"
	"sssj/internal/vec"
)

// Checkpointing serializes a streaming index's live state — posting
// lists, residual direct index, max vectors, stream clock — so a
// long-running join can restart after a crash or redeploy and continue
// exactly where it stopped. The format is little-endian, versioned, and
// self-describing enough to reject foreign or truncated files.
//
// Operation counters are not part of a checkpoint; a restored index
// starts counting from zero. Item slots are runtime-only too: the file
// records item ids, and Load assigns fresh slots as it rebuilds the
// arena.

var ckptMagic = [8]byte{'S', 'S', 'S', 'J', 'C', 'K', 'P', 'T'}

// Version history:
//
//	1 — seed format: params, clock, lists, residuals, m/m̂λ.
//	2 — adds the horizon-sweep clock (lastSweep, swept) and, for the
//	    AP engines, the per-dimension lastTouch map, so a resumed run
//	    sweeps at exactly the times an uninterrupted run would. Version
//	    1 files still load; their sweep state is reconstructed
//	    conservatively (every tracked dimension treated as touched at
//	    the checkpoint), which can only delay pruning by one horizon.
//	3 — block framing: each posting list is written as its arena block
//	    chain (block count, then per block an entry count and the
//	    block's live entries, oldest→newest), so Save streams blocks
//	    without materializing per-list slices and Load rebuilds chains
//	    block by block. Entry payloads are unchanged; versions 1 and 2
//	    (one flat entry count per list) still load.
//	4 — foreign-join side bits: every posting entry and every residual
//	    record gains the item's Side byte, so a two-stream join resumes
//	    with each live item's provenance intact. Sides are resolved
//	    through the slot table exactly like ids, so a lazily retained
//	    expired entry under a recycled slot serializes with the new
//	    owner's (id, side) pair and its own time — the (id, time)
//	    incarnation keying on load keeps it on a separate slot, where
//	    it is beyond the horizon and never consulted by gating. The
//	    side is per-item content, not operator config: whether the
//	    restored index *gates* on sides is chosen at load time via
//	    Options.Foreign, which is how a version ≤ 3 (or self-join)
//	    checkpoint loads into a foreign-join engine — every restored
//	    item then defaults to side A.
//	5 — event-time section: a presence byte right after the version,
//	    followed (when present) by the reorder stage's state — lateness
//	    δ, sidedness, per-side clocks, and the still-buffered items with
//	    full vectors — so a bounded-lateness join resumes with its
//	    watermark and in-flight items intact. SaveFull/LoadFull carry
//	    the section; plain Save writes an absent section and plain Load
//	    skips one. Versions 1–4 (no presence byte) still load, with no
//	    event-time state.
const ckptVersion = 5

// ErrBadCheckpoint reports a corrupt or incompatible checkpoint.
var ErrBadCheckpoint = errors.New("streaming: bad checkpoint")

// errShardCheckpoint refuses to checkpoint a lone cluster worker, or to
// restore into one: a worker holds only its owned posting lists, which
// the format cannot tell from a whole index.
var errShardCheckpoint = fmt.Errorf("%w: a cluster worker (Shard.N > 1) cannot be checkpointed", ErrShard)

// Save writes ix's state. Only indexes created by New are supported; a
// cluster worker (Options.Shard with N > 1) is refused with ErrShard.
// Custom (non-exponential) kernels are recorded as a flag; Load then
// requires the same kernel to be re-supplied in Options.
func Save(ix Index, w io.Writer) error { return SaveFull(ix, nil, w) }

// EventTimeState is the serializable state of the event-time reorder
// stage that fronts a joiner (see stream.Reorder): lateness, per-side
// clocks, and the items buffered awaiting the watermark. It rides in
// the version-5 checkpoint section so a bounded-lateness join restores
// its admission clock and in-flight items exactly.
type EventTimeState = stream.ReorderState

// SaveFull writes ix's state plus, when et is non-nil, the event-time
// reorder state of the operator feeding it (the v5 section). Save is
// SaveFull with no event-time state.
func SaveFull(ix Index, et *EventTimeState, w io.Writer) error {
	// The ordering and adaptive wrappers serialize as natural-space INV
	// clones of their live window — same format, no version bump. The
	// learned state (permutation, engine choice, observation counters)
	// is derived and is re-learned after a restore; what must survive is
	// the window itself, and INV indexes every coordinate, so a plain
	// INV image of the window in natural dimension space carries it
	// losslessly. An ordered index mid-warmup has buffered items whose
	// matches were never reported; cloning would silently drop them, so
	// Save refuses with WarmupOpenError (drain with FinishWarmup first).
	switch v := ix.(type) {
	case *orderedIndex:
		cl, err := v.checkpointClone()
		if err != nil {
			return err
		}
		ix = cl
	case *adaptiveIndex:
		cl, err := v.naturalClone()
		if err != nil {
			return err
		}
		ix = cl
	case *engine:
		if v.sharded {
			return errShardCheckpoint
		}
	case *invIndex:
		if v.sharded {
			return errShardCheckpoint
		}
	}
	bw := bufio.NewWriter(w)
	cw := &ckptWriter{w: bw}
	cw.bytes(ckptMagic[:])
	cw.u32(ckptVersion)
	cw.u8(boolByte(et != nil))
	if et != nil {
		saveEventTime(cw, et)
	}
	switch v := ix.(type) {
	case *invIndex:
		saveHeader(cw, INV, v.p, v.kernel, v.now, v.begun, v.clock)
		saveLists(cw, false, postings{&v.ar, v.lists, &v.slots})
	case *engine:
		saveHeader(cw, engineKind(v.useAP, v.useL2), v.p, v.kernel, v.now, v.begun, v.clock)
		saveLists(cw, true, postings{&v.ar, v.lists, &v.slots})
		saveEngine(cw, &v.icCore, v.mhatVal, v.mhatT, v.lastTouch)
	default:
		return fmt.Errorf("streaming: cannot checkpoint %T", ix)
	}
	if cw.err != nil {
		return cw.err
	}
	return bw.Flush()
}

// postings is one arena's posting lists with the slot table their
// entries are keyed by.
type postings struct {
	ar    *parena
	lists map[uint32]*chain
	slots *slotTab
}

// saveLists writes the list count, then each list's dimension and chain.
func saveLists(cw *ckptWriter, withPnorm bool, p postings) {
	cw.u32(uint32(len(p.lists)))
	for d, ch := range p.lists {
		cw.u32(d)
		saveChain(cw, p.ar, p.slots, ch, withPnorm)
	}
}

// saveEngine writes a prefix-filtering engine's residual index and, for
// the AP engines, m, m̂λ and lastTouch.
func saveEngine(cw *ckptWriter, ic *icCore, mhatVal, mhatT, lastTouch map[uint32]float64) {
	saveRes(cw, ic)
	if !ic.useAP {
		return
	}
	cw.u32(uint32(len(ic.m)))
	for d, val := range ic.m {
		cw.u32(d)
		cw.f64(val)
	}
	cw.u32(uint32(len(mhatVal)))
	for d, val := range mhatVal {
		cw.u32(d)
		cw.f64(val)
		cw.f64(mhatT[d])
	}
	saveTouch(cw, lastTouch)
}

// saveChain writes one posting chain in the v3 block framing plus the
// v4 per-entry side byte: the block count, then per block its
// live-entry count and entries oldest→newest. Entries are written with
// the item id and side (both resolved through the slot table); slots
// themselves are never serialized.
func saveChain(cw *ckptWriter, ar *parena, slots *slotTab, ch *chain, withPnorm bool) {
	cw.u32(uint32(ar.chainBlocks(ch)))
	for b := ch.oldest; b >= 0; b = ar.newer[b] {
		cw.u32(uint32(ar.end[b] - ar.off[b]))
		base := int(b) << blockShift
		for i := ar.off[b]; i < ar.end[b]; i++ {
			ai := base + int(i)
			cw.u64(slots.id[ar.slot[ai]])
			cw.f64(ar.t[ai])
			cw.f64(ar.val[ai])
			if withPnorm {
				cw.f64(ar.pnorm[ai])
			}
			cw.u8(uint8(slots.side[ar.slot[ai]]))
		}
	}
}

// engineKind maps a prefix-filtering engine's flag pair to its Kind.
func engineKind(useAP, useL2 bool) Kind {
	switch {
	case useAP && useL2:
		return L2AP
	case useAP:
		return AP
	default:
		return L2
	}
}

// saveEventTime writes the v5 event-time section: the reorder stage's
// config and clocks, then its buffered items (already sorted by
// (Time, ID) per ReorderState) with full vectors.
func saveEventTime(cw *ckptWriter, et *EventTimeState) {
	cw.f64(et.Delta)
	cw.u8(boolByte(et.Sided))
	cw.u8(boolByte(et.Seen[0]))
	cw.u8(boolByte(et.Seen[1]))
	cw.f64(et.MaxT[0])
	cw.f64(et.MaxT[1])
	cw.u32(uint32(len(et.Buffered)))
	for _, it := range et.Buffered {
		cw.u64(it.ID)
		cw.f64(it.Time)
		cw.u8(uint8(it.Side))
		cw.u32(uint32(it.Vec.NNZ()))
		for i := range it.Vec.Dims {
			cw.u32(it.Vec.Dims[i])
			cw.f64(it.Vec.Vals[i])
		}
	}
}

// readEventTime decodes the v5 event-time section (after its presence
// byte reported it present).
func readEventTime(cr *ckptReader) (*EventTimeState, error) {
	var et EventTimeState
	et.Delta = cr.f64()
	et.Sided = cr.u8() == 1
	et.Seen[0] = cr.u8() == 1
	et.Seen[1] = cr.u8() == 1
	et.MaxT[0] = cr.f64()
	et.MaxT[1] = cr.f64()
	if cr.err != nil {
		return nil, cr.err
	}
	if et.Delta < 0 || math.IsNaN(et.Delta) || math.IsInf(et.Delta, 0) {
		return nil, fmt.Errorf("event-time lateness %v invalid", et.Delta)
	}
	n := int(cr.u32())
	for i := 0; i < n && cr.err == nil; i++ {
		id := cr.u64()
		t := cr.f64()
		side := cr.u8()
		nnz := int(cr.u32())
		if cr.err != nil {
			break
		}
		if side > uint8(apss.SideB) {
			return nil, fmt.Errorf("buffered item %d has side %d", id, side)
		}
		vv := cr.coords(nnz)
		if cr.err != nil {
			break
		}
		if err := vv.Validate(); err != nil {
			return nil, fmt.Errorf("buffered item %d invalid: %v", id, err)
		}
		et.Buffered = append(et.Buffered, stream.Item{ID: id, Time: t, Side: apss.Side(side), Vec: vv})
	}
	if cr.err != nil {
		return nil, cr.err
	}
	return &et, nil
}

// saveHeader writes the per-index checkpoint header shared by all four
// engine types: kind, params, kernel flag, stream clock, sweep clock.
func saveHeader(cw *ckptWriter, kind Kind, p apss.Params, kernel apss.Kernel, now float64, begun bool, clock sweepClock) {
	cw.u8(uint8(kind))
	cw.f64(p.Theta)
	cw.f64(p.Lambda)
	cw.u8(boolByte(isDefaultKernel(kernel, p)))
	cw.f64(now)
	cw.u8(boolByte(begun))
	cw.f64(clock.last)
	cw.u8(boolByte(clock.swept))
}

// saveTouch serializes a per-dimension lastTouch map.
func saveTouch(cw *ckptWriter, touch map[uint32]float64) {
	cw.u32(uint32(len(touch)))
	for d, t := range touch {
		cw.u32(d)
		cw.f64(t)
	}
}

// saveRes serializes a prefix engine's residual direct index. The id
// and the v4 side byte are resolved through the slot table (a live
// residual always owns its slot).
func saveRes(cw *ckptWriter, ic *icCore) {
	cw.u32(uint32(ic.order.Len()))
	ic.ascendRes(func(sl uint32, m *smeta) {
		cw.u64(ic.slots.id[sl])
		cw.f64(m.t)
		cw.u32(uint32(m.boundary))
		cw.f64(m.q)
		cw.u32(uint32(m.vec.NNZ()))
		for i := range m.vec.Dims {
			cw.u32(m.vec.Dims[i])
			cw.f64(m.vec.Vals[i])
		}
		cw.u8(uint8(ic.slots.side[sl]))
	})
}

// Load restores an index saved by Save. opts supplies runtime-only state
// (counters, ablations and, when the checkpoint used a custom kernel,
// the kernel itself). The Foreign flag likewise is operator config,
// chosen at load time: a v4 checkpoint restores each item's side bit,
// and a file written before sides existed (v1–v3) loads into a
// foreign-join engine with every item on side A. A cluster worker
// (Options.Shard with N > 1) is refused with ErrShard.
func Load(r io.Reader, opts Options) (Index, error) {
	ix, _, err := LoadFull(r, opts)
	return ix, err
}

// LoadFull restores an index saved by Save or SaveFull, together with
// the event-time reorder state when the file carries one (nil for
// files written by plain Save and for every pre-v5 version). Like
// SaveFull it refuses a cluster worker: Options.Shard with N > 1 returns
// ErrShard.
func LoadFull(r io.Reader, opts Options) (Index, *EventTimeState, error) {
	if opts.Shard.N > 1 {
		return nil, nil, errShardCheckpoint
	}
	cr := &ckptReader{r: bufio.NewReader(r)}
	var magic [8]byte
	cr.bytes(magic[:])
	if cr.err != nil || magic != ckptMagic {
		return nil, nil, fmt.Errorf("%w: bad magic", ErrBadCheckpoint)
	}
	ver := cr.u32()
	if ver < 1 || ver > ckptVersion {
		return nil, nil, fmt.Errorf("%w: unsupported version %d", ErrBadCheckpoint, ver)
	}
	var et *EventTimeState
	if ver >= 5 && cr.u8() == 1 {
		var err error
		if et, err = readEventTime(cr); err != nil {
			return nil, nil, fmt.Errorf("%w: event-time section: %v", ErrBadCheckpoint, err)
		}
	}
	kind := Kind(cr.u8())
	p := apss.Params{Theta: cr.f64(), Lambda: cr.f64()}
	defaultKernel := cr.u8() == 1
	now := cr.f64()
	begun := cr.u8() == 1
	lastSweep, swept := now, begun // version-1 fallback
	if ver >= 2 {
		lastSweep = cr.f64()
		swept = cr.u8() == 1
	}
	if cr.err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrBadCheckpoint, cr.err)
	}
	if kind > AP {
		return nil, nil, fmt.Errorf("%w: unknown kind %d", ErrBadCheckpoint, int(kind))
	}
	if !defaultKernel && opts.Kernel == nil {
		return nil, nil, fmt.Errorf("%w: checkpoint used a custom kernel; supply it in Options", ErrBadCheckpoint)
	}
	if defaultKernel {
		opts.Kernel = nil // force the params-derived exponential kernel
	}
	// A dimension-ordered index is checkpointed as a natural-space clone
	// (see SaveFull), so restoring into a fresh warmup wrapper is
	// rejected: the wrapper would buffer the restored window's future
	// peers while the restored items sit in the inner index under
	// natural order — two orders in one index. Restore plain, or restore
	// with Options.Adapt, which re-learns its order online.
	if opts.Order.Strategy != dimorder.None && opts.Order.Items >= 1 {
		return nil, nil, fmt.Errorf("%w: cannot restore into a dimension-ordered index", ErrBadCheckpoint)
	}
	// The adaptive wrapper's state is derived: load the plain index
	// first, then extract its live window and seed a fresh wrapper with
	// it (the selector restarts from the checkpointed kind).
	adaptOpts := opts
	opts.Adapt = Adapt{}
	ix, err := New(kind, p, opts)
	if err != nil {
		return nil, nil, err
	}

	// Per-type sinks; the decode path below is shared. idSlot maps the
	// file's item ids to freshly assigned slots; the first entry of an
	// item allocates its slot. The key includes the arrival time, not
	// just the id: posting lists retain expired entries lazily, and an
	// expired entry's slot may have been recycled to a newer item before
	// the checkpoint was taken, in which case Save records the entry
	// under the new owner's id. Keying by (id, time) keeps such a stale
	// incarnation on its own slot — it is already outside the horizon,
	// so it is never visited or emitted, only swept — instead of letting
	// it cross-accumulate with the live item of the same id.
	// Version-1 files carry no lastTouch map,
	// so putM/putMhat default every tracked dimension's touch time to
	// the checkpoint time — conservative by at most one horizon;
	// version-2+ files overwrite with the saved values via putTouch.
	var (
		slots    *slotTab
		putEntry func(d uint32, slot uint32, t, val, pnorm float64)
		doneInv  func() // rebuilds the INV live-slot queue
		putRes   func(sl uint32, m smeta)
		putM     func(d uint32, val float64)
		putMhat  func(d uint32, val, t float64)
		putTouch func(d uint32, t float64)
		useAP    bool
	)
	type incarnation struct {
		id uint64
		t  float64
	}
	idSlot := make(map[incarnation]uint32)
	slotFor := func(id uint64, t float64, side apss.Side) uint32 {
		key := incarnation{id, t}
		sl, ok := idSlot[key]
		if !ok {
			sl = slots.alloc(id, t, side)
			idSlot[key] = sl
		}
		return sl
	}
	switch v := ix.(type) {
	case *invIndex:
		v.now, v.begun = now, begun
		v.clock = sweepClock{last: lastSweep, swept: swept}
		slots = &v.slots
		putEntry = func(d uint32, slot uint32, t, val, _ float64) {
			v.ar.pushTo(v.lists, d, slot, t, val, 0)
		}
		doneInv = func() { rebuildLive(&v.live, &v.slots) }
	case *engine:
		v.now, v.begun = now, begun
		v.clock = sweepClock{last: lastSweep, swept: swept}
		useAP = v.useAP
		slots = &v.slots
		putEntry = func(d uint32, slot uint32, t, val, pnorm float64) {
			v.pushEntry(d, slot, t, val, pnorm)
		}
		putRes = v.putResidual
		putM = func(d uint32, val float64) {
			v.m[d] = val
			v.lastTouch[d] = now
		}
		putMhat = func(d uint32, val, t float64) {
			v.mhatVal[d] = val
			v.mhatT[d] = t
			v.lastTouch[d] = now
		}
		putTouch = func(d uint32, t float64) { v.lastTouch[d] = t }
	default:
		return nil, nil, fmt.Errorf("streaming: cannot restore a checkpoint into %T", ix)
	}

	withPnorm := kind != INV
	// readEntries decodes n entries of one list fragment. Files older
	// than v4 carry no side bits; every restored item lands on side A.
	readEntries := func(d uint32, n int) {
		for i := 0; i < n && cr.err == nil; i++ {
			id := cr.u64()
			t := cr.f64()
			val := cr.f64()
			pnorm := 0.0
			if withPnorm {
				pnorm = cr.f64()
			}
			side := apss.SideA
			if ver >= 4 {
				side = apss.Side(cr.u8())
				if cr.err == nil && side > apss.SideB {
					cr.err = fmt.Errorf("entry of item %d has side %d", id, side)
					return
				}
			}
			if cr.err != nil {
				return
			}
			putEntry(d, slotFor(id, t, side), t, val, pnorm)
		}
	}
	nLists := int(cr.u32())
	for l := 0; l < nLists && cr.err == nil; l++ {
		d := cr.u32()
		if ver >= 3 {
			nBlocks := int(cr.u32())
			for b := 0; b < nBlocks && cr.err == nil; b++ {
				readEntries(d, int(cr.u32()))
			}
		} else {
			readEntries(d, int(cr.u32()))
		}
	}
	if withPnorm {
		nRes := int(cr.u32())
		for i := 0; i < nRes && cr.err == nil; i++ {
			id := cr.u64()
			t := cr.f64()
			boundary := int(cr.u32())
			q := cr.f64()
			nnz := int(cr.u32())
			vv := cr.coords(nnz)
			side := apss.SideA
			if ver >= 4 {
				side = apss.Side(cr.u8())
			}
			if cr.err != nil {
				break
			}
			if side > apss.SideB {
				return nil, nil, fmt.Errorf("%w: residual %d has side %d", ErrBadCheckpoint, id, side)
			}
			if err := vv.Validate(); err != nil || boundary > nnz {
				return nil, nil, fmt.Errorf("%w: residual %d invalid", ErrBadCheckpoint, id)
			}
			putRes(slotFor(id, t, side), newResidual(t, vv, boundary, q))
		}
		if useAP && cr.err == nil {
			nM := int(cr.u32())
			for i := 0; i < nM && cr.err == nil; i++ {
				d := cr.u32()
				putM(d, cr.f64())
			}
			nMh := int(cr.u32())
			for i := 0; i < nMh && cr.err == nil; i++ {
				d := cr.u32()
				putMhat(d, cr.f64(), cr.f64())
			}
			if ver >= 2 {
				nT := int(cr.u32())
				for i := 0; i < nT && cr.err == nil; i++ {
					d := cr.u32()
					putTouch(d, cr.f64())
				}
			}
		}
	}
	if cr.err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrBadCheckpoint, cr.err)
	}
	if doneInv != nil {
		doneInv()
	}
	if adaptOpts.Adapt.enabled() {
		st, err := extractLive(ix)
		if err != nil {
			return nil, nil, err
		}
		wrapped, err := New(kind, p, adaptOpts)
		if err != nil {
			return nil, nil, err
		}
		aix := wrapped.(*adaptiveIndex)
		if err := aix.seed(st); err != nil {
			return nil, nil, err
		}
		return aix, et, nil
	}
	return ix, et, nil
}

// rebuildLive reconstructs the INV indexes' live-slot expiry queue from
// the restored slot table, ordered by arrival time (ties broken by id
// for determinism — the order among equal times is irrelevant to expiry,
// which only compares times).
func rebuildLive(live *cbuf.Ring[uint32], slots *slotTab) {
	order := make([]uint32, len(slots.id))
	for i := range order {
		order[i] = uint32(i)
	}
	sort.Slice(order, func(a, b int) bool {
		if slots.t[order[a]] != slots.t[order[b]] {
			return slots.t[order[a]] < slots.t[order[b]]
		}
		return slots.id[order[a]] < slots.id[order[b]]
	})
	for _, sl := range order {
		live.PushBack(sl)
	}
}

func isDefaultKernel(k apss.Kernel, p apss.Params) bool {
	e, ok := k.(apss.Exponential)
	return ok && e.Lambda == p.Lambda
}

func boolByte(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// ckptWriter writes little-endian primitives, latching the first error.
type ckptWriter struct {
	w   io.Writer
	err error
}

func (c *ckptWriter) bytes(b []byte) {
	if c.err == nil {
		_, c.err = c.w.Write(b)
	}
}
func (c *ckptWriter) u8(v uint8) { c.bytes([]byte{v}) }
func (c *ckptWriter) u32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	c.bytes(b[:])
}
func (c *ckptWriter) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	c.bytes(b[:])
}
func (c *ckptWriter) f64(v float64) { c.u64(math.Float64bits(v)) }

// ckptReader reads little-endian primitives, latching the first error.
type ckptReader struct {
	r   io.Reader
	err error
}

func (c *ckptReader) bytes(b []byte) {
	if c.err == nil {
		_, c.err = io.ReadFull(c.r, b)
	}
}
func (c *ckptReader) u8() uint8 {
	var b [1]byte
	c.bytes(b[:])
	return b[0]
}
func (c *ckptReader) u32() uint32 {
	var b [4]byte
	c.bytes(b[:])
	return binary.LittleEndian.Uint32(b[:])
}
func (c *ckptReader) u64() uint64 {
	var b [8]byte
	c.bytes(b[:])
	return binary.LittleEndian.Uint64(b[:])
}
func (c *ckptReader) f64() float64 { return math.Float64frombits(c.u64()) }

// coordsInitCap caps the capacity a vector's coordinate slices start
// with: the count comes from the file, so the slices grow only as
// coordinates actually arrive, and a count the payload does not back
// costs at most this much before the read fails.
const coordsInitCap = 64

// coords reads nnz (dim, value) pairs. Every other count in a
// checkpoint only bounds a loop that stops at the first read error, so
// this is the one place a file-supplied count could size an allocation.
func (c *ckptReader) coords(nnz int) vec.Vector {
	v := vec.Vector{
		Dims: make([]uint32, 0, min(nnz, coordsInitCap)),
		Vals: make([]float64, 0, min(nnz, coordsInitCap)),
	}
	for k := 0; k < nnz && c.err == nil; k++ {
		d, x := c.u32(), c.f64()
		v.Dims = append(v.Dims, d)
		v.Vals = append(v.Vals, x)
	}
	return v
}
