package streaming

import (
	"math"

	"sssj/internal/apss"
	"sssj/internal/cbuf"
	"sssj/internal/lhmap"
	"sssj/internal/metrics"
	"sssj/internal/stream"
	"sssj/internal/vec"
)

// This file preserves the pre-arena posting storage — one circular
// buffer per dimension, map-keyed accumulators — as a frozen,
// test-only reference implementation. The parity and fuzz tests feed
// identical streams to a ring-backed and an arena-backed index and
// require bit-identical matches and identical SizeInfo accounting. Keeping the oracle verbatim (rather than sharing code
// with the arena engines) is deliberate: a bug in shared plumbing would
// cancel out of the comparison, a bug in either storage layer cannot.

// rentry is a ring posting entry of STR-INV: reference, arrival time,
// value.
type rentry struct {
	id  uint64
	t   float64
	val float64
}

// rsentry is a ring posting entry of the prefix-filtering schemes:
// (ι(x), t(x), x_j, ||x'_j||).
type rsentry struct {
	id    uint64
	t     float64
	val   float64
	pnorm float64
}

// rsmeta is the ring engines' per-vector residual state (the arena
// engines' smeta without the slot).
type rsmeta struct {
	t        float64
	vec      vec.Vector
	pn       []float64
	boundary int
	q        float64
	rsum     float64
	rmax     float64
}

// raccInv / raccEng are the map-backed accumulator cells.
type raccInv struct {
	dot float64
	t   float64
}

type raccEng struct {
	dot float64
	t   float64
}

// sweepLists removes expired entries from every ring posting list,
// including lists no query has touched since their entries expired, and
// deletes emptied lists (the ring counterpart of sweepChains).
func sweepLists[T any](lists map[uint32]*cbuf.Ring[T], disordered bool, now, tau float64, entT func(T) float64) int64 {
	var removed int64
	for d, lst := range lists {
		if disordered {
			removed += int64(lst.Filter(func(ent T) bool { return now-entT(ent) <= tau }))
		} else {
			cut := 0
			lst.Ascend(func(_ int, ent T) bool {
				if now-entT(ent) > tau {
					cut++
					return true
				}
				return false
			})
			if cut > 0 {
				lst.TruncateFront(cut)
				removed += int64(cut)
			}
		}
		if lst.Len() == 0 {
			delete(lists, d)
		}
	}
	return removed
}

// ringInv is the ring-backed STR-INV.
type ringInv struct {
	p      apss.Params
	kernel apss.Kernel
	tau    float64
	c      *metrics.Counters
	lists  map[uint32]*cbuf.Ring[rentry]

	clock sweepClock
	now   float64
	begun bool
}

func newRingInv(p apss.Params, kernel apss.Kernel, c *metrics.Counters) *ringInv {
	return &ringInv{
		p:      p,
		kernel: kernel,
		tau:    kernel.Horizon(p.Theta),
		c:      c,
		lists:  make(map[uint32]*cbuf.Ring[rentry]),
	}
}

// Add implements Index (the collect adapter over AddTo).
func (ix *ringInv) Add(x stream.Item) ([]apss.Match, error) { return collectAdd(ix, x) }

// AddTo implements SinkIndex.
func (ix *ringInv) AddTo(x stream.Item, emit apss.Sink) error {
	if ix.begun && x.Time < ix.now {
		return ErrTimeOrder
	}
	ix.begun = true
	ix.now = x.Time
	ix.c.Items++
	ix.maybeSweep()

	acc := make(map[uint64]*raccInv)
	for i, d := range x.Vec.Dims {
		xj := x.Vec.Vals[i]
		lst := ix.lists[d]
		if lst == nil {
			continue
		}
		cut := -1
		lst.Descend(func(i int, e rentry) bool {
			if x.Time-e.t > ix.tau {
				cut = i
				return false
			}
			ix.c.EntriesTraversed++
			a := acc[e.id]
			if a == nil {
				a = &raccInv{t: e.t}
				acc[e.id] = a
				ix.c.Candidates++
			}
			a.dot += xj * e.val
			return true
		})
		if cut >= 0 {
			lst.TruncateFront(cut + 1)
			ix.c.ExpiredEntries += int64(cut + 1)
			if lst.Len() == 0 {
				delete(ix.lists, d)
			}
		}
	}

	g := apss.NewGate(emit)
	for id, a := range acc {
		dt := x.Time - a.t
		sim := a.dot * ix.kernel.Factor(dt)
		if sim >= ix.p.Theta {
			g.Emit(apss.Match{X: x.ID, Y: id, Sim: sim, Dot: a.dot, DT: dt})
		}
	}
	ix.c.Pairs += g.Emitted()

	for i, d := range x.Vec.Dims {
		lst := ix.lists[d]
		if lst == nil {
			lst = &cbuf.Ring[rentry]{}
			ix.lists[d] = lst
		}
		lst.PushBack(rentry{id: x.ID, t: x.Time, val: x.Vec.Vals[i]})
		ix.c.IndexedEntries++
	}
	return g.Err()
}

func (ix *ringInv) maybeSweep() {
	if !ix.clock.due(ix.now, ix.tau) {
		return
	}
	ix.c.ExpiredEntries += sweepLists(ix.lists, false, ix.now, ix.tau, func(ent rentry) float64 { return ent.t })
}

// Size implements Index.
func (ix *ringInv) Size() SizeInfo {
	var s SizeInfo
	for _, lst := range ix.lists {
		if lst.Len() > 0 {
			s.Lists++
			s.PostingEntries += lst.Len()
		}
	}
	return s
}

// Params implements Index.
func (ix *ringInv) Params() apss.Params { return ix.p }

// ringEngine is the ring-backed STR-L2 / STR-L2AP / STR-AP sequential
// engine.
type ringEngine struct {
	p            apss.Params
	useAP, useL2 bool
	c            *metrics.Counters
	res          *lhmap.Map[uint64, *rsmeta]
	m            vec.MaxTracker
	noIndexBound bool

	kernel apss.Kernel
	lambda float64
	tau    float64
	abl    Ablations

	lists map[uint32]*cbuf.Ring[rsentry]

	mhatVal   map[uint32]float64
	mhatT     map[uint32]float64
	lastTouch map[uint32]float64

	clock sweepClock
	now   float64
	begun bool
}

func newRingEngine(p apss.Params, kernel apss.Kernel, useAP, useL2 bool, abl Ablations, c *metrics.Counters) *ringEngine {
	e := &ringEngine{
		p:            p,
		useAP:        useAP,
		useL2:        useL2,
		c:            c,
		res:          lhmap.New[uint64, *rsmeta](),
		noIndexBound: abl.NoIndexBound,
		kernel:       kernel,
		lambda:       p.Lambda,
		tau:          kernel.Horizon(p.Theta),
		abl:          abl,
		lists:        make(map[uint32]*cbuf.Ring[rsentry]),
	}
	if useAP {
		e.m = vec.NewMaxTracker()
		e.mhatVal = make(map[uint32]float64)
		e.mhatT = make(map[uint32]float64)
		e.lastTouch = make(map[uint32]float64)
	}
	return e
}

func (e *ringEngine) icBound(b1, b2 float64) float64 {
	switch {
	case e.useAP && e.useL2:
		return math.Min(b1, b2)
	case e.useAP:
		return b1
	default:
		return b2
	}
}

func (e *ringEngine) indexVector(x stream.Item) {
	dims, vals := x.Vec.Dims, x.Vec.Vals
	if len(dims) == 0 {
		return
	}
	pn := x.Vec.PrefixNorms()
	b1, bt := 0.0, 0.0
	boundary := -1
	q := 0.0
	for i, d := range dims {
		xj := vals[i]
		pscore := e.icBound(b1, math.Sqrt(bt))
		if e.useAP {
			b1 += xj * e.m.At(d)
		}
		bt += xj * xj
		if e.noIndexBound || e.icBound(b1, math.Sqrt(bt)) >= e.p.Theta {
			if boundary < 0 {
				boundary = i
				q = pscore
			}
			e.pushEntry(d, rsentry{id: x.ID, t: x.Time, val: xj, pnorm: pn[i]})
			e.c.IndexedEntries++
		}
	}
	if boundary < 0 {
		return
	}
	residual := x.Vec.SliceByIndex(0, boundary)
	e.res.Put(x.ID, &rsmeta{
		t:        x.Time,
		vec:      x.Vec,
		pn:       pn,
		boundary: boundary,
		q:        q,
		rsum:     residual.Sum(),
		rmax:     residual.MaxVal(),
	})
	e.c.ResidualEntries++
}

func (e *ringEngine) reindex(changed []uint32) {
	changedSet := make(map[uint32]bool, len(changed))
	for _, d := range changed {
		changedSet[d] = true
	}
	e.res.Ascend(func(id uint64, meta *rsmeta) bool {
		if meta.boundary == 0 {
			return true
		}
		affected := false
		for _, d := range meta.vec.Dims[:meta.boundary] {
			if changedSet[d] {
				affected = true
				break
			}
		}
		if !affected {
			return true
		}
		e.c.Reindexings++
		dims, vals := meta.vec.Dims, meta.vec.Vals
		b1, bt := 0.0, 0.0
		newBoundary := meta.boundary
		q := 0.0
		crossed := false
		for i := 0; i < meta.boundary; i++ {
			pscore := e.icBound(b1, math.Sqrt(bt))
			b1 += vals[i] * e.m.At(dims[i])
			bt += vals[i] * vals[i]
			if !crossed && e.icBound(b1, math.Sqrt(bt)) >= e.p.Theta {
				crossed = true
				newBoundary = i
				q = pscore
			}
		}
		if !crossed {
			meta.q = e.icBound(b1, math.Sqrt(bt))
			return true
		}
		for i := newBoundary; i < meta.boundary; i++ {
			e.pushEntry(dims[i], rsentry{id: id, t: meta.t, val: vals[i], pnorm: meta.pn[i]})
			e.c.ReindexedEntries++
			e.c.IndexedEntries++
		}
		meta.boundary = newBoundary
		meta.q = q
		residual := meta.vec.SliceByIndex(0, newBoundary)
		meta.rsum = residual.Sum()
		meta.rmax = residual.MaxVal()
		return true
	})
}

// Add implements Index (the collect adapter over AddTo).
func (e *ringEngine) Add(x stream.Item) ([]apss.Match, error) { return collectAdd(e, x) }

// AddTo implements SinkIndex.
func (e *ringEngine) AddTo(x stream.Item, emit apss.Sink) error {
	if e.begun && x.Time < e.now {
		return ErrTimeOrder
	}
	e.begun = true
	e.now = x.Time
	e.c.Items++

	horizonStart := x.Time - e.tau
	e.res.PruneWhile(func(_ uint64, m *rsmeta) bool { return m.t < horizonStart })
	e.maybeSweep()

	if e.useAP {
		if changed := e.m.Update(x.Vec); len(changed) > 0 {
			e.reindex(changed)
		}
	}

	acc, pruned := e.candGen(x)
	g := apss.NewGate(emit)
	e.candVer(x, acc, pruned, &g)
	e.c.Pairs += g.Emitted()

	e.indexVector(x)
	if e.useAP {
		e.mhatUpdate(x)
	}
	return g.Err()
}

func (e *ringEngine) candGen(x stream.Item) (map[uint64]*raccEng, map[uint64]bool) {
	dims, vals := x.Vec.Dims, x.Vec.Vals
	if len(dims) == 0 {
		return nil, nil
	}
	rs1 := math.Inf(1)
	if e.useAP {
		rs1 = 0
		for i, d := range dims {
			rs1 += vals[i] * e.mhatAt(d)
		}
	}
	rst := 0.0
	rs2 := math.Inf(1)
	if e.useL2 {
		for _, v := range vals {
			rst += v * v
		}
		rs2 = math.Sqrt(rst)
	}

	pnx := x.Vec.PrefixNorms()
	acc := make(map[uint64]*raccEng)
	pruned := make(map[uint64]bool)

	for i := len(dims) - 1; i >= 0; i-- {
		d, xj := dims[i], vals[i]
		lst := e.lists[d]
		if lst == nil {
			continue
		}
		process := func(ent rsentry) {
			e.c.EntriesTraversed++
			if pruned[ent.id] {
				return
			}
			dt := x.Time - ent.t
			decay := e.kernel.Factor(dt)
			a := acc[ent.id]
			if a == nil {
				rs2d := rs2
				if e.useL2 {
					rs2d = rs2 * decay
				}
				if !e.abl.NoRemscore && math.Min(rs1, rs2d) < e.p.Theta {
					return
				}
				a = &raccEng{t: ent.t}
				acc[ent.id] = a
				e.c.Candidates++
			}
			a.dot += xj * ent.val
			if e.useL2 && !e.abl.NoL2Bound && a.dot+pnx[i]*ent.pnorm*decay < e.p.Theta {
				delete(acc, ent.id)
				pruned[ent.id] = true
			}
		}
		if e.useAP {
			removed := lst.Filter(func(ent rsentry) bool {
				if x.Time-ent.t > e.tau {
					e.c.EntriesTraversed++
					return false
				}
				process(ent)
				return true
			})
			e.c.ExpiredEntries += int64(removed)
		} else {
			cut := -1
			lst.Descend(func(j int, ent rsentry) bool {
				if x.Time-ent.t > e.tau {
					cut = j
					return false
				}
				process(ent)
				return true
			})
			if cut >= 0 {
				lst.TruncateFront(cut + 1)
				e.c.ExpiredEntries += int64(cut + 1)
			}
		}
		if lst.Len() == 0 {
			delete(e.lists, d)
		}
		if e.useAP {
			rs1 -= xj * e.mhatAt(d)
		}
		if e.useL2 {
			rst -= xj * xj
			if rst < 0 {
				rst = 0
			}
			rs2 = math.Sqrt(rst)
		}
	}
	return acc, pruned
}

func (e *ringEngine) candVer(x stream.Item, acc map[uint64]*raccEng, _ map[uint64]bool, g *apss.Gate) {
	if len(acc) == 0 {
		return
	}
	vmx := x.Vec.MaxVal()
	sx := x.Vec.Sum()
	nx := x.Vec.NNZ()
	for id, a := range acc {
		meta, ok := e.res.Get(id)
		if !ok {
			continue
		}
		dt := x.Time - meta.t
		decay := e.kernel.Factor(dt)
		residual := meta.vec.SliceByIndex(0, meta.boundary)
		if !e.abl.NoVerifyBounds {
			if (a.dot+meta.q)*decay < e.p.Theta {
				continue
			}
			if (a.dot+math.Min(vmx*meta.rsum, meta.rmax*sx))*decay < e.p.Theta {
				continue
			}
			if (a.dot+float64(min(nx, meta.boundary))*vmx*meta.rmax)*decay < e.p.Theta {
				continue
			}
		}
		e.c.FullDots++
		raw := a.dot + vec.Dot(x.Vec, residual)
		if sim := raw * decay; sim >= e.p.Theta {
			g.Emit(apss.Match{X: x.ID, Y: id, Sim: sim, Dot: raw, DT: dt})
		}
	}
}

func (e *ringEngine) pushEntry(d uint32, ent rsentry) {
	lst := e.lists[d]
	if lst == nil {
		lst = &cbuf.Ring[rsentry]{}
		e.lists[d] = lst
	}
	lst.PushBack(ent)
}

func (e *ringEngine) mhatAt(d uint32) float64 {
	v, ok := e.mhatVal[d]
	if !ok {
		return 0
	}
	return v * math.Exp(-e.lambda*(e.now-e.mhatT[d]))
}

func (e *ringEngine) mhatUpdate(x stream.Item) {
	for i, d := range x.Vec.Dims {
		if x.Vec.Vals[i] >= e.mhatAt(d) {
			e.mhatVal[d] = x.Vec.Vals[i]
			e.mhatT[d] = x.Time
		}
		e.lastTouch[d] = x.Time
	}
}

func (e *ringEngine) maybeSweep() {
	if !e.clock.due(e.now, e.tau) {
		return
	}
	e.c.ExpiredEntries += sweepLists(e.lists, e.useAP, e.now, e.tau, func(ent rsentry) float64 { return ent.t })
	if e.useAP {
		horizon := e.now - e.tau
		for d, t := range e.lastTouch {
			if t < horizon {
				delete(e.mhatVal, d)
				delete(e.mhatT, d)
				delete(e.m, d)
				delete(e.lastTouch, d)
			}
		}
	}
}

// Size implements Index.
func (e *ringEngine) Size() SizeInfo {
	var s SizeInfo
	for _, lst := range e.lists {
		if lst.Len() > 0 {
			s.Lists++
			s.PostingEntries += lst.Len()
		}
	}
	s.Residuals = e.res.Len()
	if e.useAP {
		s.TrackedDims = len(e.m)
		if n := len(e.mhatVal); n > s.TrackedDims {
			s.TrackedDims = n
		}
	}
	return s
}

// Params implements Index.
func (e *ringEngine) Params() apss.Params { return e.p }
