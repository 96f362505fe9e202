// Package accum provides the dense epoch-stamped candidate accumulator
// shared by the streaming and batch indexes.
//
// Candidate generation is the hot loop of every scheme in the paper: each
// probe walks posting lists and accumulates a partial dot product per
// candidate vector. Keying that accumulation by a hash map costs one map
// allocation per probe plus a heap cell per candidate, and the GC has to
// trace all of it. This package replaces the map with three flat arrays
// indexed by a compact per-item slot (see the index's slot table):
//
//	Dot[slot]  — the accumulated partial dot product
//	Mark[slot] — the epoch at which slot was last admitted
//	Dead[slot] — the epoch at which slot was last pruned
//
// Begin bumps the epoch instead of clearing anything, so resetting the
// accumulator between probes is O(1) and the arrays are reused for the
// lifetime of the index: zero allocations on the steady-state hot path.
package accum

// Dense is an epoch-stamped accumulator over compact uint32 slots. The
// zero value is ready to use after a call to Begin.
type Dense struct {
	// Epoch is the current probe's stamp. A slot is admitted this probe
	// iff Mark[slot] == Epoch, and pruned iff Dead[slot] == Epoch.
	Epoch uint32
	// Mark stamps admitted slots; Dot[slot] is meaningful only when
	// Mark[slot] == Epoch.
	Mark []uint32
	// Dead stamps pruned slots: candidates proven below threshold that
	// must not be re-admitted or verified this probe.
	Dead []uint32
	// Dot is the accumulated partial dot product per admitted slot.
	Dot []float64
	// Cands lists admitted slots in first-touch order — the reusable
	// candidate list that verification walks instead of a map iteration.
	Cands []uint32
	// Decay caches the time-decay factor of admitted slots, so a probe
	// evaluates it at most once per candidate however many posting
	// entries and bounds read it. Sized by BeginDecay only. The owner
	// sets Decay[slot] on admission: the factor if it already has it, a
	// negative value for "not computed yet".
	Decay []float64
}

// Begin starts a new probe over a slot space of size n: it grows the
// arrays if the slot space grew, bumps the epoch, and resets the
// candidate list. No per-slot state is cleared — stale stamps from
// earlier probes simply no longer equal Epoch.
func (a *Dense) Begin(n int) {
	if len(a.Mark) < n {
		a.Mark = append(a.Mark, make([]uint32, n-len(a.Mark))...)
		a.Dead = append(a.Dead, make([]uint32, n-len(a.Dead))...)
		a.Dot = append(a.Dot, make([]float64, n-len(a.Dot))...)
	}
	a.Epoch++
	if a.Epoch == 0 {
		// Epoch wrapped (once per 2^32 probes): stale stamps could now
		// collide with the restarted counter, so clear them explicitly.
		clear(a.Mark)
		clear(a.Dead)
		a.Epoch = 1
	}
	a.Cands = a.Cands[:0]
}

// BeginDecay is Begin for an index that keeps the per-slot decay cache.
func (a *Dense) BeginDecay(n int) {
	a.Begin(n)
	if len(a.Decay) < n {
		a.Decay = append(a.Decay, make([]float64, n-len(a.Decay))...)
	}
}

// Admit marks slot as a candidate of the current probe with a zeroed
// dot product and appends it to Cands. The caller must have checked
// Mark[slot] != Epoch (hot loops inline that test).
func (a *Dense) Admit(slot uint32) {
	a.Mark[slot] = a.Epoch
	a.Dot[slot] = 0
	a.Cands = append(a.Cands, slot)
}

// Decline marks slot as pruned for the current probe: it will not be
// admitted, accumulated, or verified again until the next Begin.
func (a *Dense) Decline(slot uint32) { a.Dead[slot] = a.Epoch }
