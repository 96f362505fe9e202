package streaming

// BlockInfo reports block-arena occupancy: how many fixed-size posting
// blocks the arena has ever allocated and how many of those currently
// sit on the freelist. Live blocks are the difference. It is reported
// separately from SizeInfo — which counts logical posting entries and is
// compared by struct equality against the test suite's ring-buffer
// oracle (ring_test.go) — because the oracle has no arena and must keep
// matching field for field.
type BlockInfo struct {
	// Blocks is the number of blocks ever allocated (live + free).
	Blocks int
	// FreeBlocks is the current freelist length; steady-state streaming
	// recycles through it instead of growing the arena.
	FreeBlocks int
}

// add accumulates ar's figures into b.
func (b *BlockInfo) add(ar *parena) {
	b.Blocks += ar.blocks()
	b.FreeBlocks += ar.freeBlocks()
}

// ArenaSizer is implemented by the arena-backed engines and the
// dimension-ordering wrapper; the adaptive wrapper, whose engine is
// replaced on every rebuild, is not.
type ArenaSizer interface {
	ArenaInfo() BlockInfo
}

// ArenaInfo implements ArenaSizer.
func (ix *invIndex) ArenaInfo() BlockInfo {
	var b BlockInfo
	b.add(&ix.ar)
	return b
}

// ArenaInfo implements ArenaSizer.
func (e *engine) ArenaInfo() BlockInfo {
	var b BlockInfo
	b.add(&e.ar)
	return b
}

// ArenaInfo forwards to the inner index when it is arena-backed; during
// warmup the buffered items are not posting entries yet, so the inner
// figures are the whole truth.
func (o *orderedIndex) ArenaInfo() BlockInfo {
	if as, ok := o.inner.(ArenaSizer); ok {
		return as.ArenaInfo()
	}
	return BlockInfo{}
}
