package streaming

// sweepClock throttles the horizon sweep to at most once per τ of
// stream time. Queries prune expired posting entries lazily, but only
// on the lists they touch, and nothing prunes the per-dimension
// statistics at all — so on a drifting vocabulary (dimensions that stop
// recurring) index memory would grow without bound; the sweep walks
// everything. All four streaming indexes embed this clock, and
// checkpoints persist it so a resumed run sweeps at exactly the times
// an uninterrupted run would.
type sweepClock struct {
	last  float64
	swept bool
}

// due reports whether a sweep is due at now, advancing the clock. The
// first observation only anchors the clock.
func (c *sweepClock) due(now, tau float64) bool {
	if !c.swept {
		c.swept = true
		c.last = now
		return false
	}
	if now-c.last <= tau {
		return false
	}
	c.last = now
	return true
}

// sweepChains removes expired entries from every posting chain,
// including chains no query has touched since their entries expired.
// Time-ordered chains are truncated from the oldest end; chains that
// re-indexing may have disordered are compacted in place. Fully expired
// blocks go back on the arena freelist, and the map heads of emptied
// dimensions are released so Lists (and, downstream, TrackedDims)
// reflect live state after dimension churn. Returns the number of
// removed entries.
func sweepChains(ar *parena, lists map[uint32]*chain, disordered bool, now, tau float64) int64 {
	var removed int64
	for d, ch := range lists {
		if disordered {
			removed += int64(ar.compact(ch, func(i int) bool { return now-ar.t[i] <= tau }))
		} else {
			removed += int64(ar.sweepOrdered(ch, now, tau))
		}
		if ch.n == 0 {
			ar.dropChain(lists, d, ch)
		}
	}
	return removed
}
