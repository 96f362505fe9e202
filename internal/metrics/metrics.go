// Package metrics collects the operation counters the paper's evaluation
// reports: posting entries traversed during candidate generation (the
// dominant cost, Figures 2 and 6), candidates generated, full similarities
// computed, and index-maintenance events (re-indexings, expirations).
package metrics

import "fmt"

// Counters aggregates per-run operation counts. Plain int64 fields
// suffice: every joiner is driven from one goroutine, and does its
// counting on it.
//
// The json tags are part of the versioned perf-report schema
// (internal/perf); renaming one is a schema change and must bump the
// schema version there.
type Counters struct {
	Items            int64 `json:"items"`             // stream items processed
	EntriesTraversed int64 `json:"entries_traversed"` // posting entries scanned during CG
	Candidates       int64 `json:"candidates"`        // vectors admitted to the accumulator
	FullDots         int64 `json:"full_dots"`         // exact residual dot products computed in CV
	Pairs            int64 `json:"pairs"`             // similar pairs reported
	IndexedEntries   int64 `json:"indexed_entries"`   // posting entries ever inserted
	ExpiredEntries   int64 `json:"expired_entries"`   // posting entries removed by time filtering
	Reindexings      int64 `json:"reindexings"`       // residual vectors re-indexed (STR-L2AP only)
	ReindexedEntries int64 `json:"reindexed_entries"` // posting entries inserted by re-indexing
	ResidualEntries  int64 `json:"residual_entries"`  // vectors ever stored in the residual index
	IndexBuilds      int64 `json:"index_builds"`      // full index (re)constructions (MB only)
	LateDrops        int64 `json:"late_drops"`        // items dropped behind the lateness watermark
}

// Add accumulates other into c.
func (c *Counters) Add(other Counters) {
	c.Items += other.Items
	c.EntriesTraversed += other.EntriesTraversed
	c.Candidates += other.Candidates
	c.FullDots += other.FullDots
	c.Pairs += other.Pairs
	c.IndexedEntries += other.IndexedEntries
	c.ExpiredEntries += other.ExpiredEntries
	c.Reindexings += other.Reindexings
	c.ReindexedEntries += other.ReindexedEntries
	c.ResidualEntries += other.ResidualEntries
	c.IndexBuilds += other.IndexBuilds
	c.LateDrops += other.LateDrops
}

// Sub subtracts other from c field-by-field. The adaptive index uses it
// to forward per-item counter deltas from its private scratch counters
// while withholding the work a live rebuild replays (replayed items are
// not stream items; counting them would break the adaptive ≤ static
// counter bounds).
func (c *Counters) Sub(other Counters) {
	c.Items -= other.Items
	c.EntriesTraversed -= other.EntriesTraversed
	c.Candidates -= other.Candidates
	c.FullDots -= other.FullDots
	c.Pairs -= other.Pairs
	c.IndexedEntries -= other.IndexedEntries
	c.ExpiredEntries -= other.ExpiredEntries
	c.Reindexings -= other.Reindexings
	c.ReindexedEntries -= other.ReindexedEntries
	c.ResidualEntries -= other.ResidualEntries
	c.IndexBuilds -= other.IndexBuilds
	c.LateDrops -= other.LateDrops
}

// Reset zeroes all counters.
func (c *Counters) Reset() { *c = Counters{} }

// String renders a compact single-line summary.
func (c *Counters) String() string {
	return fmt.Sprintf("items=%d entries=%d cand=%d dots=%d pairs=%d indexed=%d expired=%d reidx=%d late=%d",
		c.Items, c.EntriesTraversed, c.Candidates, c.FullDots, c.Pairs,
		c.IndexedEntries, c.ExpiredEntries, c.Reindexings, c.LateDrops)
}
