package main

import (
	"fmt"
	"math"
	"sort"

	"sssj/internal/apss"
	"sssj/internal/core"
	"sssj/internal/stream"
)

// digest is an order-independent summary of a set of matches. Pairs and
// IDHash identify the pair set; SimBits (a wrapping sum of the IEEE bits
// of every similarity) is exact and compares the program against itself
// across passes; SimSum compares it against the brute-force reference,
// whose dot products are summed in another order and so differ from the
// index's in the last bits.
type digest struct {
	Pairs   uint64  `json:"pairs"`
	IDHash  uint64  `json:"id_hash"`
	SimBits uint64  `json:"-"`
	SimSum  float64 `json:"sim_sum"`
}

// mix64 is the splitmix64 finalizer: a bijection on 64 bits.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// add folds one pair in. lo and hi are the pair's IDs relative to the
// start of the pass that hi belongs to; lo wraps below zero for a
// partner from the pass before. The hash is of the ordered pair, so
// exchanging the partners of two pairs changes the sum.
func (d *digest) add(lo, hi uint64, sim float64) {
	d.Pairs++
	d.IDHash += mix64(mix64(lo) + 0x9e3779b97f4a7c15*hi)
	d.SimBits += math.Float64bits(sim)
	d.SimSum += sim
}

func (d *digest) merge(o digest) {
	d.Pairs += o.Pairs
	d.IDHash += o.IDHash
	d.SimBits += o.SimBits
	d.SimSum += o.SimSum
}

// samePairs reports whether two digests describe the same pair set.
func (d digest) samePairs(o digest) bool { return d.Pairs == o.Pairs && d.IDHash == o.IDHash }

// closeSims reports whether the similarity sums agree to within the
// rounding a different summation order can cause.
func (d digest) closeSims(o digest) bool {
	return math.Abs(d.SimSum-o.SimSum) <= 1e-9*(1+math.Abs(o.SimSum))
}

func (d digest) String() string {
	return fmt.Sprintf("pairs=%d id_hash=%016x sim_sum=%.9g", d.Pairs, d.IDHash, d.SimSum)
}

// passDigests sorts the matches of a replayed block into one digest per
// pass. The block's n items are replayed with IDs shifted by n per pass,
// so a match belongs to pass max(x, y) / n whichever call reported it: a
// reorder stage may release an item in a later call, even in a later
// pass, than the one that handed it in. Beside the full digest it keeps
// one of the pairs whose younger ID is among the first prefix of the
// pass, which is the part the brute-force check recomputes on every run.
type passDigests struct {
	n, prefix uint64
	full, pre []digest
}

func newPassDigests(n, prefix int) *passDigests {
	return &passDigests{n: uint64(n), prefix: uint64(min(prefix, n))}
}

func (p *passDigests) add(m apss.Match) {
	lo, hi := m.Y, m.X
	if lo > hi {
		lo, hi = hi, lo
	}
	pass := hi / p.n
	for uint64(len(p.full)) <= pass {
		p.full = append(p.full, digest{})
		p.pre = append(p.pre, digest{})
	}
	base := pass * p.n
	p.full[pass].add(lo-base, hi-base, m.Sim)
	if hi-base < p.prefix {
		p.pre[pass].add(lo-base, hi-base, m.Sim)
	}
}

// pass returns the digest of pass k; zero if no pair of it was reported.
func (p *passDigests) pass(k int) digest {
	if k < len(p.full) {
		return p.full[k]
	}
	return digest{}
}

// prefixOf returns the digest of the first prefix items of pass k.
func (p *passDigests) prefixOf(k int) digest {
	if k < len(p.pre) {
		return p.pre[k]
	}
	return digest{}
}

// sink adapts add to the match-sink signature of the library.
func (p *passDigests) sink(m apss.Match) error { p.add(m); return nil }

// merged adds the per-pass digests of independent streams (the two
// sessions of the daemon workload).
func mergeDigests(ds ...*passDigests) *passDigests {
	out := &passDigests{n: ds[0].n, prefix: ds[0].prefix}
	for _, d := range ds {
		for i := range d.full {
			if i >= len(out.full) {
				out.full = append(out.full, digest{})
				out.pre = append(out.pre, digest{})
			}
			out.full[i].merge(d.full[i])
			out.pre[i].merge(d.pre[i])
		}
	}
	return out
}

// reference brute-forces what pass 1 of a replayed block must report:
// every pair whose younger ID is among the first prefix items of the
// pass. It runs core.BruteForce over those items and over the tail of
// pass 0 that lies within the horizon (plus the reorder slack) of the
// earliest of them, all sorted by (time, ID) — so for a shuffled block
// the reference is the sorted stream, and a reorder bug fails it.
func reference(b *block, params apss.Params, slack float64, prefix int) (digest, error) {
	n := len(b.items)
	prefix = min(prefix, n)
	tmin := math.Inf(1)
	for i := 0; i < prefix; i++ {
		tmin = math.Min(tmin, b.at(1, i).Time)
	}
	var items []stream.Item
	for i := 0; i < n; i++ {
		if it := b.at(0, i); it.Time >= tmin-params.Horizon()-slack {
			items = append(items, it)
		}
	}
	for i := 0; i < prefix; i++ {
		items = append(items, b.at(1, i))
	}
	sort.SliceStable(items, func(i, j int) bool {
		if items[i].Time != items[j].Time {
			return items[i].Time < items[j].Time
		}
		return items[i].ID < items[j].ID
	})
	bf, err := core.NewBruteForce(params, nil)
	if err != nil {
		return digest{}, err
	}
	pd := newPassDigests(n, prefix)
	for _, it := range items {
		if err := bf.AddTo(it, pd.sink); err != nil {
			return digest{}, err
		}
	}
	return pd.prefixOf(1), nil
}
