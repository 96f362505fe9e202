package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer. Spans of one stream item share
// its Item identifier; Parent indexes the span that caused this one
// (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Item   uint64 `json:"item_id"`
}

// recorder collects the spans of one goroutine. A nil *recorder records
// nothing, which is how tracing is switched off without a second code
// path; begin/end then cost one nil check.
type recorder struct {
	epoch time.Time
	spans []span
	stack []int32
}

func newRecorder(epoch time.Time, capacity int) *recorder {
	return &recorder{epoch: epoch, spans: make([]span, 0, capacity)}
}

// begin opens a span whose parent is the innermost span still open on
// this recorder.
func (r *recorder) begin(name string, item uint64) int32 {
	if r == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	i := int32(len(r.spans))
	r.spans = append(r.spans, span{Name: name, Parent: parent, Item: item, Start: int64(time.Since(r.epoch))})
	r.stack = append(r.stack, i)
	return i
}

// end closes span i, which must be the innermost open span.
func (r *recorder) end(i int32) {
	if r == nil {
		return
	}
	r.spans[i].End = int64(time.Since(r.epoch))
	r.stack = r.stack[:len(r.stack)-1]
}

// setItem names the item of an open span once it is known (a parsed
// item has no ID before the parser returns).
func (r *recorder) setItem(i int32, item uint64) {
	if r != nil {
		r.spans[i].Item = item
	}
}

// discard drops span i and everything opened after it: the caller found
// out that what it started timing does not exist (a read at end of
// input).
func (r *recorder) discard(i int32) {
	if r == nil {
		return
	}
	r.spans = r.spans[:i]
	for len(r.stack) > 0 && r.stack[len(r.stack)-1] >= i {
		r.stack = r.stack[:len(r.stack)-1]
	}
}

func (r *recorder) reset() {
	if r != nil {
		r.spans, r.stack = r.spans[:0], r.stack[:0]
	}
}

// mergeSpans concatenates the spans of the load generator's recorders
// (roots: they record only request spans, none nested) and of the
// recorders that ran on other goroutines (server pipelines), re-basing
// parent indexes. A span recorded without a parent on a non-root
// recorder is attached to the root span of the same item: that is the
// request that caused it.
func mergeSpans(roots, others []*recorder) []span {
	var out []span
	for _, r := range roots {
		out = append(out, r.spans...)
	}
	rootOf := make(map[uint64]int32, len(out))
	for i, s := range out {
		rootOf[s.Item] = int32(i)
	}
	for _, r := range others {
		base := int32(len(out))
		for _, s := range r.spans {
			if s.Parent >= 0 {
				s.Parent += base
			} else if p, ok := rootOf[s.Item]; ok {
				s.Parent = p
			}
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its child spans cover. Children may overlap each other
// (parallel workers) and are clipped to the parent's interval.
func selfTimes(spans []span) []int64 {
	order := make([]int32, 0, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			order = append(order, int32(i))
		}
	}
	sort.Slice(order, func(a, b int) bool {
		x, y := spans[order[a]], spans[order[b]]
		if x.Parent != y.Parent {
			return x.Parent < y.Parent
		}
		return x.Start < y.Start
	})
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
	}
	for k := 0; k < len(order); {
		p := spans[order[k]].Parent
		lo, hi := spans[p].Start, spans[p].End
		var covered int64
		edge := lo // everything before edge is already counted
		for ; k < len(order) && spans[order[k]].Parent == p; k++ {
			c := spans[order[k]]
			s, e := max(c.Start, edge), min(c.End, hi)
			if e > s {
				covered += e - s
				edge = e
			}
		}
		self[p] -= covered
	}
	return self
}

// layerTotals sums self time and full duration per span name, and
// counts the spans.
type layerTotal struct {
	self, total int64
	count       int
}

func layerTotals(spans []span) map[string]layerTotal {
	self := selfTimes(spans)
	out := map[string]layerTotal{}
	for i, s := range spans {
		t := out[s.Name]
		t.self += self[i]
		t.total += s.End - s.Start
		t.count++
		out[s.Name] = t
	}
	return out
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
