package main

import (
	"math/rand"
	"testing"
	"time"

	"sssj/internal/apss"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "nested", Start: 10, End: 40, Parent: 0},
		{Name: "inner", Start: 15, End: 25, Parent: 1},
		{Name: "overlapA", Start: 50, End: 70, Parent: 0}, // two workers in parallel:
		{Name: "overlapB", Start: 60, End: 80, Parent: 0}, // together they cover [50, 80)
		{Name: "inside", Start: 62, End: 65, Parent: 0},   // already covered by both
		{Name: "spill", Start: 95, End: 120, Parent: 0},   // clipped to the parent's end
	}
	want := []int64{100 - 30 - 30 - 5, 30 - 10, 10, 20, 20, 3, 25}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	layers := layerTotals(spans)
	if l := layers["root"]; l.self != 35 || l.total != 100 || l.count != 1 {
		t.Errorf("layer root = %+v", l)
	}
}

func TestMergeSpansAttachesServerSpansToTheirRequest(t *testing.T) {
	client := &recorder{spans: []span{
		{Name: "server.rtt", Start: 0, End: 50, Parent: -1, Item: 7},
		{Name: "server.rtt", Start: 60, End: 90, Parent: -1, Item: 8},
	}}
	srv := &recorder{spans: []span{
		{Name: "streaming.add", Start: 70, End: 80, Parent: -1, Item: 8},
		{Name: "apss.emit", Start: 72, End: 74, Parent: 0, Item: 8},
	}}
	merged := mergeSpans([]*recorder{client}, []*recorder{srv})
	if merged[2].Parent != 1 {
		t.Errorf("joiner span attached to span %d, want the request of item 8 (span 1)", merged[2].Parent)
	}
	if merged[3].Parent != 2 {
		t.Errorf("emit span attached to span %d after re-basing, want 2", merged[3].Parent)
	}
	if self := selfTimes(merged); self[1] != 20 || self[2] != 8 {
		t.Errorf("self times %v, want rtt 20 and joiner 8", self)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	sample := make([]int64, 1000)
	for i := range sample {
		sample[i] = int64(i + 1) // 1 … 1000
	}
	for _, c := range []struct {
		p    float64
		want int64
	}{{50, 500}, {99, 990}, {99.9, 999}, {100, 1000}, {0.01, 1}} {
		if got := percentile(sample, c.p); got != c.want {
			t.Errorf("p%v = %d, want %d", c.p, got, c.want)
		}
	}
	if percentile(nil, 99) != 0 {
		t.Error("empty sample must give 0")
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := quartiles(v)
	if q1 != 2.75 || q3 != 8.25 || median(v) != 5.5 {
		t.Errorf("quartiles = %v, %v, median %v", q1, q3, median(v))
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of three = %v, %v", q1, q3)
	}
	if s := summarize([]float64{5}); s.Q1 != 5 || s.Q3 != 5 || s.spread() != 0 {
		t.Errorf("single sample summary = %+v", s)
	}
}

func TestPacedOpenLoopNeverSkipsAndTimesFromDue(t *testing.T) {
	const n, every, stall = 20, 2 * time.Millisecond, 15 * time.Millisecond
	first := time.Now().Add(time.Millisecond)
	var sent []int
	var started []time.Time
	lat, lag := paced(n, first, every, nil, nil, func(i int) {
		sent = append(sent, i)
		started = append(started, time.Now())
		if i == 3 {
			time.Sleep(stall) // a reply that stalls
		}
	})
	if len(sent) != n || len(lat) != n || len(lag) != n {
		t.Fatalf("%d sends, %d latencies, %d lags, want %d each", len(sent), len(lat), len(lag), n)
	}
	for i, s := range sent {
		if s != i {
			t.Fatalf("send %d was item %d: the order changed", i, s)
		}
		if due := first.Add(every * time.Duration(i)); started[i].Before(due) {
			t.Errorf("item %d started %v before it was due", i, due.Sub(started[i]))
		}
	}
	// Item 4 was due 2 ms after item 3 but could only start once the
	// 15 ms stall ended: the wait is its latency, and its lag.
	if time.Duration(lag[4]) < stall-2*every || time.Duration(lat[4]) < time.Duration(lag[4]) {
		t.Errorf("item 4: lag %v, latency %v; want the stall charged to it", time.Duration(lag[4]), time.Duration(lat[4]))
	}
	if time.Duration(lat[3]) < stall {
		t.Errorf("item 3 latency %v, shorter than its own stall", time.Duration(lat[3]))
	}
	// Once the backlog is worked off the schedule is met again.
	if time.Duration(lag[n-1]) > every {
		t.Errorf("last item still %v late", time.Duration(lag[n-1]))
	}
}

func TestPacedClosedLoopTimesFromStart(t *testing.T) {
	lat, lag := paced(3, time.Time{}, 0, nil, nil, func(int) { time.Sleep(time.Millisecond) })
	if len(lat) != 3 || len(lag) != 0 {
		t.Fatalf("%d latencies and %d lags", len(lat), len(lag))
	}
	for _, l := range lat {
		if d := time.Duration(l); d < time.Millisecond || d > 50*time.Millisecond {
			t.Errorf("closed-loop latency %v", d)
		}
	}
}

func TestDigestOrderIndependentAndPairSensitive(t *testing.T) {
	ms := []apss.Match{{X: 5, Y: 1, Sim: 0.9}, {X: 7, Y: 2, Sim: 0.8}, {X: 9, Y: 5, Sim: 0.75}, {X: 12, Y: 9, Sim: 0.71}}
	digestOf := func(ms []apss.Match) digest {
		pd := newPassDigests(10, 10)
		for _, m := range ms {
			pd.add(m)
		}
		return pd.pass(0)
	}
	want := digestOf(ms[:3])
	shuffled := append([]apss.Match(nil), ms[:3]...)
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	if got := digestOf(shuffled); !got.samePairs(want) || got.SimBits != want.SimBits {
		t.Errorf("digest depends on order: %v vs %v", got, want)
	}
	// The same four IDs paired the other way round: (5,2) and (7,1).
	swapped := []apss.Match{{X: 5, Y: 2, Sim: 0.9}, {X: 7, Y: 1, Sim: 0.8}, ms[2]}
	if got := digestOf(swapped); got.samePairs(want) {
		t.Errorf("digest blind to exchanged partners: %v", got)
	}
	// X and Y exchanged is the same pair.
	if got := digestOf([]apss.Match{ms[0].Flipped(), ms[1], ms[2]}); !got.samePairs(want) {
		t.Errorf("digest depends on which partner is called X")
	}
	// Item 12 belongs to pass 1, as ID 2 of it; its partner 9 wraps below 0.
	pd := newPassDigests(10, 3)
	pd.add(ms[3])
	if pd.pass(1).Pairs != 1 || pd.pass(0).Pairs != 0 || pd.prefixOf(1).Pairs != 1 {
		t.Errorf("pass attribution: %+v", pd)
	}
	pd.add(apss.Match{X: 15, Y: 14})
	if pd.pass(1).Pairs != 2 || pd.prefixOf(1).Pairs != 1 {
		t.Errorf("prefix attribution: %+v", pd)
	}
	close := want
	close.SimSum += 1e-12
	if !want.closeSims(close) || want.closeSims(digest{SimSum: want.SimSum + 1e-6}) {
		t.Error("similarity-sum tolerance")
	}
}

func TestVerdict(t *testing.T) {
	lower := manifestMetric{Name: "latency", Better: "lower", Bound: 0.05}
	higher := manifestMetric{Name: "throughput", Better: "higher", Bound: 0.05}
	tight := func(m float64) summary { return summary{Median: m, Q1: m * 0.99, Q3: m * 1.01} }
	wide := summary{Median: 100, Q1: 90, Q3: 110}
	for _, c := range []struct {
		m    manifestMetric
		a, b summary
		want string
	}{
		{lower, tight(100), tight(104), "ok"},
		{lower, tight(100), tight(106), "regressed"},
		{lower, tight(100), tight(50), "ok"},
		{higher, tight(100), tight(96), "ok"},
		{higher, tight(100), tight(94), "regressed"},
		{higher, tight(100), tight(150), "ok"},
		{lower, wide, tight(100), "unresolved"},
		{higher, tight(100), wide, "unresolved"},
		// A wide spread does not hide a change larger than it.
		{lower, wide, summary{Median: 200, Q1: 180, Q3: 220}, "regressed"},
		{lower, wide, summary{Median: 115, Q1: 105, Q3: 125}, "unresolved"},
	} {
		if got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.m.Name, c.a.Median, c.b.Median, got, c.want)
		}
	}
}
