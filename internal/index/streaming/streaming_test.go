package streaming

import (
	"errors"
	"math/rand"
	"testing"

	"sssj/internal/apss"
	"sssj/internal/metrics"
	"sssj/internal/stream"
	"sssj/internal/vec"
)

func unit(dims []uint32, vals []float64) vec.Vector {
	return vec.MustNew(dims, vals).Normalize()
}

func mustAdd(t *testing.T, ix Index, it stream.Item) []apss.Match {
	t.Helper()
	ms, err := ix.Add(it)
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

func TestTimeFilteringShrinksIndex(t *testing.T) {
	// Feed items that share one dimension so every Add touches the same
	// list; entries older than tau must be evicted.
	p := apss.Params{Theta: 0.5, Lambda: 0.5} // tau ≈ 1.386
	for _, k := range Kinds() {
		ix, err := New(k, p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			mustAdd(t, ix, stream.Item{ID: uint64(i), Time: float64(i), Vec: unit([]uint32{7}, []float64{1})})
		}
		if s := ix.Size(); s.PostingEntries > 4 {
			t.Fatalf("%v: index retained %d entries", k, s.PostingEntries)
		}
	}
}

func TestResidualsExpire(t *testing.T) {
	p := apss.Params{Theta: 0.7, Lambda: 1}
	for _, k := range []Kind{L2, L2AP} {
		ix, err := New(k, p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(1))
		for i := 0; i < 300; i++ {
			m := map[uint32]float64{}
			for j := 0; j < 5; j++ {
				m[uint32(r.Intn(50))] = 0.1 + r.Float64()
			}
			mustAdd(t, ix, stream.Item{ID: uint64(i), Time: float64(i), Vec: vec.FromMap(m).Normalize()})
		}
		if s := ix.Size(); s.Residuals > 5 {
			t.Fatalf("%v: residual index retained %d vectors", k, s.Residuals)
		}
	}
}

func TestL2APReindexes(t *testing.T) {
	// A vector that raises per-dimension maxima must trigger re-indexing
	// of live residuals in L2AP, and never in L2.
	p := apss.Params{Theta: 0.9, Lambda: 0.001} // long horizon, late indexing
	var cAP, cL2 metrics.Counters
	ixAP, err := New(L2AP, p, Options{Counters: &cAP})
	if err != nil {
		t.Fatal(err)
	}
	ixL2, err := New(L2, p, Options{Counters: &cL2})
	if err != nil {
		t.Fatal(err)
	}
	// Several spread-out vectors with small values, then a vector with a
	// much larger value on a shared dimension.
	items := []stream.Item{
		{ID: 0, Time: 0, Vec: unit([]uint32{1, 2, 3, 4}, []float64{1, 1, 1, 1})},
		{ID: 1, Time: 1, Vec: unit([]uint32{2, 3, 4, 5}, []float64{1, 1, 1, 1})},
		{ID: 2, Time: 2, Vec: unit([]uint32{1}, []float64{1})}, // max at dim 1 jumps to 1.0
	}
	for _, it := range items {
		mustAdd(t, ixAP, it)
		mustAdd(t, ixL2, it)
	}
	if cAP.Reindexings == 0 {
		t.Fatal("L2AP never re-indexed")
	}
	if cL2.Reindexings != 0 {
		t.Fatal("L2 re-indexed")
	}
}

func TestReindexedPairStillFound(t *testing.T) {
	// The re-indexing correctness scenario of §5.3: y's shared
	// coordinates sit in its residual prefix under the old maxima; when a
	// query with a new maximum arrives, the pair must still be found.
	p := apss.Params{Theta: 0.6, Lambda: 0.001}
	ix, err := New(L2AP, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	y := unit([]uint32{1, 2, 3, 4, 5}, []float64{1, 1, 1, 1, 2})
	x := unit([]uint32{1, 2, 3}, []float64{3, 3, 3}) // raises maxima on dims 1..3
	mustAdd(t, ix, stream.Item{ID: 0, Time: 0, Vec: y})
	ms := mustAdd(t, ix, stream.Item{ID: 1, Time: 1, Vec: x})
	want := vec.Dot(x, y) * p.Decay(1)
	if want < p.Theta {
		t.Fatalf("test setup broken: sim=%v below theta", want)
	}
	if len(ms) != 1 {
		t.Fatalf("pair lost after max growth: %+v", ms)
	}
}

func TestOutOfOrderRejected(t *testing.T) {
	p := apss.Params{Theta: 0.5, Lambda: 0.1}
	for _, k := range Kinds() {
		ix, err := New(k, p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		mustAdd(t, ix, stream.Item{ID: 0, Time: 10, Vec: unit([]uint32{1}, []float64{1})})
		if _, err := ix.Add(stream.Item{ID: 1, Time: 9, Vec: unit([]uint32{1}, []float64{1})}); !errors.Is(err, ErrTimeOrder) {
			t.Fatalf("%v: want ErrTimeOrder, got %v", k, err)
		}
	}
}

func TestInvalidParamsAndKernel(t *testing.T) {
	if _, err := New(L2, apss.Params{Theta: 2, Lambda: 1}, Options{}); err == nil {
		t.Fatal("bad theta accepted")
	}
	if _, err := New(L2AP, apss.Params{Theta: 0.5, Lambda: 0.1},
		Options{Kernel: apss.SlidingWindow{Tau: 1}}); !errors.Is(err, ErrKernel) {
		t.Fatal("L2AP accepted non-exponential kernel")
	}
	if _, err := New(Kind(42), apss.Params{Theta: 0.5, Lambda: 0.1}, Options{}); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestEmptyVectorsFlowThrough(t *testing.T) {
	p := apss.Params{Theta: 0.5, Lambda: 0.1}
	for _, k := range Kinds() {
		ix, err := New(k, p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if ms := mustAdd(t, ix, stream.Item{ID: 0, Time: 0, Vec: vec.Vector{}}); len(ms) != 0 {
			t.Fatalf("%v: empty vector matched", k)
		}
		v := unit([]uint32{1}, []float64{1})
		mustAdd(t, ix, stream.Item{ID: 1, Time: 1, Vec: v})
		ms := mustAdd(t, ix, stream.Item{ID: 2, Time: 1.5, Vec: v})
		if len(ms) != 1 {
			t.Fatalf("%v: pair after empty vector lost", k)
		}
	}
}

func TestSizeInfoFields(t *testing.T) {
	p := apss.Params{Theta: 0.5, Lambda: 0.001}
	ix, err := New(L2, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustAdd(t, ix, stream.Item{ID: 0, Time: 0, Vec: unit([]uint32{1, 2}, []float64{1, 1})})
	s := ix.Size()
	if s.PostingEntries == 0 || s.Lists == 0 || s.Residuals != 1 {
		t.Fatalf("size = %+v", s)
	}
}

func TestKindString(t *testing.T) {
	if INV.String() != "INV" || L2AP.String() != "L2AP" || L2.String() != "L2" {
		t.Fatal("kind names wrong")
	}
	if Kind(9).String() != "Kind(9)" {
		t.Fatal("unknown kind name")
	}
}

func TestL2IndexesFewerEntriesThanINV(t *testing.T) {
	// The premise of the L2 index: the ℓ2 bound keeps vector prefixes out
	// of the index.
	p := apss.Params{Theta: 0.9, Lambda: 0.01}
	var cINV, cL2 metrics.Counters
	ixINV, _ := New(INV, p, Options{Counters: &cINV})
	ixL2, _ := New(L2, p, Options{Counters: &cL2})
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		m := map[uint32]float64{}
		for j := 0; j < 10; j++ {
			m[uint32(r.Intn(100))] = 0.05 + r.Float64()
		}
		it := stream.Item{ID: uint64(i), Time: float64(i) * 0.1, Vec: vec.FromMap(m).Normalize()}
		mustAdd(t, ixINV, it)
		mustAdd(t, ixL2, it)
	}
	if cL2.IndexedEntries >= cINV.IndexedEntries {
		t.Fatalf("L2 indexed %d >= INV %d", cL2.IndexedEntries, cINV.IndexedEntries)
	}
}

// TestAddToAllocatesNothing: once the window is warm, an STR-L2 AddTo
// over a recurring pool of dimensions allocates nothing — the residual
// table, the slots, the arena blocks, the chain heads and the
// prefix-norm scratch are all reused.
func TestAddToAllocatesNothing(t *testing.T) {
	ix, err := New(L2, apss.Params{Theta: 0.5, Lambda: 0.1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := ix.(SinkIndex)
	r := rand.New(rand.NewSource(3))
	pool := make([]vec.Vector, 64)
	for i := range pool {
		m := map[uint32]float64{}
		for range 4 + r.Intn(8) {
			m[uint32(r.Intn(300))] = 0.1 + r.Float64()
		}
		pool[i] = vec.FromMap(m).Normalize()
	}
	n := 0
	sink := func(apss.Match) error { return nil }
	add := func() {
		// τ ≈ 6.9 at 0.1 per item keeps ~70 items live.
		if err := e.AddTo(stream.Item{ID: uint64(n), Time: float64(n) / 10, Vec: pool[n%len(pool)]}, sink); err != nil {
			t.Fatal(err)
		}
		n++
	}
	for range 5000 {
		add()
	}
	if allocs := testing.AllocsPerRun(1000, add); allocs != 0 {
		t.Fatalf("AddTo allocates %v objects per item in steady state", allocs)
	}
}
