package dimorder

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"sssj/internal/stream"
	"sssj/internal/vec"
)

func items(vs ...vec.Vector) []stream.Item {
	out := make([]stream.Item, len(vs))
	for i, v := range vs {
		out[i] = stream.Item{ID: uint64(i), Vec: v}
	}
	return out
}

func TestNoneIsIdentity(t *testing.T) {
	m := Build(items(vec.MustNew([]uint32{3, 7}, []float64{1, 2})), None)
	if m != nil {
		t.Fatal("None should build nil map")
	}
	v := vec.MustNew([]uint32{3, 7}, []float64{1, 2})
	if !vec.Equal(m.Remap(v), v) {
		t.Fatal("nil map changed vector")
	}
	if m.RemapMax(vec.MaxTracker{1: 0.5}) == nil {
		t.Fatal("nil map dropped tracker")
	}
}

func TestDocFreqAscRanking(t *testing.T) {
	// dim 5 appears 3x, dim 1 appears 1x → dim 1 gets the lower rank.
	data := items(
		vec.MustNew([]uint32{5}, []float64{1}),
		vec.MustNew([]uint32{5}, []float64{1}),
		vec.MustNew([]uint32{1, 5}, []float64{1, 1}),
	)
	m := Build(data, DocFreqAsc)
	v := m.Remap(vec.MustNew([]uint32{1, 5}, []float64{2, 3}))
	// after remap, dim 1 (rare) should precede dim 5 (common)
	if v.Vals[0] != 2 || v.Vals[1] != 3 {
		t.Fatalf("remap scrambled values: %v", v)
	}
	if v.Dims[0] != 0 || v.Dims[1] != 1 {
		t.Fatalf("ranks = %v", v.Dims)
	}
}

func TestMaxValueDescRanking(t *testing.T) {
	data := items(
		vec.MustNew([]uint32{1, 2}, []float64{0.9, 0.1}),
		vec.MustNew([]uint32{2, 3}, []float64{0.2, 0.5}),
	)
	m := Build(data, MaxValueDesc)
	// max values: dim1=0.9, dim3=0.5, dim2=0.2 → ranks 0,1,2
	v := m.Remap(vec.MustNew([]uint32{1, 2, 3}, []float64{1, 2, 3}))
	if v.At(0) != 1 || v.At(1) != 3 || v.At(2) != 2 {
		t.Fatalf("remapped = %v", v)
	}
}

func TestUnseenDimsGetFreshRanks(t *testing.T) {
	m := Build(items(vec.MustNew([]uint32{1}, []float64{1})), DocFreqAsc)
	v := m.Remap(vec.MustNew([]uint32{99, 100}, []float64{1, 2}))
	if v.NNZ() != 2 {
		t.Fatalf("remap lost coords: %v", v)
	}
	// stable across calls
	v2 := m.Remap(vec.MustNew([]uint32{99}, []float64{5}))
	if v2.Dims[0] != v.Dims[0] {
		t.Fatal("unseen dim rank not stable")
	}
}

func TestRemapMaxDropsUnseen(t *testing.T) {
	m := Build(items(vec.MustNew([]uint32{1}, []float64{1})), DocFreqAsc)
	out := m.RemapMax(vec.MaxTracker{1: 0.7, 42: 0.9})
	if len(out) != 1 {
		t.Fatalf("remapped tracker = %v", out)
	}
}

func TestQuickDotInvariantUnderRemap(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var data []stream.Item
		for i := 0; i < 20; i++ {
			m := map[uint32]float64{}
			for j := 0; j < 1+r.Intn(6); j++ {
				m[uint32(r.Intn(25))] = r.Float64() + 0.01
			}
			data = append(data, stream.Item{ID: uint64(i), Vec: vec.FromMap(m)})
		}
		for _, s := range []Strategy{DocFreqAsc, MaxValueDesc} {
			dm := Build(data, s)
			for i := 1; i < len(data); i++ {
				a, b := data[i-1].Vec, data[i].Vec
				if math.Abs(vec.Dot(a, b)-vec.Dot(dm.Remap(a), dm.Remap(b))) > 1e-9 {
					return false
				}
				if err := dm.Remap(a).Validate(); err != nil {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestStrategyString(t *testing.T) {
	if None.String() != "none" || DocFreqAsc.String() != "docfreq" ||
		MaxValueDesc.String() != "maxval" || Strategy(9).String() != "unknown" {
		t.Fatal("strategy names wrong")
	}
}

// TestConcurrentRemapRace is the regression test for the shared-map
// mutation bug: Remap assigns fresh ranks to dimensions unseen at build
// time, which mutates m.perm/m.next. Before the Map carried its lock,
// concurrent Remap calls raced on that assignment (run with -race to see
// it on the pre-fix code). It also checks the semantic contract that
// survives the race fix: every unseen dimension gets exactly one stable
// rank, and no two dimensions share one.
func TestConcurrentRemapRace(t *testing.T) {
	m := Build(items(vec.MustNew([]uint32{1, 2}, []float64{1, 1})), DocFreqAsc)
	const workers = 8
	const perWorker = 200
	var wg sync.WaitGroup
	got := make([][]uint32, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ranks := make([]uint32, perWorker)
			for i := 0; i < perWorker; i++ {
				// Every worker touches the same unseen dims 1000..1199,
				// plus the built dims, in the same order.
				v := m.Remap(vec.MustNew([]uint32{1, uint32(1000 + i)}, []float64{1, 2}))
				for j, d := range v.Dims {
					if v.Vals[j] == 2 {
						ranks[i] = d
					}
				}
			}
			got[w] = ranks
		}(w)
	}
	wg.Wait()
	seen := map[uint32]bool{}
	for i := 0; i < perWorker; i++ {
		r := got[0][i]
		if seen[r] {
			t.Fatalf("rank %d assigned to two dimensions", r)
		}
		seen[r] = true
		for w := 1; w < workers; w++ {
			if got[w][i] != r {
				t.Fatalf("dim %d rank unstable across goroutines: %d vs %d", 1000+i, r, got[w][i])
			}
		}
	}
}

func TestFromRanksAndSame(t *testing.T) {
	ranks := map[uint32]uint32{7: 0, 3: 1, 9: 2}
	m := FromRanks(ranks)
	if !m.Same(ranks) {
		t.Fatal("FromRanks map differs from its source ranking")
	}
	if m.Len() != 3 {
		t.Fatalf("Len = %d", m.Len())
	}
	v := m.Remap(vec.MustNew([]uint32{3, 7, 9}, []float64{1, 2, 3}))
	if v.At(0) != 2 || v.At(1) != 1 || v.At(2) != 3 {
		t.Fatalf("remapped = %v", v)
	}
	if m.Same(map[uint32]uint32{7: 0, 3: 2, 9: 1}) {
		t.Fatal("Same ignored a rank change")
	}
	if m.Same(map[uint32]uint32{7: 0}) {
		t.Fatal("Same ignored a size change")
	}
	// Fresh ranks grow the map, so the ranking no longer matches.
	m.Remap(vec.MustNew([]uint32{55}, []float64{1}))
	if m.Same(ranks) {
		t.Fatal("Same ignored a fresh-rank assignment")
	}
	var nilMap *Map
	if !nilMap.Same(nil) || nilMap.Same(ranks) || nilMap.Len() != 0 {
		t.Fatal("nil map Same/Len wrong")
	}
}

func TestInverseRoundTrip(t *testing.T) {
	data := items(
		vec.MustNew([]uint32{2, 11}, []float64{0.3, 0.8}),
		vec.MustNew([]uint32{2, 5}, []float64{0.9, 0.1}),
	)
	m := Build(data, MaxValueDesc)
	// Touch an unseen dim so the inverse covers fresh ranks too.
	orig := vec.MustNew([]uint32{2, 5, 11, 40}, []float64{1, 2, 3, 4})
	ranked := m.Remap(orig)
	inv := m.Inverse()
	if got := inv.Remap(ranked); !vec.Equal(got, orig) {
		t.Fatalf("inverse round trip: %v != %v", got, orig)
	}
	var nilMap *Map
	if nilMap.Inverse() != nil {
		t.Fatal("nil map inverse should be nil")
	}
}
