package vec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestNewSortsAndMerges(t *testing.T) {
	v, err := New([]uint32{5, 1, 5, 3}, []float64{2, 1, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	want := Vector{Dims: []uint32{1, 3, 5}, Vals: []float64{1, 4, 5}}
	if !Equal(v, want) {
		t.Fatalf("got %v want %v", v, want)
	}
}

func TestNewDropsZeroSums(t *testing.T) {
	v, err := New([]uint32{2, 2, 7}, []float64{1, -1, 3})
	if err != nil {
		t.Fatal(err)
	}
	want := Vector{Dims: []uint32{7}, Vals: []float64{3}}
	if !Equal(v, want) {
		t.Fatalf("got %v want %v", v, want)
	}
}

func TestNewLengthMismatch(t *testing.T) {
	if _, err := New([]uint32{1}, nil); err != ErrLengthMismatch {
		t.Fatalf("got %v want ErrLengthMismatch", err)
	}
}

func TestNewRejectsNaNInf(t *testing.T) {
	if _, err := New([]uint32{1}, []float64{math.NaN()}); err == nil {
		t.Fatal("NaN accepted")
	}
	if _, err := New([]uint32{1}, []float64{math.Inf(1)}); err == nil {
		t.Fatal("Inf accepted")
	}
	// Finite duplicates whose merged sum overflows (found by FuzzTextReader).
	if _, err := New([]uint32{2, 2}, []float64{1e308, 1e308}); err == nil {
		t.Fatal("duplicate sum overflowing to +Inf accepted")
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		v    Vector
		want error
	}{
		{"ok", MustNew([]uint32{1, 2}, []float64{1, 2}), nil},
		{"empty", Vector{}, nil},
		{"mismatch", Vector{Dims: []uint32{1}}, ErrLengthMismatch},
		{"unsorted", Vector{Dims: []uint32{2, 1}, Vals: []float64{1, 1}}, ErrUnsorted},
		{"dup", Vector{Dims: []uint32{1, 1}, Vals: []float64{1, 1}}, ErrUnsorted},
		{"zero", Vector{Dims: []uint32{1}, Vals: []float64{0}}, ErrZeroValue},
	}
	for _, c := range cases {
		if got := c.v.Validate(); got != c.want {
			t.Errorf("%s: got %v want %v", c.name, got, c.want)
		}
	}
}

func TestFromMap(t *testing.T) {
	v := FromMap(map[uint32]float64{9: 2, 3: 1, 4: 0})
	want := Vector{Dims: []uint32{3, 9}, Vals: []float64{1, 2}}
	if !Equal(v, want) {
		t.Fatalf("got %v want %v", v, want)
	}
}

func TestDotMergesSortedDims(t *testing.T) {
	a := MustNew([]uint32{1, 3, 5}, []float64{1, 2, 3})
	b := MustNew([]uint32{2, 3, 5, 9}, []float64{10, 4, 5, 7})
	if got := Dot(a, b); got != 2*4+3*5 {
		t.Fatalf("dot = %v", got)
	}
	if got := Dot(a, Vector{}); got != 0 {
		t.Fatalf("dot with empty = %v", got)
	}
}

func TestNormalizeAndNorm(t *testing.T) {
	v := MustNew([]uint32{0, 1}, []float64{3, 4})
	if v.Norm() != 5 {
		t.Fatalf("norm = %v", v.Norm())
	}
	u := v.Normalize()
	if !u.IsUnit(1e-12) {
		t.Fatalf("normalized norm = %v", u.Norm())
	}
	// original untouched
	if v.Vals[0] != 3 {
		t.Fatal("Normalize mutated receiver")
	}
	if !Equal(Vector{}.Normalize(), Vector{}) {
		t.Fatal("normalizing empty should return empty")
	}
}

func TestStats(t *testing.T) {
	v := MustNew([]uint32{2, 4, 8}, []float64{0.5, 0.25, 0.75})
	if v.NNZ() != 3 {
		t.Fatalf("nnz = %d", v.NNZ())
	}
	if v.Sum() != 1.5 {
		t.Fatalf("sum = %v", v.Sum())
	}
	if v.MaxVal() != 0.75 {
		t.Fatalf("maxval = %v", v.MaxVal())
	}
	if v.MaxDim() != 9 {
		t.Fatalf("maxdim = %v", v.MaxDim())
	}
	if (Vector{}).MaxVal() != 0 || (Vector{}).MaxDim() != 0 {
		t.Fatal("empty stats wrong")
	}
}

func TestAt(t *testing.T) {
	v := MustNew([]uint32{2, 4}, []float64{1, 2})
	if v.At(2) != 1 || v.At(4) != 2 || v.At(3) != 0 || v.At(100) != 0 {
		t.Fatal("At lookup wrong")
	}
}

func TestPrefixSuffix(t *testing.T) {
	v := MustNew([]uint32{1, 3, 5, 7}, []float64{1, 2, 3, 4})
	p := v.Prefix(5)
	if !Equal(p, MustNew([]uint32{1, 3}, []float64{1, 2})) {
		t.Fatalf("prefix = %v", p)
	}
	s := v.Suffix(5)
	if !Equal(s, MustNew([]uint32{5, 7}, []float64{3, 4})) {
		t.Fatalf("suffix = %v", s)
	}
	// prefix + suffix partition the vector for any split point
	for d := uint32(0); d < 9; d++ {
		if v.Prefix(d).NNZ()+v.Suffix(d).NNZ() != v.NNZ() {
			t.Fatalf("partition broken at %d", d)
		}
	}
}

func TestPrefixNorms(t *testing.T) {
	v := MustNew([]uint32{0, 1, 2}, []float64{3, 4, 12})
	pn := v.PrefixNorms()
	want := []float64{0, 3, 5, 13}
	if len(pn) != len(want) {
		t.Fatalf("len = %d", len(pn))
	}
	for i := range want {
		if !almostEq(pn[i], want[i], 1e-12) {
			t.Fatalf("pn[%d] = %v want %v", i, pn[i], want[i])
		}
	}
}

func TestCosine(t *testing.T) {
	a := MustNew([]uint32{0}, []float64{2})
	b := MustNew([]uint32{0}, []float64{5})
	if !almostEq(Cosine(a, b), 1, 1e-12) {
		t.Fatal("parallel cosine != 1")
	}
	c := MustNew([]uint32{1}, []float64{1})
	if Cosine(a, c) != 0 {
		t.Fatal("orthogonal cosine != 0")
	}
	if Cosine(a, Vector{}) != 0 {
		t.Fatal("empty cosine != 0")
	}
}

func TestCloneIsDeep(t *testing.T) {
	v := MustNew([]uint32{1}, []float64{2})
	c := v.Clone()
	c.Vals[0] = 99
	if v.Vals[0] != 2 {
		t.Fatal("clone shares storage")
	}
}

func TestString(t *testing.T) {
	v := MustNew([]uint32{1, 2}, []float64{0.5, 1})
	if got := v.String(); got != "(1:0.5, 2:1)" {
		t.Fatalf("string = %q", got)
	}
}

// randomVector builds a random sparse vector for property tests.
func randomVector(r *rand.Rand, maxDim, maxNNZ int) Vector {
	nnz := r.Intn(maxNNZ + 1)
	m := make(map[uint32]float64, nnz)
	for i := 0; i < nnz; i++ {
		m[uint32(r.Intn(maxDim))] = r.Float64() + 0.01
	}
	return FromMap(m)
}

func TestQuickDotSymmetric(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		a, b := randomVector(rr, 50, 20), randomVector(rr, 50, 20)
		return almostEq(Dot(a, b), Dot(b, a), 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: r}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCauchySchwarz(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		a, b := randomVector(rr, 50, 20), randomVector(rr, 50, 20)
		return Dot(a, b) <= a.Norm()*b.Norm()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickNormalizeUnit(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		v := randomVector(rr, 100, 30)
		if v.IsEmpty() {
			return true
		}
		return v.Normalize().IsUnit(1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickPrefixNormsMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		v := randomVector(rr, 100, 30)
		pn := v.PrefixNorms()
		for i := 1; i < len(pn); i++ {
			if pn[i] < pn[i-1] {
				return false
			}
		}
		return almostEq(pn[len(pn)-1], v.Norm(), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDotViaPrefixSuffixSplit(t *testing.T) {
	// dot(x,y) == dot(x, y.Prefix(d)) + dot(x, y.Suffix(d)) for every d.
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		x, y := randomVector(rr, 40, 15), randomVector(rr, 40, 15)
		full := Dot(x, y)
		for d := uint32(0); d <= 40; d += 7 {
			if !almostEq(full, Dot(x, y.Prefix(d))+Dot(x, y.Suffix(d)), 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDot(b *testing.B) {
	r := rand.New(rand.NewSource(42))
	x := randomVector(r, 100000, 300).Normalize()
	y := randomVector(r, 100000, 300).Normalize()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Dot(x, y)
	}
}

func TestNormalizeExtremeValues(t *testing.T) {
	// Squares overflow float64 but the vector must still normalize.
	huge := MustNew([]uint32{1, 2}, []float64{1e308, 1e308})
	u := huge.Normalize()
	if err := u.Validate(); err != nil {
		t.Fatalf("huge: %v (%v)", err, u)
	}
	if !u.IsUnit(1e-9) {
		t.Fatalf("huge norm = %v", u.Norm())
	}
	// Squares underflow to zero.
	tiny := MustNew([]uint32{1, 2}, []float64{1e-308, 1e-308})
	u = tiny.Normalize()
	if err := u.Validate(); err != nil {
		t.Fatalf("tiny: %v (%v)", err, u)
	}
	if !u.IsUnit(1e-9) {
		t.Fatalf("tiny norm = %v", u.Norm())
	}
	// Mixed magnitudes: the relatively-zero coordinate is dropped.
	mixed := MustNew([]uint32{1, 2}, []float64{1e308, 1e-308})
	u = mixed.Normalize()
	if err := u.Validate(); err != nil {
		t.Fatalf("mixed: %v (%v)", err, u)
	}
	if u.NNZ() != 1 || !u.IsUnit(1e-9) {
		t.Fatalf("mixed = %v", u)
	}
}

// TestOwnedMatchesNewNormalize: Owned is bit-identical to New followed by
// Normalize on canonical input (which it adopts without copying) and on
// everything that sends it down the slow path — unsorted and duplicate
// dimensions, stored zeros, norms that under- and overflow, length
// mismatches, non-finite values.
func TestOwnedMatchesNewNormalize(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		dims []uint32
		vals []float64
	}{
		{nil, nil},
		{[]uint32{}, []float64{}},
		{[]uint32{1, 5, 9}, []float64{0.5, -2, 3}},
		{[]uint32{9, 1, 5}, []float64{3, 0.5, -2}},           // unsorted
		{[]uint32{1, 1, 5}, []float64{0.5, 0.25, 2}},         // duplicate dimension
		{[]uint32{1, 5}, []float64{0, 2}},                    // stored zero
		{[]uint32{1, 5}, []float64{math.Copysign(0, -1), 2}}, // stored -0
		{[]uint32{1, 1}, []float64{2, -2}},                   // cancels to empty
		{[]uint32{1, 2}, []float64{1e308, 1e308}},            // Σx² overflows
		{[]uint32{1, 2}, []float64{1e-308, 1e-308}},          // Σx² underflows
		{[]uint32{1, 2}, []float64{1e308, 1e-308}},
		{[]uint32{1, 2}, []float64{1}},
		{[]uint32{1, 2}, []float64{1, math.NaN()}},
		{[]uint32{1, 2}, []float64{inf, 1}},
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		n := rng.Intn(12)
		dims, vals := make([]uint32, n), make([]float64, n)
		d := uint32(0)
		for j := range dims {
			d += 1 + uint32(rng.Intn(40))
			dims[j], vals[j] = d, rng.NormFloat64()
		}
		cases = append(cases, struct {
			dims []uint32
			vals []float64
		}{dims, vals})
	}
	same := func(a, b Vector) bool {
		if len(a.Dims) != len(b.Dims) || len(a.Vals) != len(b.Vals) {
			return false
		}
		for i := range a.Dims {
			if a.Dims[i] != b.Dims[i] || math.Float64bits(a.Vals[i]) != math.Float64bits(b.Vals[i]) {
				return false
			}
		}
		return true
	}
	for i, tc := range cases {
		for _, normalize := range []bool{false, true} {
			want, wantErr := New(tc.dims, tc.vals)
			if wantErr == nil && normalize {
				want = want.Normalize()
			}
			dims, vals := append([]uint32(nil), tc.dims...), append([]float64(nil), tc.vals...)
			got, err := Owned(dims, vals, normalize)
			if err != wantErr {
				t.Fatalf("case %d normalize=%v: err %v, want %v", i, normalize, err, wantErr)
			}
			if err == nil && !same(got, want) {
				t.Fatalf("case %d normalize=%v: Owned %v, New+Normalize %v", i, normalize, got, want)
			}
		}
	}

	// Canonical input is adopted, not copied.
	dims, vals := []uint32{2, 4}, []float64{3, 4}
	got, _ := Owned(dims, vals, true)
	if &got.Dims[0] != &dims[0] || &got.Vals[0] != &vals[0] {
		t.Fatal("Owned copied a canonical vector")
	}
	if n := testing.AllocsPerRun(100, func() {
		vals[0], vals[1] = 3, 4
		Owned(dims, vals, true)
	}); n != 0 {
		t.Fatalf("Owned allocates %v times on canonical input", n)
	}
}
