// Package vec implements sparse vectors in a high-dimensional Euclidean
// space, the data representation used throughout the SSSJ system.
//
// A Vector stores its non-zero coordinates as two parallel slices sorted by
// dimension. All similarity computations in the paper assume vectors are
// normalized to unit L2 length, so dot products equal cosine similarities.
package vec

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
)

// Vector is a sparse vector: parallel slices of dimensions (strictly
// increasing) and the corresponding non-zero values. The zero value is the
// empty vector.
type Vector struct {
	Dims []uint32
	Vals []float64
}

// ErrUnsorted is returned by Validate when dimensions are not strictly
// increasing.
var ErrUnsorted = errors.New("vec: dimensions not strictly increasing")

// ErrZeroValue is returned by Validate when an explicit zero (or non-finite)
// value is stored.
var ErrZeroValue = errors.New("vec: stored value is zero or not finite")

// ErrLengthMismatch is returned by Validate when Dims and Vals differ in
// length.
var ErrLengthMismatch = errors.New("vec: dims and vals length mismatch")

// New builds a vector from parallel dim/value slices, copying, sorting, and
// merging duplicate dimensions (values for the same dimension are summed;
// a sum that overflows to ±Inf is rejected like an infinite value).
// Zero-valued entries are dropped.
func New(dims []uint32, vals []float64) (Vector, error) {
	if len(dims) != len(vals) {
		return Vector{}, ErrLengthMismatch
	}
	type entry struct {
		d uint32
		v float64
	}
	entries := make([]entry, 0, len(dims))
	for i, d := range dims {
		if math.IsNaN(vals[i]) || math.IsInf(vals[i], 0) {
			return Vector{}, ErrZeroValue
		}
		entries = append(entries, entry{d, vals[i]})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].d < entries[j].d })
	v := Vector{
		Dims: make([]uint32, 0, len(entries)),
		Vals: make([]float64, 0, len(entries)),
	}
	for i := 0; i < len(entries); {
		d := entries[i].d
		sum := 0.0
		for ; i < len(entries) && entries[i].d == d; i++ {
			sum += entries[i].v
		}
		if math.IsInf(sum, 0) {
			return Vector{}, ErrZeroValue
		}
		if sum != 0 {
			v.Dims = append(v.Dims, d)
			v.Vals = append(v.Vals, sum)
		}
	}
	return v, nil
}

// Owned is New — followed by Normalize when normalize is set — for slices
// the caller has just built and will not use again, which is what every
// parser and wire decoder has. Input that is already canonical (strictly
// increasing dimensions, finite non-zero values: every generated, encoded
// or re-sent vector) is adopted as is and scaled in place, in Normalize's
// exact operation order, so the result is bit-identical to
// New(dims, vals) then Normalize() without their five allocations.
// Anything else takes that slow path.
func Owned(dims []uint32, vals []float64, normalize bool) (Vector, error) {
	v := Vector{Dims: dims, Vals: vals}
	if v.Validate() != nil {
		v, err := New(dims, vals)
		if err == nil && normalize {
			v = v.Normalize()
		}
		return v, err
	}
	if !normalize {
		return v, nil
	}
	n := v.Norm()
	if len(vals) == 0 || n == 0 || math.IsInf(n, 0) {
		return v.Normalize(), nil // empty, or Σx² under/overflowed: the rescaling branch
	}
	for i := range vals {
		vals[i] /= n
	}
	return v, nil
}

// MustNew is New but panics on error; intended for tests and literals.
func MustNew(dims []uint32, vals []float64) Vector {
	v, err := New(dims, vals)
	if err != nil {
		panic(err)
	}
	return v
}

// FromMap builds a vector from a dimension-to-value map, dropping zeros.
func FromMap(m map[uint32]float64) Vector {
	dims := make([]uint32, 0, len(m))
	for d, val := range m {
		if val != 0 {
			dims = append(dims, d)
		}
	}
	sort.Slice(dims, func(i, j int) bool { return dims[i] < dims[j] })
	vals := make([]float64, len(dims))
	for i, d := range dims {
		vals[i] = m[d]
	}
	return Vector{Dims: dims, Vals: vals}
}

// Validate checks the structural invariants: equal-length slices, strictly
// increasing dimensions, finite non-zero values.
func (v Vector) Validate() error {
	if len(v.Dims) != len(v.Vals) {
		return ErrLengthMismatch
	}
	for i := range v.Dims {
		if i > 0 && v.Dims[i] <= v.Dims[i-1] {
			return ErrUnsorted
		}
		if v.Vals[i] == 0 || math.IsNaN(v.Vals[i]) || math.IsInf(v.Vals[i], 0) {
			return ErrZeroValue
		}
	}
	return nil
}

// NNZ returns the number of non-zero coordinates (denoted |x| in the paper).
func (v Vector) NNZ() int { return len(v.Dims) }

// IsEmpty reports whether the vector has no non-zero coordinates.
func (v Vector) IsEmpty() bool { return len(v.Dims) == 0 }

// Norm returns the L2 norm.
func (v Vector) Norm() float64 {
	s := 0.0
	for _, x := range v.Vals {
		s += x * x
	}
	return math.Sqrt(s)
}

// Sum returns the sum of coordinate values (denoted Σx in the paper).
func (v Vector) Sum() float64 {
	s := 0.0
	for _, x := range v.Vals {
		s += x
	}
	return s
}

// MaxVal returns the maximum coordinate value (denoted vm_x in the paper),
// or 0 for an empty vector.
func (v Vector) MaxVal() float64 {
	m := 0.0
	for _, x := range v.Vals {
		if x > m {
			m = x
		}
	}
	return m
}

// MaxDim returns the largest dimension index plus one (a dimensionality
// bound), or 0 for an empty vector.
func (v Vector) MaxDim() uint32 {
	if len(v.Dims) == 0 {
		return 0
	}
	return v.Dims[len(v.Dims)-1] + 1
}

// At returns the value at dimension d (0 when absent).
func (v Vector) At(d uint32) float64 {
	i := sort.Search(len(v.Dims), func(i int) bool { return v.Dims[i] >= d })
	if i < len(v.Dims) && v.Dims[i] == d {
		return v.Vals[i]
	}
	return 0
}

// Clone returns a deep copy.
func (v Vector) Clone() Vector {
	out := Vector{
		Dims: make([]uint32, len(v.Dims)),
		Vals: make([]float64, len(v.Vals)),
	}
	copy(out.Dims, v.Dims)
	copy(out.Vals, v.Vals)
	return out
}

// Normalize returns a unit-L2-norm copy of v. Normalizing an empty vector
// returns an empty vector. Values whose squares would overflow or
// underflow float64 are rescaled by the largest magnitude first, so even
// extreme inputs normalize without producing zeros, infinities, or NaNs.
func (v Vector) Normalize() Vector {
	if len(v.Vals) == 0 {
		return Vector{}
	}
	out := v.Clone()
	n := out.Norm()
	if n == 0 || math.IsInf(n, 0) {
		// Σx² overflowed (huge values) or underflowed (tiny values):
		// divide by the max magnitude first, making the largest value ±1.
		m := 0.0
		for _, x := range out.Vals {
			if a := math.Abs(x); a > m {
				m = a
			}
		}
		if m == 0 {
			return Vector{}
		}
		for i := range out.Vals {
			out.Vals[i] /= m
		}
		// Values that underflow to exactly 0 relative to the largest
		// coordinate carry no information; drop them.
		w := 0
		for i := range out.Vals {
			if out.Vals[i] != 0 {
				out.Dims[w] = out.Dims[i]
				out.Vals[w] = out.Vals[i]
				w++
			}
		}
		out.Dims, out.Vals = out.Dims[:w], out.Vals[:w]
		n = out.Norm()
		if n == 0 {
			return Vector{}
		}
	}
	for i := range out.Vals {
		out.Vals[i] /= n
	}
	return out
}

// IsUnit reports whether the vector's norm is 1 within tolerance eps.
func (v Vector) IsUnit(eps float64) bool {
	return math.Abs(v.Norm()-1) <= eps
}

// Dot computes the dot product of two sparse vectors by merging their
// sorted dimension lists.
func Dot(a, b Vector) float64 {
	s := 0.0
	i, j := 0, 0
	for i < len(a.Dims) && j < len(b.Dims) {
		switch {
		case a.Dims[i] == b.Dims[j]:
			s += a.Vals[i] * b.Vals[j]
			i++
			j++
		case a.Dims[i] < b.Dims[j]:
			i++
		default:
			j++
		}
	}
	return s
}

// Cosine computes the cosine similarity of two (not necessarily normalized)
// vectors. Returns 0 if either vector is empty.
func Cosine(a, b Vector) float64 {
	na, nb := a.Norm(), b.Norm()
	if na == 0 || nb == 0 {
		return 0
	}
	return Dot(a, b) / (na * nb)
}

// Prefix returns the prefix of v containing coordinates with dimension
// strictly less than d (denoted x' = x'_d in the paper). The returned
// vector shares storage with v.
func (v Vector) Prefix(d uint32) Vector {
	i := sort.Search(len(v.Dims), func(i int) bool { return v.Dims[i] >= d })
	return Vector{Dims: v.Dims[:i], Vals: v.Vals[:i]}
}

// Suffix returns the coordinates with dimension >= d (the indexed part in
// the prefix-filtering schemes). Shares storage with v.
func (v Vector) Suffix(d uint32) Vector {
	i := sort.Search(len(v.Dims), func(i int) bool { return v.Dims[i] >= d })
	return Vector{Dims: v.Dims[i:], Vals: v.Vals[i:]}
}

// SliceByIndex returns the sub-vector covering coordinate positions
// [from, to) in storage order. Shares storage with v.
func (v Vector) SliceByIndex(from, to int) Vector {
	return Vector{Dims: v.Dims[from:to], Vals: v.Vals[from:to]}
}

// PrefixNorms returns, for each coordinate position i, the L2 norm of the
// prefix *before* position i: out[i] = ||<v_0 .. v_{i-1}>||. This is the
// quantity ||x'_j|| stored in L2AP/L2 posting entries. out has length
// NNZ()+1; out[NNZ()] is the full norm.
func (v Vector) PrefixNorms() []float64 {
	return v.AppendPrefixNorms(make([]float64, 0, len(v.Vals)+1))
}

// AppendPrefixNorms appends PrefixNorms' values to dst and returns the
// extended slice, so a caller can reuse one buffer across vectors.
func (v Vector) AppendPrefixNorms(dst []float64) []float64 {
	sq := 0.0
	for _, x := range v.Vals {
		dst = append(dst, math.Sqrt(sq))
		sq += x * x
	}
	return append(dst, math.Sqrt(sq))
}

// Equal reports exact equality of dimensions and values.
func Equal(a, b Vector) bool {
	if len(a.Dims) != len(b.Dims) {
		return false
	}
	for i := range a.Dims {
		if a.Dims[i] != b.Dims[i] || a.Vals[i] != b.Vals[i] {
			return false
		}
	}
	return true
}

// String renders the vector as "(d:v, d:v, ...)".
func (v Vector) String() string {
	var sb strings.Builder
	sb.WriteByte('(')
	for i := range v.Dims {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%d:%.4g", v.Dims[i], v.Vals[i])
	}
	sb.WriteByte(')')
	return sb.String()
}
