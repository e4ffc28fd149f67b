// Package fastmap implements the FastMap algorithm of Faloutsos & Lin
// (SIGMOD 1995), which SemTree uses to map triples — given only the
// semantic distance function of Eq. 1 — into a k-dimensional vector
// space indexable by a KD-tree (§III-A, feature iii).
//
// FastMap picks, per axis, two distant "pivot" objects via a linear-time
// heuristic and projects every object onto the line through them using
// the cosine law; subsequent axes work in the residual ("projected")
// distance, obtained by subtracting the coordinate differences already
// assigned. The Mapper retains the pivot objects and their coordinates,
// so out-of-sample objects (queries) can be mapped later with the same
// recursion.
package fastmap

import (
	"errors"
	"math"
	"math/rand"
)

// DistFunc is a non-negative, symmetric distance between two objects.
type DistFunc[T any] func(a, b T) float64

// Options configure Build.
type Options struct {
	// Dims is the target dimensionality k. Default 8.
	Dims int
	// PivotIterations is the number of passes of the choose-distant-
	// objects heuristic per axis. Default 5 (the paper's constant).
	PivotIterations int
	// Seed drives the initial pivot choice, making builds deterministic.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.Dims <= 0 {
		o.Dims = 8
	}
	if o.PivotIterations <= 0 {
		o.PivotIterations = 5
	}
	return o
}

// Mapper embeds objects into the k-dimensional FastMap space. It is
// immutable after Build and safe for concurrent use.
type Mapper[T any] struct {
	dims    int
	dist    DistFunc[T]
	pivotA  []T         // per axis
	pivotB  []T         // per axis
	coordsA [][]float64 // full coordinates of pivotA per axis
	coordsB [][]float64 // full coordinates of pivotB per axis
	dAB     []float64   // residual pivot distance at each axis (not squared)
}

// Build runs FastMap over objs and returns the mapper plus the
// coordinates of every input object (row i ↔ objs[i]).
func Build[T any](objs []T, dist DistFunc[T], opts Options) (*Mapper[T], [][]float64, error) {
	if dist == nil {
		return nil, nil, errors.New("fastmap: nil distance function")
	}
	opts = opts.withDefaults()
	n := len(objs)
	coords := make([][]float64, n)
	for i := range coords {
		coords[i] = make([]float64, opts.Dims)
	}
	m := &Mapper[T]{
		dims:    opts.Dims,
		dist:    dist,
		pivotA:  make([]T, opts.Dims),
		pivotB:  make([]T, opts.Dims),
		coordsA: make([][]float64, opts.Dims),
		coordsB: make([][]float64, opts.Dims),
		dAB:     make([]float64, opts.Dims),
	}
	if n == 0 {
		// A mapper with no pivots maps everything to the origin.
		for ax := 0; ax < opts.Dims; ax++ {
			m.coordsA[ax] = make([]float64, opts.Dims)
			m.coordsB[ax] = make([]float64, opts.Dims)
		}
		return m, coords, nil
	}

	rng := rand.New(rand.NewSource(opts.Seed))
	// resid2 is the squared residual distance at axis ax between
	// objects i and j: base² minus the squared coordinate differences
	// on axes < ax, clamped at 0 (the semantic distance need not be
	// Euclidean).
	resid2 := func(ax, i, j int) float64 {
		d := dist(objs[i], objs[j])
		r := d * d
		for h := 0; h < ax; h++ {
			diff := coords[i][h] - coords[j][h]
			r -= diff * diff
		}
		if r < 0 {
			return 0
		}
		return r
	}

	for ax := 0; ax < opts.Dims; ax++ {
		// Choose-distant-objects heuristic.
		b := rng.Intn(n)
		a := b
		for it := 0; it < opts.PivotIterations; it++ {
			a = argmaxResid(resid2, ax, b, n)
			nb := argmaxResid(resid2, ax, a, n)
			if nb == b {
				break // converged
			}
			b = nb
		}
		dab2 := resid2(ax, a, b)
		m.pivotA[ax], m.pivotB[ax] = objs[a], objs[b]
		m.dAB[ax] = math.Sqrt(dab2)
		if dab2 == 0 {
			// All residual distances are zero: every remaining
			// coordinate is 0 for every object.
			m.coordsA[ax] = append([]float64(nil), coords[a]...)
			m.coordsB[ax] = append([]float64(nil), coords[b]...)
			continue
		}
		for i := 0; i < n; i++ {
			dai2 := resid2(ax, a, i)
			dbi2 := resid2(ax, b, i)
			coords[i][ax] = (dai2 + dab2 - dbi2) / (2 * m.dAB[ax])
		}
		m.coordsA[ax] = append([]float64(nil), coords[a]...)
		m.coordsB[ax] = append([]float64(nil), coords[b]...)
	}
	return m, coords, nil
}

func argmaxResid(resid2 func(ax, i, j int) float64, ax, from, n int) int {
	best, bestD := 0, -1.0
	for i := 0; i < n; i++ {
		if i == from {
			continue
		}
		if d := resid2(ax, from, i); d > bestD {
			best, bestD = i, d
		}
	}
	return best
}

// Dims returns the dimensionality of the embedding.
func (m *Mapper[T]) Dims() int { return m.dims }

// Map embeds an out-of-sample object using the stored pivots. The
// recursion mirrors Build: the residual distance between obj and a
// pivot at axis ax subtracts the squared coordinate differences
// assigned on earlier axes.
func (m *Mapper[T]) Map(obj T) []float64 {
	out := make([]float64, m.dims)
	residTo := func(ax int, pivot T, pivotCoords []float64) float64 {
		d := m.dist(obj, pivot)
		r := d * d
		for h := 0; h < ax; h++ {
			diff := out[h] - pivotCoords[h]
			r -= diff * diff
		}
		if r < 0 {
			return 0
		}
		return r
	}
	for ax := 0; ax < m.dims; ax++ {
		dab := m.dAB[ax]
		if dab == 0 {
			continue // axis collapsed during build
		}
		dai2 := residTo(ax, m.pivotA[ax], m.coordsA[ax])
		dbi2 := residTo(ax, m.pivotB[ax], m.coordsB[ax])
		out[ax] = (dai2 + dab*dab - dbi2) / (2 * dab)
	}
	return out
}

// MapAll embeds a batch of out-of-sample objects.
func (m *Mapper[T]) MapAll(objs []T) [][]float64 {
	out := make([][]float64, len(objs))
	for i, o := range objs {
		out[i] = m.Map(o)
	}
	return out
}

// Snapshot is the serializable state of a Mapper: the pivot objects,
// their full coordinates, and the per-axis pivot distances. Combined
// with the (non-serializable) distance function it reconstructs the
// exact embedding, so an index can be persisted and reloaded.
type Snapshot[T any] struct {
	Dims    int
	PivotA  []T
	PivotB  []T
	CoordsA [][]float64
	CoordsB [][]float64
	DAB     []float64
}

// Snapshot extracts the mapper's serializable state.
func (m *Mapper[T]) Snapshot() Snapshot[T] {
	return Snapshot[T]{
		Dims:    m.dims,
		PivotA:  append([]T(nil), m.pivotA...),
		PivotB:  append([]T(nil), m.pivotB...),
		CoordsA: append([][]float64(nil), m.coordsA...),
		CoordsB: append([][]float64(nil), m.coordsB...),
		DAB:     append([]float64(nil), m.dAB...),
	}
}

// ConvertSnapshot maps a snapshot's pivot objects through f and keeps
// its geometry, for a mapper over another representation of the same
// objects (f must preserve every distance).
func ConvertSnapshot[T, U any](s Snapshot[T], f func(T) U) Snapshot[U] {
	out := Snapshot[U]{
		Dims: s.Dims, CoordsA: s.CoordsA, CoordsB: s.CoordsB, DAB: s.DAB,
		PivotA: make([]U, len(s.PivotA)),
		PivotB: make([]U, len(s.PivotB)),
	}
	for i, p := range s.PivotA {
		out.PivotA[i] = f(p)
	}
	for i, p := range s.PivotB {
		out.PivotB[i] = f(p)
	}
	return out
}

// FromSnapshot reconstructs a Mapper from a snapshot and the distance
// function it was built under. It validates the snapshot's internal
// consistency.
func FromSnapshot[T any](s Snapshot[T], dist DistFunc[T]) (*Mapper[T], error) {
	if dist == nil {
		return nil, errors.New("fastmap: nil distance function")
	}
	if s.Dims <= 0 {
		return nil, errors.New("fastmap: snapshot has non-positive dims")
	}
	if len(s.PivotA) != s.Dims || len(s.PivotB) != s.Dims ||
		len(s.CoordsA) != s.Dims || len(s.CoordsB) != s.Dims || len(s.DAB) != s.Dims {
		return nil, errors.New("fastmap: snapshot arrays disagree with dims")
	}
	for ax := 0; ax < s.Dims; ax++ {
		if s.DAB[ax] < 0 {
			return nil, errors.New("fastmap: negative pivot distance in snapshot")
		}
		if s.DAB[ax] > 0 && (len(s.CoordsA[ax]) != s.Dims || len(s.CoordsB[ax]) != s.Dims) {
			return nil, errors.New("fastmap: pivot coordinates disagree with dims")
		}
	}
	return &Mapper[T]{
		dims:    s.Dims,
		dist:    dist,
		pivotA:  s.PivotA,
		pivotB:  s.PivotB,
		coordsA: s.CoordsA,
		coordsB: s.CoordsB,
		dAB:     s.DAB,
	}, nil
}

// Euclidean returns the Euclidean distance between two coordinate
// vectors of equal length.
func Euclidean(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// Stress estimates the normalized embedding stress
// sqrt(Σ(d̂−d)² / Σd²) over up to samplePairs random object pairs,
// where d is the original distance and d̂ the Euclidean distance of the
// images. Lower is better; 0 means a perfect isometry.
func Stress[T any](objs []T, dist DistFunc[T], coords [][]float64, samplePairs int, seed int64) float64 {
	n := len(objs)
	if n < 2 || samplePairs <= 0 {
		return 0
	}
	rng := rand.New(rand.NewSource(seed))
	num, den := 0.0, 0.0
	for s := 0; s < samplePairs; s++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		d := dist(objs[i], objs[j])
		dh := Euclidean(coords[i], coords[j])
		num += (dh - d) * (dh - d)
		den += d * d
	}
	if den == 0 {
		return 0
	}
	return math.Sqrt(num / den)
}
