package semdist

import (
	"fmt"
	"math"
	"strconv"
	"sync"

	"semtree/internal/triple"
	"semtree/internal/vocab"
)

// Weights are the α, β, γ coefficients of Eq. 1. They must be
// non-negative and sum to 1.
type Weights struct {
	Alpha float64 // subject weight
	Beta  float64 // predicate weight
	Gamma float64 // object weight
}

// DefaultWeights weight the predicate and object slightly below the
// subject; the inconsistency case study is most sensitive to Beta
// (see the weight ablation bench).
var DefaultWeights = Weights{Alpha: 0.4, Beta: 0.3, Gamma: 0.3}

// Validate checks non-negativity and Σ = 1 (within float tolerance).
func (w Weights) Validate() error {
	if w.Alpha < 0 || w.Beta < 0 || w.Gamma < 0 {
		return fmt.Errorf("semdist: negative weight in %+v", w)
	}
	if s := w.Alpha + w.Beta + w.Gamma; math.Abs(s-1) > 1e-9 {
		return fmt.Errorf("semdist: weights sum to %g, want 1", s)
	}
	return nil
}

// Options configure a Metric.
type Options struct {
	// Weights are Eq. 1's α, β, γ. Zero value selects DefaultWeights.
	Weights Weights
	// Concept is the taxonomy measure for concept/concept pairs.
	// Nil selects WuPalmer (the paper's example measure).
	Concept ConceptMeasure
	// NumericLiterals, when true, compares int/float literals by
	// normalized absolute difference |a−b|/(|a|+|b|) instead of
	// Levenshtein on their lexical forms. The paper prescribes a string
	// distance for all same-typed literals; this switch is an ablation.
	NumericLiterals bool
	// DisableCache turns off memoization (useful to measure its effect).
	DisableCache bool
}

// Metric computes the semantic distance between triples (Eq. 1). It is
// immutable after construction and safe for concurrent use.
//
// Every distance goes through one kernel over resolved terms (see
// Resolve): a term's surface form is interned to a dense ID once, and a
// concept of a registered vocabulary is resolved once to that
// vocabulary's distance matrix and its concept index. A component
// distance is then a matrix load, a lookup in a pair memo keyed by two
// IDs, or a numeric difference; a memo hit takes no lock, allocates
// nothing and does no atomic read-modify-write, so concurrent callers
// do not contend. Distance and TermDistance resolve their arguments and
// call the same kernel.
type Metric struct {
	w        Weights
	concept  ConceptMeasure
	reg      *vocab.Registry
	numeric  bool
	useCache bool

	surfaces *interner // surface form → ID, plus its concept bindings

	// spaces holds one concept space per resolved prefix. Only a
	// binding miss (a surface form's first use under a prefix) reads it.
	// The registry is add-only, so a space stays valid forever; a prefix
	// the registry lacks is not cached, since it may be registered later.
	spaceMu sync.Mutex
	spaces  map[string]*conceptSpace

	pairs       *pairMemo // literal pairs, reset at pairMemoCap
	anchorPairs *pairMemo // literal pairs involving an anchor term, never reset
}

// conceptSpace is one vocabulary as the kernel sees it: the n×n
// distance matrix of its concepts under the metric's measure, built in
// full on first use (vocabularies hold tens to a few hundred concepts)
// and immutable afterwards. dist is nil under DisableCache.
type conceptSpace struct {
	v    *vocab.Vocabulary
	n    int
	dist []float64
}

// New builds a Metric over the vocabularies in reg.
func New(reg *vocab.Registry, opts Options) (*Metric, error) {
	w := opts.Weights
	if w == (Weights{}) {
		w = DefaultWeights
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	c := opts.Concept
	if c == nil {
		c = WuPalmer
	}
	if reg == nil {
		return nil, fmt.Errorf("semdist: nil vocabulary registry")
	}
	m := &Metric{
		w:           w,
		concept:     c,
		reg:         reg,
		numeric:     opts.NumericLiterals,
		useCache:    !opts.DisableCache,
		surfaces:    newInterner(),
		pairs:       newPairMemo(pairMemoCap),
		anchorPairs: newPairMemo(0),
		spaces:      make(map[string]*conceptSpace),
	}
	return m, nil
}

// MustNew is New for static setup; it panics on error.
func MustNew(reg *vocab.Registry, opts Options) *Metric {
	m, err := New(reg, opts)
	if err != nil {
		panic(err)
	}
	return m
}

// Weights returns the Eq. 1 coefficients in use.
func (m *Metric) Weights() Weights { return m.w }

// Registry returns the vocabulary registry the metric resolves
// concepts against.
func (m *Metric) Registry() *vocab.Registry { return m.reg }

// Distance computes Eq. 1 between two triples. The result is in [0, 1].
// Callers comparing one triple against many should Resolve it once and
// use ResolvedDistance.
func (m *Metric) Distance(a, b triple.Triple) float64 {
	var ra, rb Triple
	m.resolve(&ra, a)
	m.resolve(&rb, b)
	return m.distance(&ra, &rb)
}

// ResolvedDistance computes Eq. 1 between two triples resolved by this
// metric. It is bit-identical to Distance on the source triples.
func (m *Metric) ResolvedDistance(a, b Triple) float64 {
	return m.distance(&a, &b)
}

func (m *Metric) distance(a, b *Triple) float64 {
	return m.w.Alpha*m.termDistance(&a.s, &b.s) +
		m.w.Beta*m.termDistance(&a.p, &b.p) +
		m.w.Gamma*m.termDistance(&a.o, &b.o)
}

// TermDistance computes the component distance between two terms,
// dispatching per §III-A:
//
//   - both literals of the same type → string distance (Levenshtein,
//     normalized), or relative numeric difference with NumericLiterals;
//   - both concepts of the same vocabulary → the configured taxonomy
//     measure;
//   - anything else (cross-vocabulary concepts, unresolvable names,
//     literal vs concept, differently-typed literals) → fallback to
//     normalized Levenshtein over the surface forms, the most
//     conservative comparison available.
func (m *Metric) TermDistance(a, b triple.Term) float64 {
	var ra, rb Term
	m.resolveTerm(&ra, a)
	m.resolveTerm(&rb, b)
	return m.termDistance(&ra, &rb)
}

// ResolvedTermDistance is TermDistance over terms resolved by this
// metric.
func (m *Metric) ResolvedTermDistance(a, b Term) float64 {
	return m.termDistance(&a, &b)
}

// termDistance is the kernel behind every distance of the metric.
func (m *Metric) termDistance(a, b *Term) float64 {
	if a.id == b.id && a.kind == b.kind &&
		(a.kind == triple.Concept && a.prefix == b.prefix ||
			a.kind != triple.Concept && a.litType == b.litType) {
		return 0 // triple.Term.Equal
	}
	if a.kind == triple.Literal && b.kind == triple.Literal && a.litType == b.litType {
		if m.numeric && (a.litType == triple.LitInt || a.litType == triple.LitFloat) {
			return numericDistance(a.value, b.value)
		}
		return m.surfaceDistance(a, b)
	}
	// One space per prefix, so equal spaces mean the same vocabulary.
	if s := a.space; s != nil && s == b.space {
		if s.dist == nil {
			return m.concept(s.v, a.concept, b.concept)
		}
		return s.dist[int(a.concept)*s.n+int(b.concept)]
	}
	return m.surfaceDistance(a, b)
}

// surfaceDistance is the normalized Levenshtein distance of the two
// surface forms, memoized by their interned IDs.
func (m *Metric) surfaceDistance(a, b *Term) float64 {
	if a.id == b.id {
		return 0
	}
	if !m.useCache {
		return NormalizedLevenshtein(a.value, b.value)
	}
	memo := m.pairs
	if a.anchor || b.anchor {
		memo = m.anchorPairs
	}
	key := pairKey(a.id, b.id)
	if d, ok := memo.get(key); ok {
		return d
	}
	d := NormalizedLevenshtein(a.value, b.value)
	memo.put(key, d)
	return d
}

// space returns the concept space of the vocabulary registered under
// prefix, building it on first use, or nil when no vocabulary is
// registered under it.
func (m *Metric) space(prefix string) *conceptSpace {
	m.spaceMu.Lock()
	defer m.spaceMu.Unlock()
	if s, ok := m.spaces[prefix]; ok {
		return s
	}
	v, ok := m.reg.Get(prefix)
	if !ok {
		return nil
	}
	s := &conceptSpace{v: v, n: v.Len()}
	if m.useCache {
		n := s.n
		s.dist = make([]float64, n*n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				d := m.concept(v, vocab.ConceptID(i), vocab.ConceptID(j))
				s.dist[i*n+j] = d
				s.dist[j*n+i] = d
			}
		}
	}
	m.spaces[prefix] = s
	return s
}

func numericDistance(a, b string) float64 {
	fa, errA := strconv.ParseFloat(a, 64)
	fb, errB := strconv.ParseFloat(b, 64)
	if errA != nil || errB != nil {
		return NormalizedLevenshtein(a, b)
	}
	if fa == fb {
		return 0
	}
	return clamp01(math.Abs(fa-fb) / (math.Abs(fa) + math.Abs(fb)))
}
