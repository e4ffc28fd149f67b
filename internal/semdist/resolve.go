package semdist

import (
	"strings"

	"semtree/internal/triple"
	"semtree/internal/vocab"
)

// Term is a triple term resolved by one Metric: its surface form is
// interned to a dense ID and, for a concept of a registered vocabulary,
// it carries the vocabulary's concept space and the concept's index.
// Resolution happens once, so the distances computed from it need no
// string hashing and no registry lookup. A Term is meaningful only to
// the Metric that resolved it. Resolution sees the registry as it is at
// that moment: a vocabulary registered later does not apply to terms
// resolved before.
type Term struct {
	prefix  string
	value   string
	space   *conceptSpace // nil unless a known concept of a registered vocabulary
	id      uint32        // interned value
	concept vocab.ConceptID
	kind    triple.TermKind
	litType triple.LiteralType
	anchor  bool // literal pairs go to the never-reset anchor memo
}

// Triple is a triple resolved by one Metric (see Term).
type Triple struct {
	s, p, o Term
}

// ResolveTerm resolves one term.
func (m *Metric) ResolveTerm(t triple.Term) Term {
	var r Term
	m.resolveTerm(&r, t)
	return r
}

// Resolve resolves the three terms of a triple.
func (m *Metric) Resolve(t triple.Triple) Triple {
	var r Triple
	m.resolve(&r, t)
	return r
}

func (m *Metric) resolve(dst *Triple, t triple.Triple) {
	m.resolveTerm(&dst.s, t.Subject)
	m.resolveTerm(&dst.p, t.Predicate)
	m.resolveTerm(&dst.o, t.Object)
}

func (m *Metric) resolveTerm(dst *Term, t triple.Term) {
	e := m.surfaces.intern(t.Value)
	*dst = Term{
		prefix:  t.Prefix,
		value:   t.Value,
		id:      e.id,
		concept: vocab.NoConcept,
		kind:    t.Kind,
		litType: t.LitType,
	}
	if t.Kind == triple.Concept {
		if b := m.bind(e, t.Prefix); b != nil && b.concept != vocab.NoConcept {
			dst.space, dst.concept = b.space, b.concept
		}
	}
}

// bind resolves surface form e as a concept under prefix, caching the
// answer on e. It returns nil when no vocabulary is registered under
// prefix; that miss is not cached, since the registry is add-only and
// the prefix may be registered later.
func (m *Metric) bind(e *internEntry, prefix string) *binding {
	head := e.binds.Load()
	for b := head; b != nil; b = b.next {
		if b.prefix == prefix {
			return b
		}
	}
	s := m.space(prefix)
	if s == nil {
		return nil
	}
	b := &binding{prefix: strings.Clone(prefix), space: s, concept: vocab.NoConcept, next: head}
	if c, ok := s.v.Lookup(e.s); ok {
		b.concept = c
	}
	e.binds.CompareAndSwap(head, b)
	return b
}

// ResolveAnchor resolves a triple that many others will be compared
// against, such as a FastMap pivot. Distances are unchanged; the
// literal pairs it takes part in are memoized apart from the bounded
// general memo and never reset, so embedding a triple keeps hitting the
// memo however many other literal pairs the metric sees. That memo
// grows with the distinct terms compared against anchors, so resolve
// only a fixed, small set of triples this way.
func (m *Metric) ResolveAnchor(t triple.Triple) Triple {
	r := m.Resolve(t)
	r.s.anchor, r.p.anchor, r.o.anchor = true, true, true
	return r
}

// Triple returns the source triple.
func (t Triple) Triple() triple.Triple {
	return triple.New(t.s.source(), t.p.source(), t.o.source())
}

func (t *Term) source() triple.Term {
	return triple.Term{Kind: t.kind, Prefix: t.prefix, Value: t.value, LitType: t.litType}
}
