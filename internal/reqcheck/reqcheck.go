// Package reqcheck implements the paper's case study: finding
// inconsistencies in software requirements expressed as triples.
//
// Two triples are inconsistent iff (§II): (i) they have the same
// subject, (ii) they have the same object, and (iii) their predicates
// are linked by an antinomy relationship in a given vocabulary. The
// detection strategy queries the index with *target triples* — the
// requirement's subject and object with an antinomic predicate — and
// inspects the k-nearest results (§IV-B). The package also provides the
// precision/recall evaluation that regenerates Figure 8.
package reqcheck

import (
	"context"
	"fmt"

	"semtree"
	"semtree/internal/triple"
	"semtree/internal/vocab"
)

// sameTerm compares two terms modulo synonym resolution: concepts of
// the same vocabulary are equal when their surface forms resolve to the
// same concept.
func sameTerm(a, b triple.Term, reg *vocab.Registry) bool {
	if a.Equal(b) {
		return true
	}
	if a.IsConcept() && b.IsConcept() && a.Prefix == b.Prefix {
		if v, ok := reg.Get(a.Prefix); ok {
			ca, okA := v.Lookup(a.Value)
			cb, okB := v.Lookup(b.Value)
			return okA && okB && ca == cb
		}
	}
	return false
}

// IsInconsistent reports whether a and b are inconsistent requirements
// per the paper's three conditions.
func IsInconsistent(a, b triple.Triple, reg *vocab.Registry) bool {
	if !sameTerm(a.Subject, b.Subject, reg) {
		return false
	}
	if !sameTerm(a.Object, b.Object, reg) {
		return false
	}
	if !a.Predicate.IsConcept() || !b.Predicate.IsConcept() || a.Predicate.Prefix != b.Predicate.Prefix {
		return false
	}
	v, ok := reg.Get(a.Predicate.Prefix)
	if !ok {
		return false
	}
	pa, okA := v.Lookup(a.Predicate.Value)
	pb, okB := v.Lookup(b.Predicate.Value)
	return okA && okB && v.IsAntonym(pa, pb)
}

// Target builds the query triple for a requirement (§IV-B): "a target
// triple was obtained considering subject and object of the selected
// triple and as predicate an antinomic term". The first recorded
// antonym is used, making targets deterministic. ok is false when the
// predicate has no antinomy.
func Target(req triple.Triple, reg *vocab.Registry) (triple.Triple, bool) {
	if !req.Predicate.IsConcept() {
		return triple.Triple{}, false
	}
	v, ok := reg.Get(req.Predicate.Prefix)
	if !ok {
		return triple.Triple{}, false
	}
	p, ok := v.Lookup(req.Predicate.Value)
	if !ok {
		return triple.Triple{}, false
	}
	ants := v.Antonyms(p)
	if len(ants) == 0 {
		return triple.Triple{}, false
	}
	out := req
	out.Predicate = triple.NewConcept(req.Predicate.Prefix, v.Name(ants[0]))
	return out, true
}

// Targets returns one target triple per recorded antonym of the
// requirement's predicate.
func Targets(req triple.Triple, reg *vocab.Registry) []triple.Triple {
	if !req.Predicate.IsConcept() {
		return nil
	}
	v, ok := reg.Get(req.Predicate.Prefix)
	if !ok {
		return nil
	}
	p, ok := v.Lookup(req.Predicate.Value)
	if !ok {
		return nil
	}
	var out []triple.Triple
	for _, a := range v.Antonyms(p) {
		t := req
		t.Predicate = triple.NewConcept(req.Predicate.Prefix, v.Name(a))
		out = append(out, t)
	}
	return out
}

// TrueInconsistencies scans the store for every triple inconsistent
// with req (excluding req's own ID when provided as self). This is the
// exact ground truth the simulated annotator panel perturbs.
func TrueInconsistencies(store *triple.Store, req triple.Triple, self triple.ID, reg *vocab.Registry) []triple.ID {
	var out []triple.ID
	store.Each(func(id triple.ID, e triple.Entry) bool {
		if id != self && IsInconsistent(req, e.Triple, reg) {
			out = append(out, id)
		}
		return true
	})
	return out
}

// Index is the retrieval capability the checker needs: the k nearest
// stored triples to a query triple, as ranked IDs. SemTree adapts the
// SemTree index; the exact brute-force comparator passes its
// ExactIndex.KNearestIDs method value.
type Index func(ctx context.Context, q triple.Triple, k int) ([]triple.ID, error)

// SemTree adapts a SemTree searcher to Index: each query runs s with K
// set to k (s's other options, such as exact re-rank, apply) and
// returns the ranked IDs. k <= 0 returns no IDs.
func SemTree(s *semtree.Searcher) Index {
	return func(ctx context.Context, q triple.Triple, k int) ([]triple.ID, error) {
		res, err := s.With(semtree.WithK(k)).Search(ctx, q)
		if err != nil {
			return nil, err
		}
		ids := make([]triple.ID, len(res.Matches))
		for i, m := range res.Matches {
			ids[i] = m.ID
		}
		return ids, nil
	}
}

// Checker detects candidate inconsistencies by querying an index with
// target triples.
type Checker struct {
	idx Index
	reg *vocab.Registry
}

// NewChecker returns a checker over idx.
func NewChecker(idx Index, reg *vocab.Registry) *Checker {
	return &Checker{idx: idx, reg: reg}
}

// Candidates returns the k triples semantically closest to the
// requirement's target triple — the result set that "could then
// correspond to contradictions or conflicts" (§II). ok is false when
// the requirement's predicate has no antinomy (no target exists).
func (c *Checker) Candidates(ctx context.Context, req triple.Triple, k int) ([]triple.ID, bool, error) {
	target, ok := Target(req, c.reg)
	if !ok {
		return nil, false, nil
	}
	ids, err := c.idx(ctx, target, k)
	if err != nil {
		return nil, true, fmt.Errorf("reqcheck: query failed: %w", err)
	}
	return ids, true, nil
}

// Confirmed filters candidate IDs down to actual inconsistencies using
// the exact predicate — the verification step a reviewer would apply to
// the retrieved set.
func (c *Checker) Confirmed(req triple.Triple, candidates []triple.ID, store *triple.Store) []triple.ID {
	var out []triple.ID
	for _, id := range candidates {
		if e, ok := store.Get(id); ok && IsInconsistent(req, e.Triple, c.reg) {
			out = append(out, id)
		}
	}
	return out
}
