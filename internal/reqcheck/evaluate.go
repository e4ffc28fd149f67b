package reqcheck

import (
	"context"
	"fmt"
	"sort"

	"semtree/internal/semdist"
	"semtree/internal/triple"
	"semtree/internal/vocab"
)

// ExactIndex answers k-nearest queries by brute force over the true
// semantic distance (Eq. 1), with no embedding and no tree. It is the
// accuracy ceiling the SemTree index is compared against, and the
// reference oracle in tests.
type ExactIndex struct {
	store  *triple.Store
	metric *semdist.Metric
}

// NewExactIndex returns a brute-force index over store.
func NewExactIndex(store *triple.Store, metric *semdist.Metric) *ExactIndex {
	return &ExactIndex{store: store, metric: metric}
}

// KNearestIDs is the brute-force Index: pass the method value
// x.KNearestIDs wherever an Index is wanted. The scan honors the
// context between queries: an already-done ctx fails before scanning.
func (x *ExactIndex) KNearestIDs(ctx context.Context, q triple.Triple, k int) ([]triple.ID, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if k <= 0 {
		return nil, nil
	}
	type cand struct {
		id   triple.ID
		dist float64
	}
	var cands []cand
	x.store.Each(func(id triple.ID, e triple.Entry) bool {
		cands = append(cands, cand{id: id, dist: x.metric.Distance(q, e.Triple)})
		return true
	})
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].dist != cands[j].dist {
			return cands[i].dist < cands[j].dist
		}
		return cands[i].id < cands[j].id
	})
	if k > len(cands) {
		k = len(cands)
	}
	out := make([]triple.ID, k)
	for i := 0; i < k; i++ {
		out[i] = cands[i].id
	}
	return out, nil
}

// Query is one effectiveness-evaluation case: a requirement triple and
// the ground-truth set of its inconsistencies (T* in §IV-B).
type Query struct {
	Requirement triple.ID
	GroundTruth []triple.ID
}

// EvalPoint is one point of Figure 8: average precision and recall of
// the k-nearest result sets at a given K.
type EvalPoint struct {
	K         int
	Precision float64
	Recall    float64
}

// Evaluate runs the paper's effectiveness protocol (§IV-B): for each
// query requirement, build the target triple, run a K-nearest query,
// and score the returned set T against the ground truth T* with
//
//	P = |T ∩ T*| / |T|,   R = |T ∩ T*| / |T*|.
//
// Averages are taken over queries with a non-empty ground truth and a
// well-defined target. The result has one point per K in ks.
func Evaluate(ctx context.Context, idx Index, store *triple.Store, reg *vocab.Registry, queries []Query, ks []int) ([]EvalPoint, error) {
	var out []EvalPoint
	for _, k := range ks {
		var sumP, sumR float64
		n := 0
		for _, q := range queries {
			if len(q.GroundTruth) == 0 {
				continue
			}
			e, ok := store.Get(q.Requirement)
			if !ok {
				return nil, fmt.Errorf("reqcheck: unknown requirement triple %d", q.Requirement)
			}
			target, ok := Target(e.Triple, reg)
			if !ok {
				continue
			}
			ids, err := idx(ctx, target, k)
			if err != nil {
				return nil, err
			}
			if len(ids) == 0 {
				continue
			}
			truth := make(map[triple.ID]bool, len(q.GroundTruth))
			for _, id := range q.GroundTruth {
				truth[id] = true
			}
			hits := 0
			for _, id := range ids {
				if truth[id] {
					hits++
				}
			}
			sumP += float64(hits) / float64(len(ids))
			sumR += float64(hits) / float64(len(q.GroundTruth))
			n++
		}
		if n == 0 {
			return nil, fmt.Errorf("reqcheck: no evaluable queries at K=%d", k)
		}
		out = append(out, EvalPoint{K: k, Precision: sumP / float64(n), Recall: sumR / float64(n)})
	}
	return out, nil
}
