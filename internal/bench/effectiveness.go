package bench

import (
	"context"
	"fmt"

	semtree "semtree"
	"semtree/internal/reqcheck"
	"semtree/internal/synth"
	"semtree/internal/vocab"
)

// effectivenessKs is the K sweep of Figure 8.
var effectivenessKs = []int{1, 2, 3, 5, 8, 12, 20}

// effectivenessSetup builds the Figure 8 corpus, index and query set:
// a text corpus with planted inconsistencies ingested through the NLP
// extractor, a SemTree index over it, and (up to) 100 requirement
// queries whose ground truth is the exact inconsistency scan perturbed
// by the simulated 5-annotator panel (§IV-B).
func effectivenessSetup(p Params, opts semtree.Options) (*semtree.Index, *synth.CorpusBundle, []reqcheck.Query, error) {
	reg := vocab.DefaultRegistry()
	gen := synth.New(synth.Config{
		Seed:              p.Seed,
		Docs:              120,
		SectionsPerDoc:    10,
		InconsistencyRate: 0.3,
	}, reg)
	bundle := gen.Corpus()
	if len(bundle.Skipped) > 0 {
		return nil, nil, nil, fmt.Errorf("bench: %d generated sentences failed extraction", len(bundle.Skipped))
	}
	opts.Registry = reg
	idx, err := semtree.Build(bundle.Corpus.Store, opts)
	if err != nil {
		return nil, nil, nil, err
	}

	panel := synth.NewPanel(5, 0.1, 0.02, p.Seed+3)
	var queries []reqcheck.Query
	for _, planted := range bundle.Planted {
		if len(queries) >= 100 { // the paper uses 100 requirements
			break
		}
		req := bundle.Corpus.Store.MustGet(planted.Requirement)
		exact := reqcheck.TrueInconsistencies(bundle.Corpus.Store, req, planted.Requirement, reg)
		gt := panel.GroundTruth(exact, nil)
		if len(gt) == 0 {
			continue
		}
		queries = append(queries, reqcheck.Query{Requirement: planted.Requirement, GroundTruth: gt})
	}
	if len(queries) == 0 {
		idx.Close()
		return nil, nil, nil, fmt.Errorf("bench: no evaluable effectiveness queries")
	}
	return idx, bundle, queries, nil
}

// Fig8 regenerates Figure 8: average precision and recall of the
// k-nearest inconsistency retrieval over 100 requirement queries, as K
// varies.
func Fig8(ctx context.Context, p Params) (*Figure, error) {
	p = p.withDefaults()
	idx, bundle, queries, err := effectivenessSetup(p, semtree.Options{Seed: p.Seed})
	if err != nil {
		return nil, err
	}
	defer idx.Close()

	reg := vocab.DefaultRegistry()
	points, err := reqcheck.Evaluate(ctx, reqcheck.SemTree(idx.Searcher()), bundle.Corpus.Store, reg, queries, effectivenessKs)
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID: "fig8", Title: "Effectiveness (avg over inconsistency queries)",
		XLabel: "K", YLabel: "precision / recall", YFmt: "%.3f",
		Notes: []string{
			fmt.Sprintf("%d queries over %d triples from %d documents; %d planted inconsistencies",
				len(queries), bundle.Corpus.NumTriples(), len(bundle.Corpus.Docs), len(bundle.Planted)),
			"ground truth: exact antinomy scan perturbed by a simulated 5-annotator panel (10% miss, 2% spurious)",
		},
	}
	precision := Series{Name: "Precision"}
	recall := Series{Name: "Recall"}
	for _, pt := range points {
		precision.X = append(precision.X, float64(pt.K))
		precision.Y = append(precision.Y, pt.Precision)
		recall.X = append(recall.X, float64(pt.K))
		recall.Y = append(recall.Y, pt.Recall)
	}
	fig.Series = append(fig.Series, precision, recall)
	return fig, nil
}
