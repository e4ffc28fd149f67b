// Inconsistency detection: the paper's motivating case study (§II,
// §IV-B). A synthetic requirements corpus with planted conflicts is
// generated as text, extracted to triples by the NLP layer, indexed,
// and checked: for each requirement a target triple (antinomic
// predicate) queries the index; retrieved candidates are verified and
// scored against ground truth.
package main

import (
	"context"
	"fmt"
	"log"

	semtree "semtree"
	"semtree/internal/reqcheck"
	"semtree/internal/synth"
	"semtree/internal/vocab"
)

func main() {
	reg := vocab.DefaultRegistry()
	gen := synth.New(synth.Config{
		Seed:              7,
		Docs:              40,
		SectionsPerDoc:    8,
		InconsistencyRate: 0.3,
	}, reg)
	bundle := gen.Corpus()
	fmt.Printf("corpus: %d documents, %d triples, %d planted inconsistencies\n",
		len(bundle.Corpus.Docs), bundle.Corpus.NumTriples(), len(bundle.Planted))

	idx, err := semtree.Build(bundle.Corpus.Store, semtree.Options{Registry: reg, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	defer idx.Close()

	checker := reqcheck.NewChecker(reqcheck.SemTree(idx.Searcher()), reg)
	store := bundle.Corpus.Store

	// Walk the planted pairs: query with each requirement's target
	// triple and see whether the hidden conflict is retrieved.
	const k = 10
	found := 0
	for i, p := range bundle.Planted {
		req := store.MustGet(p.Requirement)
		cands, ok, err := checker.Candidates(context.Background(), req, k)
		if err != nil {
			log.Fatal(err)
		}
		if !ok {
			continue
		}
		confirmed := checker.Confirmed(req, cands, store)
		hit := false
		for _, id := range confirmed {
			if id == p.Conflict {
				hit = true
				found++
				break
			}
		}
		if i < 5 { // show the first few cases in detail
			target, _ := reqcheck.Target(req, reg)
			reqDoc, reqSec, _ := bundle.Corpus.SectionOf(p.Requirement)
			conDoc, conSec, _ := bundle.Corpus.SectionOf(p.Conflict)
			fmt.Printf("\nrequirement %s  [%s/%s]\n", req, reqDoc.ID, reqSec.ID)
			fmt.Printf("  target    %s\n", target)
			fmt.Printf("  planted   %s  [%s/%s]  retrieved=%v\n",
				store.MustGet(p.Conflict), conDoc.ID, conSec.ID, hit)
			fmt.Printf("  confirmed %d of %d candidates\n", len(confirmed), len(cands))
		}
	}
	fmt.Printf("\nretrieved %d / %d planted conflicts at K=%d\n", found, len(bundle.Planted), k)

	// Precision/recall sweep (Figure 8's protocol) against a simulated
	// annotator panel.
	panel := synth.NewPanel(5, 0.1, 0.02, 99)
	var queries []reqcheck.Query
	for _, p := range bundle.Planted {
		req := store.MustGet(p.Requirement)
		gt := panel.GroundTruth(reqcheck.TrueInconsistencies(store, req, p.Requirement, reg), nil)
		if len(gt) > 0 {
			queries = append(queries, reqcheck.Query{Requirement: p.Requirement, GroundTruth: gt})
		}
	}
	points, err := reqcheck.Evaluate(context.Background(), reqcheck.SemTree(idx.Searcher()), store, reg, queries, []int{1, 3, 5, 10, 20})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%-4s  %-9s  %-9s\n", "K", "Precision", "Recall")
	for _, pt := range points {
		fmt.Printf("%-4d  %-9.3f  %-9.3f\n", pt.K, pt.Precision, pt.Recall)
	}
}
