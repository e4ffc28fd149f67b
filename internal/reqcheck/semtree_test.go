package reqcheck

import (
	"context"
	"testing"

	"semtree"
	"semtree/internal/semdist"
	"semtree/internal/synth"
	"semtree/internal/triple"
	"semtree/internal/vocab"
)

func TestKNearestApproximatesExactRanking(t *testing.T) {
	// The embedded k-NN must agree well with the brute-force semantic
	// ranking: for most queries, a large fraction of the true top-5 by
	// Eq. 1 appears in the index's top-10.
	g := synth.New(synth.Config{Seed: 21}, nil)
	store := triple.NewStore()
	for _, tp := range g.Triples(800) {
		store.Add(tp, triple.Provenance{Doc: "D"})
	}
	ix, err := semtree.Build(store, semtree.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	exact := NewExactIndex(store, semdist.MustNew(vocab.DefaultRegistry(), semdist.Options{}))
	index := SemTree(ix.Searcher())
	qGen := synth.New(synth.Config{Seed: 99}, nil)
	totalOverlap, queries := 0, 30
	for q := 0; q < queries; q++ {
		query := qGen.RandomTriple()
		wantIDs, err := exact.KNearestIDs(context.Background(), query, 5)
		if err != nil {
			t.Fatal(err)
		}
		gotIDs, err := index(context.Background(), query, 10)
		if err != nil {
			t.Fatal(err)
		}
		// Compare by triple content: duplicates make ID sets ambiguous.
		wantKeys := map[string]bool{}
		for _, id := range wantIDs {
			wantKeys[store.MustGet(id).Key()] = true
		}
		gotKeys := map[string]bool{}
		for _, id := range gotIDs {
			gotKeys[store.MustGet(id).Key()] = true
		}
		for k := range wantKeys {
			if gotKeys[k] {
				totalOverlap++
			}
		}
	}
	// On average at least 3 of the true top-5 triple values in our top-10.
	if totalOverlap < queries*3 {
		t.Fatalf("embedding recall too low: %d/%d", totalOverlap, queries*5)
	}
}

func TestInconsistencyDetectionEndToEnd(t *testing.T) {
	// The paper's full pipeline: corpus with planted conflicts →
	// SemTree index → target-triple k-NN → confirmed inconsistencies.
	g := synth.New(synth.Config{Seed: 41, Docs: 20, InconsistencyRate: 0.4}, nil)
	bundle := g.Corpus()
	ix, err := semtree.Build(bundle.Corpus.Store, semtree.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	reg := vocab.DefaultRegistry()
	checker := NewChecker(SemTree(ix.Searcher()), reg)
	found := 0
	for _, p := range bundle.Planted {
		req := bundle.Corpus.Store.MustGet(p.Requirement)
		cands, ok, err := checker.Candidates(context.Background(), req, 10)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			continue
		}
		for _, id := range checker.Confirmed(req, cands, bundle.Corpus.Store) {
			if id == p.Conflict {
				found++
				break
			}
		}
	}
	if found < len(bundle.Planted)*7/10 {
		t.Fatalf("end-to-end found %d/%d planted conflicts", found, len(bundle.Planted))
	}
}

// TestSemTreeAdapterKeepsSearcherOptions: the adapter sets only K, so
// a searcher built for exact re-rank still re-ranks, and k <= 0 asks
// for nothing.
func TestSemTreeAdapterKeepsSearcherOptions(t *testing.T) {
	g := synth.New(synth.Config{Seed: 21}, nil)
	store := triple.NewStore()
	for _, tp := range g.Triples(300) {
		store.Add(tp, triple.Provenance{})
	}
	ix, err := semtree.Build(store, semtree.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	q := synth.New(synth.Config{Seed: 5}, nil).RandomTriple()
	s := ix.Searcher(semtree.WithExactFactor(4))
	want, err := s.With(semtree.WithK(5)).Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := SemTree(s)(context.Background(), q, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want.Matches) {
		t.Fatalf("adapter returned %d IDs, searcher %d matches", len(got), len(want.Matches))
	}
	for i, m := range want.Matches {
		if got[i] != m.ID {
			t.Fatalf("rank %d: adapter ID %d, searcher ID %d", i, got[i], m.ID)
		}
	}
	if ids, err := SemTree(s)(context.Background(), q, 0); err != nil || len(ids) != 0 {
		t.Fatalf("k=0: ids=%v err=%v", ids, err)
	}
}
