package reqcheck

import (
	"context"
	"testing"

	"semtree/internal/semdist"
	"semtree/internal/synth"
	"semtree/internal/triple"
	"semtree/internal/vocab"
)

func tr(s string) triple.Triple {
	t, err := triple.ParseTriple(s)
	if err != nil {
		panic(err)
	}
	return t
}

func TestIsInconsistentPaperDefinition(t *testing.T) {
	reg := vocab.DefaultRegistry()
	req := tr("('OBSW001', Fun:accept_cmd, CmdType:start-up)")
	cases := []struct {
		other string
		want  bool
	}{
		{"('OBSW001', Fun:block_cmd, CmdType:start-up)", true},   // antonym, same S/O
		{"('OBSW001', Fun:reject_cmd, CmdType:start-up)", true},  // other antonym
		{"('OBSW002', Fun:block_cmd, CmdType:start-up)", false},  // different subject
		{"('OBSW001', Fun:block_cmd, CmdType:shutdown)", false},  // different object
		{"('OBSW001', Fun:send_msg, CmdType:start-up)", false},   // not antonyms
		{"('OBSW001', Fun:accept_cmd, CmdType:start-up)", false}, // same predicate
		{"('OBSW001', Fun:block_cmd, CmdType:startup)", true},    // synonym object
	}
	for _, c := range cases {
		if got := IsInconsistent(req, tr(c.other), reg); got != c.want {
			t.Errorf("IsInconsistent(req, %s) = %v, want %v", c.other, got, c.want)
		}
	}
	// Symmetry.
	conflict := tr("('OBSW001', Fun:block_cmd, CmdType:start-up)")
	if !IsInconsistent(conflict, req, reg) {
		t.Error("IsInconsistent not symmetric")
	}
}

func TestTargetPaperExample(t *testing.T) {
	// §II: for requirement (OBSW001, accept_cmd, start-up), possible
	// inconsistencies are retrieved with the query triple
	// (OBSW001, block_cmd, start-up).
	reg := vocab.DefaultRegistry()
	req := tr("('OBSW001', Fun:accept_cmd, CmdType:start-up)")
	target, ok := Target(req, reg)
	if !ok {
		t.Fatal("no target for accept_cmd")
	}
	want := tr("('OBSW001', Fun:block_cmd, CmdType:start-up)")
	if !target.Equal(want) {
		t.Fatalf("target = %v, want %v", target, want)
	}
	if !IsInconsistent(req, target, reg) {
		t.Fatal("target must be inconsistent with its requirement")
	}
}

func TestTargetsEnumerateAntonyms(t *testing.T) {
	reg := vocab.DefaultRegistry()
	req := tr("('OBSW001', Fun:accept_cmd, CmdType:start-up)")
	ts := Targets(req, reg)
	if len(ts) != 2 { // block_cmd and reject_cmd
		t.Fatalf("targets = %v", ts)
	}
	noAnt := tr("('OBSW001', Fun:monitor_param, InType:gyro_reading)")
	if got := Targets(noAnt, reg); got != nil {
		t.Fatalf("monitor_param has no antonyms, got %v", got)
	}
	if _, ok := Target(noAnt, reg); ok {
		t.Fatal("Target should fail without antonyms")
	}
}

func TestTrueInconsistenciesScan(t *testing.T) {
	reg := vocab.DefaultRegistry()
	store := triple.NewStore()
	req := tr("('OBSW001', Fun:accept_cmd, CmdType:start-up)")
	reqID := store.Add(req, triple.Provenance{})
	c1 := store.Add(tr("('OBSW001', Fun:block_cmd, CmdType:start-up)"), triple.Provenance{})
	store.Add(tr("('OBSW001', Fun:send_msg, MsgType:housekeeping)"), triple.Provenance{})
	c2 := store.Add(tr("('OBSW001', Fun:reject_cmd, CmdType:start-up)"), triple.Provenance{})
	got := TrueInconsistencies(store, req, reqID, reg)
	if len(got) != 2 || got[0] != c1 || got[1] != c2 {
		t.Fatalf("TrueInconsistencies = %v, want [%d %d]", got, c1, c2)
	}
}

func TestExactIndexRanksConflictsFirst(t *testing.T) {
	reg := vocab.DefaultRegistry()
	metric := semdist.MustNew(reg, semdist.Options{})
	store := triple.NewStore()
	conflict := store.Add(tr("('OBSW001', Fun:block_cmd, CmdType:start-up)"), triple.Provenance{})
	for i := 0; i < 50; i++ {
		store.Add(tr("('PDU9', Fun:send_msg, MsgType:housekeeping)"), triple.Provenance{})
	}
	idx := NewExactIndex(store, metric)
	target := tr("('OBSW001', Fun:block_cmd, CmdType:start-up)")
	ids, err := idx.KNearestIDs(context.Background(), target, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 || ids[0] != conflict {
		t.Fatalf("nearest = %v, want conflict %d first", ids, conflict)
	}
	if got, _ := idx.KNearestIDs(context.Background(), target, 0); got != nil {
		t.Fatalf("k=0 returned %v", got)
	}
}

func TestCheckerFindsPlantedConflicts(t *testing.T) {
	reg := vocab.DefaultRegistry()
	g := synth.New(synth.Config{Seed: 5, Docs: 15, InconsistencyRate: 0.5}, reg)
	b := g.Corpus()
	if len(b.Planted) < 5 {
		t.Fatalf("too few planted conflicts: %d", len(b.Planted))
	}
	metric := semdist.MustNew(reg, semdist.Options{})
	idx := NewExactIndex(b.Corpus.Store, metric)
	checker := NewChecker(idx.KNearestIDs, reg)

	found := 0
	for _, p := range b.Planted {
		req := b.Corpus.Store.MustGet(p.Requirement)
		cands, ok, err := checker.Candidates(context.Background(), req, 10)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("planted requirement %v has no target", req)
		}
		confirmed := checker.Confirmed(req, cands, b.Corpus.Store)
		for _, id := range confirmed {
			if id == p.Conflict {
				found++
				break
			}
		}
	}
	if found < len(b.Planted)*8/10 {
		t.Fatalf("checker found only %d/%d planted conflicts at K=10", found, len(b.Planted))
	}
}

func TestEvaluatePrecisionRecallShape(t *testing.T) {
	// The Figure 8 property: precision decreases and recall increases
	// monotonically (weakly) with K.
	reg := vocab.DefaultRegistry()
	g := synth.New(synth.Config{Seed: 9, Docs: 25, InconsistencyRate: 0.4}, reg)
	b := g.Corpus()
	metric := semdist.MustNew(reg, semdist.Options{})
	idx := NewExactIndex(b.Corpus.Store, metric)

	var queries []Query
	for _, p := range b.Planted {
		req := b.Corpus.Store.MustGet(p.Requirement)
		gt := TrueInconsistencies(b.Corpus.Store, req, p.Requirement, reg)
		queries = append(queries, Query{Requirement: p.Requirement, GroundTruth: gt})
	}
	ks := []int{1, 3, 5, 10, 20}
	points, err := Evaluate(context.Background(), idx.KNearestIDs, b.Corpus.Store, reg, queries, ks)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(ks) {
		t.Fatalf("points = %v", points)
	}
	for i := 1; i < len(points); i++ {
		if points[i].Recall < points[i-1].Recall-1e-9 {
			t.Fatalf("recall not monotone: %+v", points)
		}
		if points[i].Precision > points[i-1].Precision+1e-9 {
			t.Fatalf("precision not decreasing: %+v", points)
		}
	}
	if points[0].Precision < 0.5 {
		t.Fatalf("precision@1 = %f, conflicts not ranked first", points[0].Precision)
	}
	if last := points[len(points)-1]; last.Recall < 0.9 {
		t.Fatalf("recall@20 = %f, true sets not recovered", last.Recall)
	}
}

func TestEvaluateErrors(t *testing.T) {
	reg := vocab.DefaultRegistry()
	store := triple.NewStore()
	metric := semdist.MustNew(reg, semdist.Options{})
	idx := NewExactIndex(store, metric)
	if _, err := Evaluate(context.Background(), idx.KNearestIDs, store, reg, nil, []int{3}); err == nil {
		t.Fatal("expected error with no evaluable queries")
	}
	if _, err := Evaluate(context.Background(), idx.KNearestIDs, store, reg,
		[]Query{{Requirement: 42, GroundTruth: []triple.ID{1}}}, []int{3}); err == nil {
		t.Fatal("expected error for unknown requirement")
	}
}
