package semtree

import (
	"context"
	"sort"
	"testing"

	"semtree/internal/semdist"
	"semtree/internal/synth"
	"semtree/internal/triple"
)

func tr(s string) triple.Triple {
	t, err := triple.ParseTriple(s)
	if err != nil {
		panic(err)
	}
	return t
}

// search answers one query through a fresh Searcher built from opts
// and returns its ranked matches, failing the test on error.
func search(t *testing.T, ix *Index, q triple.Triple, opts ...SearchOption) []Match {
	t.Helper()
	res, err := ix.Searcher(opts...).Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	return res.Matches
}

func buildTestIndex(t *testing.T, n int, opts Options) (*Index, *synth.Generator) {
	t.Helper()
	g := synth.New(synth.Config{Seed: 21}, nil)
	store := triple.NewStore()
	for _, tp := range g.Triples(n) {
		store.Add(tp, triple.Provenance{Doc: "D"})
	}
	ix, err := Build(store, opts)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	t.Cleanup(func() { ix.Close() })
	return ix, g
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(nil, Options{}); err == nil {
		t.Fatal("nil store accepted")
	}
	if _, err := Build(triple.NewStore(), Options{Measure: "cosine"}); err == nil {
		t.Fatal("unknown measure accepted")
	}
	if _, err := Build(triple.NewStore(), Options{Weights: semdist.Weights{Alpha: 2, Beta: 0, Gamma: 0}}); err == nil {
		t.Fatal("invalid weights accepted")
	}
}

func TestBuildEmptyStore(t *testing.T) {
	ix, err := Build(triple.NewStore(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if got := search(t, ix, tr("('A', Fun:accept_cmd, CmdType:start-up)"), WithK(3)); len(got) != 0 {
		t.Fatalf("empty index KNN = %v", got)
	}
}

func TestKNearestFindsExactDuplicate(t *testing.T) {
	ix, _ := buildTestIndex(t, 500, Options{})
	probe := tr("('OBSW001', Fun:accept_cmd, CmdType:start-up)")
	id, err := ix.Insert(probe, triple.Provenance{Doc: "probe"})
	if err != nil {
		t.Fatal(err)
	}
	got := search(t, ix, probe, WithK(1))
	if len(got) != 1 || got[0].Dist > 1e-9 {
		t.Fatalf("exact duplicate not at distance 0: %+v", got)
	}
	if got[0].ID != id && !got[0].Triple.Equal(probe) {
		t.Fatalf("wrong match: %+v", got[0])
	}
	if got[0].Prov.Doc != "probe" && !got[0].Triple.Equal(probe) {
		t.Fatalf("provenance lost: %+v", got[0])
	}
}

func TestRangeReturnsSortedWithinRadius(t *testing.T) {
	ix, _ := buildTestIndex(t, 600, Options{})
	q := tr("('OBSW001', Fun:accept_cmd, CmdType:start-up)")
	got := search(t, ix, q, WithRadius(0.3))
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i].Dist < got[j].Dist }) {
		t.Fatal("range results not sorted")
	}
	for _, m := range got {
		if m.Dist > 0.3 {
			t.Fatalf("match outside radius: %+v", m)
		}
	}
	// Growing the radius can only grow the result set.
	wider := search(t, ix, q, WithRadius(0.5))
	if len(wider) < len(got) {
		t.Fatalf("wider range returned fewer results: %d < %d", len(wider), len(got))
	}
}

func TestPartitionedIndexMatchesSinglePartition(t *testing.T) {
	g := synth.New(synth.Config{Seed: 33}, nil)
	store := triple.NewStore()
	for _, tp := range g.Triples(1200) {
		store.Add(tp, triple.Provenance{})
	}
	single, err := Build(store, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	parted, err := Build(store, Options{Seed: 4, PartitionCapacity: 150, MaxPartitions: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer parted.Close()
	if parted.PartitionCount() < 2 {
		t.Fatalf("partitions = %d", parted.PartitionCount())
	}
	qGen := synth.New(synth.Config{Seed: 77}, nil)
	for q := 0; q < 25; q++ {
		query := qGen.RandomTriple()
		a := search(t, single, query, WithK(5))
		b := search(t, parted, query, WithK(5))
		if len(a) != len(b) {
			t.Fatalf("result sizes differ: %d vs %d", len(a), len(b))
		}
		for i := range a {
			if d := a[i].Dist - b[i].Dist; d > 1e-9 || d < -1e-9 {
				t.Fatalf("distances differ at %d: %f vs %f", i, a[i].Dist, b[i].Dist)
			}
		}
	}
}

func TestSemanticDistanceExposed(t *testing.T) {
	ix, _ := buildTestIndex(t, 10, Options{})
	a := tr("('OBSW001', Fun:accept_cmd, CmdType:start-up)")
	b := tr("('OBSW001', Fun:block_cmd, CmdType:start-up)")
	if d := ix.SemanticDistance(a, a); d != 0 {
		t.Fatalf("d(a,a) = %f", d)
	}
	if d := ix.SemanticDistance(a, b); d <= 0 || d > 1 {
		t.Fatalf("d(a,b) = %f", d)
	}
}

func TestCustomMeasureAndWeights(t *testing.T) {
	g := synth.New(synth.Config{Seed: 55}, nil)
	store := triple.NewStore()
	for _, tp := range g.Triples(200) {
		store.Add(tp, triple.Provenance{})
	}
	for _, measure := range []string{"path", "resnik", "lin", "jiangconrath", "leacockchodorow"} {
		ix, err := Build(store, Options{
			Measure: measure,
			Weights: semdist.Weights{Alpha: 0.2, Beta: 0.5, Gamma: 0.3},
		})
		if err != nil {
			t.Fatalf("Build(%s): %v", measure, err)
		}
		if _, err := ix.Searcher(WithK(3)).Search(context.Background(), tr("('OBSW001', Fun:accept_cmd, CmdType:start-up)")); err != nil {
			t.Fatalf("Search(%s): %v", measure, err)
		}
		ix.Close()
	}
}
