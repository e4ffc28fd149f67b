package semdist

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"semtree/internal/fastmap"
	"semtree/internal/synth"
	"semtree/internal/triple"
	"semtree/internal/vocab"
)

// edgeTriples cover every dispatch branch of the kernel beyond what the
// generator emits: unresolvable concepts and prefixes, cross-vocabulary
// pairs, synonyms, literal-vs-concept and differently-typed literals,
// numeric forms (including one that overflows float64 and an int-typed
// literal that does not parse), NUL bytes and empty strings.
func edgeTriples() []triple.Triple {
	lit := triple.NewLiteral
	con := triple.NewConcept
	badInt := triple.Term{Kind: triple.Literal, Value: "x1", LitType: triple.LitInt}
	odd := triple.Term{Kind: 7, Prefix: "Fun", Value: "accept_cmd"}
	terms := [][3]triple.Term{
		{lit("OBSW001"), con("Fun", "accept_cmd"), con("CmdType", "start-up")},
		{lit("OBSW001"), con("Fun", "accept_command"), con("CmdType", "accept_cmd")},
		{con("CmdType", "start-up"), con("Fun", "no_such_function"), lit("start-up")},
		{lit("42"), con("Zzz", "accept_cmd"), lit("42.0")},
		{triple.NewString("42"), con("Fun", "block_cmd"), lit("-7")},
		{lit("3.5"), con("", "computer"), lit("1e999")},
		{lit("true"), con("std", "computer"), badInt},
		{lit("ab\x00c"), odd, lit("abc")},
		{lit("ab"), con("Fun", "send_msg"), lit("c\x00abc")},
		{lit(""), triple.NewString(""), con("", "")},
		{lit("résumé"), con("MsgType", "housekeeping"), lit("100")},
		{lit("resume"), con("InType", "pre-launch_phase"), lit("101")},
	}
	out := make([]triple.Triple, len(terms))
	for i, ts := range terms {
		out[i] = triple.New(ts[0], ts[1], ts[2])
	}
	return out
}

func propertyPool(n int) []triple.Triple {
	g := synth.New(synth.Config{Seed: 41, Actors: 400}, nil)
	return append(g.Triples(n), edgeTriples()...)
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// entries reports the memo's current entry count and slot count.
func (p *pairMemo) entries() (used, slots int) {
	t := p.tab.Load()
	return int(t.used.Load()), len(t.slots)
}

// TestResolvedBitIdentity: every entry point of a caching metric —
// Distance, TermDistance and the resolved forms — returns exactly the
// bits of an uncached metric, on first touch and on memo hits, across
// measures, weights and the NumericLiterals switch.
func TestResolvedBitIdentity(t *testing.T) {
	pool := propertyPool(300)
	configs := []Options{
		{},
		{NumericLiterals: true},
		{Weights: Weights{Alpha: 0.2, Beta: 0.5, Gamma: 0.3}},
		{Weights: Weights{Alpha: 1}, NumericLiterals: true},
	}
	for _, name := range MeasureNames() {
		m, _ := MeasureByName(name)
		configs = append(configs, Options{Concept: m})
	}
	for ci, opts := range configs {
		cached := testMetric(t, opts)
		raw := opts
		raw.DisableCache = true
		uncached := testMetric(t, raw)
		resolved := make([]Triple, len(pool))
		for i, tp := range pool {
			resolved[i] = cached.Resolve(tp)
		}
		r := rand.New(rand.NewSource(int64(ci)))
		check := func(i, j int) {
			a, b := pool[i], pool[j]
			want := uncached.Distance(a, b)
			if got := cached.Distance(a, b); !sameBits(got, want) {
				t.Fatalf("config %d: Distance(%v, %v) = %v, uncached %v", ci, a, b, got, want)
			}
			if got := cached.ResolvedDistance(resolved[i], resolved[j]); !sameBits(got, want) {
				t.Fatalf("config %d: ResolvedDistance(%v, %v) = %v, uncached %v", ci, a, b, got, want)
			}
			for p := 0; p < 3; p++ {
				ta, tb := a.Project(p), b.Project(p)
				want := uncached.TermDistance(ta, tb)
				if got := cached.TermDistance(ta, tb); !sameBits(got, want) {
					t.Fatalf("config %d: TermDistance(%v, %v) = %v, uncached %v", ci, ta, tb, got, want)
				}
				ra, rb := cached.ResolveTerm(ta), cached.ResolveTerm(tb)
				if got := cached.ResolvedTermDistance(ra, rb); !sameBits(got, want) {
					t.Fatalf("config %d: ResolvedTermDistance(%v, %v) = %v, uncached %v", ci, ta, tb, got, want)
				}
			}
		}
		edge := len(pool) - len(edgeTriples())
		for pass := 0; pass < 2; pass++ { // first touch, then memo hits
			for i := edge; i < len(pool); i++ {
				for j := range pool {
					check(i, j)
				}
			}
			for k := 0; k < 3000; k++ {
				check(r.Intn(len(pool)), r.Intn(len(pool)))
			}
		}
	}
}

// TestResolvedRoundTrip: a resolved triple converts back to its source.
func TestResolvedRoundTrip(t *testing.T) {
	m := testMetric(t, Options{})
	for _, tp := range propertyPool(50) {
		if back := m.Resolve(tp).Triple(); back != tp {
			t.Fatalf("round trip %#v → %#v", tp, back)
		}
		if back := m.ResolveAnchor(tp).Triple(); back != tp {
			t.Fatalf("anchor round trip %#v → %#v", tp, back)
		}
	}
}

// TestMapperOverResolvedTriples: FastMap over resolved triples — built
// directly, and rebuilt from its source-triple snapshot with anchored
// pivots — yields the coordinates of FastMap over the source triples
// under an uncached metric, bit for bit.
func TestMapperOverResolvedTriples(t *testing.T) {
	g := synth.New(synth.Config{Seed: 43, Actors: 400}, nil)
	ts := append(g.Triples(600), edgeTriples()...)
	metric := testMetric(t, Options{})
	uncached := testMetric(t, Options{DisableCache: true})
	opts := fastmap.Options{Dims: 8, Seed: 3}

	want, wantCoords, err := fastmap.Build(ts, uncached.Distance, opts)
	if err != nil {
		t.Fatal(err)
	}
	rs := make([]Triple, len(ts))
	for i, tp := range ts {
		rs[i] = metric.Resolve(tp)
	}
	got, gotCoords, err := fastmap.Build(rs, metric.ResolvedDistance, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantCoords {
		for d := range wantCoords[i] {
			if !sameBits(gotCoords[i][d], wantCoords[i][d]) {
				t.Fatalf("build coordinate %d/%d: %v, want %v", i, d, gotCoords[i][d], wantCoords[i][d])
			}
		}
	}

	persisted := fastmap.ConvertSnapshot(got.Snapshot(), Triple.Triple)
	anchored := fastmap.ConvertSnapshot(persisted, metric.ResolveAnchor)
	reloaded, err := fastmap.FromSnapshot(anchored, metric.ResolvedDistance)
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 300; q++ {
		tp := g.RandomTriple()
		w := want.Map(tp)
		for name, c := range map[string][]float64{
			"built":    got.Map(metric.Resolve(tp)),
			"anchored": reloaded.Map(metric.Resolve(tp)),
		} {
			for d := range w {
				if !sameBits(c[d], w[d]) {
					t.Fatalf("%s Map(%v) dim %d: %v, want %v", name, tp, d, c[d], w[d])
				}
			}
		}
	}
}

// TestLiteralMemoKeyCollision: literal pairs are memoized by interned
// IDs, so surface forms that contain NUL cannot alias another pair (a
// string key a+"\x00"+b made ("ab\x00c","abc") and ("ab","c\x00abc")
// the same entry).
func TestLiteralMemoKeyCollision(t *testing.T) {
	m := testMetric(t, Options{})
	if d := m.TermDistance(triple.NewLiteral("ab\x00c"), triple.NewLiteral("abc")); d != 0.25 {
		t.Fatalf("TermDistance(ab\\x00c, abc) = %v, want 0.25", d)
	}
	if d := m.TermDistance(triple.NewLiteral("ab"), triple.NewLiteral("c\x00abc")); d != 0.6 {
		t.Fatalf("TermDistance(ab, c\\x00abc) = %v, want 0.6", d)
	}
}

// TestPairMemoBounded drives more distinct literal pairs than the
// general memo holds: it resets instead of growing past its cap, every
// distance stays exact, and the anchor memo keeps its pairs.
func TestPairMemoBounded(t *testing.T) {
	m := testMetric(t, Options{})
	const n = 420 // n·(n−1)/2 = 87,990 pairs > pairMemoCap
	lits := make([]Term, n)
	for i := range lits {
		lits[i] = m.ResolveTerm(triple.NewLiteral(fmt.Sprintf("L%03d-%d", i, i*7919%1000)))
	}
	anchor := m.ResolveAnchor(triple.New(triple.NewLiteral("ANCHOR"), triple.NewLiteral("x"), triple.NewLiteral("y")))
	pairs, maxSlots := 0, 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			a, b := lits[i], lits[j]
			if got, want := m.ResolvedTermDistance(a, b), NormalizedLevenshtein(a.value, b.value); got != want {
				t.Fatalf("pair (%q, %q) = %v, want %v", a.value, b.value, got, want)
			}
			pairs++
			used, slots := m.pairs.entries()
			if used > pairMemoCap || slots > 2*pairMemoCap {
				t.Fatalf("general memo holds %d entries in %d slots, cap %d", used, slots, pairMemoCap)
			}
			maxSlots = max(maxSlots, slots)
		}
		m.ResolvedTermDistance(anchor.s, lits[i])
	}
	if used, _ := m.pairs.entries(); used >= pairs {
		t.Fatalf("general memo holds all %d pairs; it never reset", used)
	}
	if maxSlots != 2*pairMemoCap {
		t.Fatalf("general memo peaked at %d slots, want %d", maxSlots, 2*pairMemoCap)
	}
	if used, _ := m.anchorPairs.entries(); used != n {
		t.Fatalf("anchor memo holds %d pairs, want %d (one per literal)", used, n)
	}
	// After the resets, early pairs are recomputed exactly.
	for j := 1; j < n; j++ {
		a, b := lits[0], lits[j]
		if got, want := m.ResolvedTermDistance(a, b), NormalizedLevenshtein(a.value, b.value); got != want {
			t.Fatalf("after reset (%q, %q) = %v, want %v", a.value, b.value, got, want)
		}
	}
}

// TestDistanceHitAllocsNothing: once the terms are interned and the
// pairs memoized, Distance and TermDistance allocate nothing.
func TestDistanceHitAllocsNothing(t *testing.T) {
	m := testMetric(t, Options{})
	x := tr("'OBSW001'", "Fun:accept_cmd", "CmdType:start-up")
	y := tr("'OBSW002'", "Fun:block_cmd", "'PDU9'")
	m.Distance(x, y)
	if a := testing.AllocsPerRun(200, func() { m.Distance(x, y) }); a != 0 {
		t.Errorf("Distance hit: %v allocs/op, want 0", a)
	}
	if a := testing.AllocsPerRun(200, func() { m.TermDistance(x.Object, y.Object) }); a != 0 {
		t.Errorf("TermDistance hit: %v allocs/op, want 0", a)
	}
}

// TestConcurrentFirstTouch: goroutines resolve brand-new literals and a
// vocabulary the metric has not used yet, all at once; every distance
// matches an uncached metric. Run with -race to check the memo, the
// interner and the lazily built concept spaces.
func TestConcurrentFirstTouch(t *testing.T) {
	b := vocab.NewBuilder("Late", "thing")
	root := vocab.ConceptID(0)
	for i := 0; i < 6; i++ {
		mid := b.Concept(fmt.Sprintf("group%d", i), root)
		for j := 0; j < 5; j++ {
			b.Concept(fmt.Sprintf("leaf%d_%d", i, j), mid)
		}
	}
	reg := vocab.DefaultRegistry()
	if err := reg.Register(b.MustBuild()); err != nil {
		t.Fatal(err)
	}
	m := MustNew(reg, Options{})
	uncached := MustNew(reg, Options{DisableCache: true})

	const workers = 6
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			term := func() triple.Term {
				if r.Intn(2) == 0 {
					return triple.NewConcept("Late", fmt.Sprintf("leaf%d_%d", r.Intn(7), r.Intn(5)))
				}
				return triple.NewLiteral(fmt.Sprintf("new-%d", r.Intn(150)))
			}
			for k := 0; k < 400; k++ {
				a := triple.New(term(), term(), term())
				c := triple.New(term(), term(), term())
				if got, want := m.Distance(a, c), uncached.Distance(a, c); !sameBits(got, want) {
					errs <- fmt.Sprintf("Distance(%v, %v) = %v, want %v", a, c, got, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for len(errs) > 0 {
		t.Error(<-errs)
	}
}
