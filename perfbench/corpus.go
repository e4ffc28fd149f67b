package main

import (
	"math"
	"time"

	"semtree"
	"semtree/internal/fastmap"
	"semtree/internal/kdtree"
	"semtree/internal/semdist"
	"semtree/internal/synth"
	"semtree/internal/triple"
	"semtree/internal/vocab"
)

// actors is the synth actor count: with 400 actors distinct triples
// dominate the corpus, so k-NN answers are not decided by ties.
const actors = 400

// dims is the FastMap dimensionality the index uses by default.
const dims = 8

// Stream offsets keep the corpus, query and insert generators on
// disjoint seeded streams of the same run seed.
const (
	streamCorpus = iota
	streamQueries
	streamInserts
)

func generator(seed int64, stream int) *synth.Generator {
	return synth.New(synth.Config{Seed: seed*8 + int64(stream), Actors: actors}, nil)
}

// corpus is a workload's data and its oracle: the benchmark's own
// FastMap embedding, built with the index's seed and dims, reproduces
// the index's coordinates bit for bit.
type corpus struct {
	triples []triple.Triple
	metric  *semdist.Metric
	mapper  *fastmap.Mapper[triple.Triple]
	table   *table
	seen    map[triple.Triple]bool
	buildT  time.Duration   // the direct fastmap.Build call
	extra   []triple.Triple // inserted after the corpus, in ID order
}

// tripleOf returns the triple stored under id.
func (c *corpus) tripleOf(id uint64) triple.Triple {
	if n := uint64(len(c.triples)); id >= n {
		return c.extra[id-n]
	}
	return c.triples[id]
}

// addExtra appends the triples inserted after the corpus, in ID order,
// and their oracle rows.
func (c *corpus) addExtra(ts []triple.Triple) {
	for _, t := range ts {
		c.table.add(c.mapper.Map(t))
	}
	c.extra = append(c.extra, ts...)
}

// answerBuf holds up to k answers per query in one allocation made
// before the timed phase, so storing them does not grow the live heap
// the run measures.
type answerBuf struct {
	buf []answer
	n   []int // answers held per query, -1 when unanswered
}

func newAnswerBuf(queries int) *answerBuf {
	b := &answerBuf{buf: make([]answer, queries*k), n: make([]int, queries)}
	for i := range b.n {
		b.n[i] = -1
	}
	return b
}

// set stores the first k matches of query i; distinct callers may set
// distinct queries concurrently.
func (b *answerBuf) set(i int, ms []semtree.Match) {
	n := min(len(ms), k)
	for j, m := range ms[:n] {
		b.buf[i*k+j] = answer{uint64(m.ID), m.Dist}
	}
	b.n[i] = n
}

func (b *answerBuf) get(i int) ([]answer, bool) {
	if b.n[i] < 0 {
		return nil, false
	}
	return b.buf[i*k : i*k+b.n[i]], true
}

func newCorpus(seed int64, n int) (*corpus, error) {
	metric, err := semdist.New(vocab.DefaultRegistry(), semdist.Options{})
	if err != nil {
		return nil, err
	}
	ts := generator(seed, streamCorpus).Triples(n)
	start := time.Now()
	mapper, coords, err := fastmap.Build(ts, metric.Distance, fastmap.Options{Dims: dims, Seed: seed})
	if err != nil {
		return nil, err
	}
	c := &corpus{triples: ts, metric: metric, mapper: mapper, table: &table{}, seen: map[triple.Triple]bool{}, buildT: time.Since(start)}
	for i, t := range ts {
		c.table.add(coords[i])
		c.seen[t] = true
	}
	return c, nil
}

// store returns a fresh triple store holding the corpus in order, so
// triple ID i is corpus triple i.
func (c *corpus) store() *triple.Store {
	s := triple.NewStore()
	for i, t := range c.triples {
		s.Add(t, triple.Provenance{Doc: "bench", Seq: i})
	}
	return s
}

// fresh draws n triples from a stream that appear neither in the
// corpus nor earlier in the same draw.
func (c *corpus) fresh(seed int64, stream, n int) []triple.Triple {
	g := generator(seed, stream)
	out := make([]triple.Triple, 0, n)
	seen := map[triple.Triple]bool{}
	for len(out) < n {
		t := g.RandomTriple()
		if c.seen[t] || seen[t] {
			continue
		}
		seen[t] = true
		out = append(out, t)
	}
	return out
}

// answer is one ranked result as the oracle and the checks see it.
type answer struct {
	ID   uint64
	Dist float64
}

func answersOf(ms []semtree.Match) []answer {
	out := make([]answer, len(ms))
	for i, m := range ms {
		out[i] = answer{uint64(m.ID), m.Dist}
	}
	return out
}

// equalAnswers compares IDs and distance bits.
func equalAnswers(got, want []answer) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].ID != want[i].ID || math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
			return false
		}
	}
	return true
}

// equalMatches compares two result lists field by field, triples
// included: the wire must deliver exactly what the process computed.
func equalMatches(a, b []semtree.Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || math.Float64bits(a[i].Dist) != math.Float64bits(b[i].Dist) ||
			!a[i].Triple.Equal(b[i].Triple) || a[i].Prov != b[i].Prov {
			return false
		}
	}
	return true
}

// table is the flat-scan oracle: one row of coordinates per triple ID.
type table struct {
	xs []float64
	n  int
}

func (t *table) add(c []float64) {
	t.xs = append(t.xs, c...)
	t.n++
}

func (t *table) row(id uint64) []float64 { return t.xs[int(id)*dims : int(id+1)*dims] }

// knn returns the k nearest rows to q over the first n rows, ordered
// like the index orders them: ascending squared distance, ties by ID,
// square-rooted at the end.
func (t *table) knn(q []float64, k, n int) []answer {
	return rooted(t.nearest(q, k, 0, n))
}

// nearest returns the k nearest rows to q among rows [from, to), in
// index order, with squared distances.
func (t *table) nearest(q []float64, k, from, to int) []answer {
	best := make([]answer, 0, k+1)
	for id := from; id < to; id++ {
		sq := kdtree.EuclideanSq(q, t.xs[id*dims:(id+1)*dims])
		if len(best) == k && sq >= best[k-1].Dist {
			continue // equal distance loses to the lower ID already held
		}
		i := len(best)
		if i < k {
			best = append(best, answer{})
		} else {
			i = k - 1
		}
		for i > 0 && sq < best[i-1].Dist {
			best[i] = best[i-1]
			i--
		}
		best[i] = answer{uint64(id), sq}
	}
	return best
}

// within returns every row among [from, to) within squared distance dd
// of q, in index order, with squared distances.
func (t *table) within(q []float64, dd float64, from, to int) []answer {
	var out []answer
	for id := from; id < to; id++ {
		if sq := kdtree.EuclideanSq(q, t.xs[id*dims:(id+1)*dims]); sq <= dd {
			out = append(out, answer{uint64(id), sq})
		}
	}
	// Rows are scanned in ID order, so a stable sort by distance keeps
	// ties ordered by ID.
	sortStable(out)
	return out
}

// merge combines two answer lists in index order whose rows all lie
// below (a) or above (b) some ID, and keeps at most n of them.
func merge(a, b []answer, n int) []answer {
	out := make([]answer, 0, min(len(a)+len(b), n))
	for len(out) < n && (len(a) > 0 || len(b) > 0) {
		// On equal distance the lower ID, which is always in a, wins.
		if len(b) == 0 || len(a) > 0 && a[0].Dist <= b[0].Dist {
			out, a = append(out, a[0]), a[1:]
		} else {
			out, b = append(out, b[0]), b[1:]
		}
	}
	return out
}

// rooted returns a copy of as with square-rooted distances.
func rooted(as []answer) []answer {
	out := make([]answer, len(as))
	for i, a := range as {
		out[i] = answer{a.ID, math.Sqrt(a.Dist)}
	}
	return out
}

func sortStable(a []answer) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j].Dist < a[j-1].Dist; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// rerank mirrors the facade's exact mode: the candidates' distances
// become the exact Eq. 1 distance, re-sorted (ties by ID) and cut to k.
func (c *corpus) rerank(q triple.Triple, cands []answer, k int) []answer {
	out := make([]answer, len(cands))
	for i, a := range cands {
		out[i] = answer{a.ID, c.metric.Distance(q, c.tripleOf(a.ID))}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && (out[j].Dist < out[j-1].Dist || (out[j].Dist == out[j-1].Dist && out[j].ID < out[j-1].ID)); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	if len(out) > k {
		out = out[:k]
	}
	return out
}
