package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net"
	"runtime"
	"sync/atomic"
	"time"

	"semtree"
	"semtree/internal/cluster"
	"semtree/internal/serve"
	"semtree/internal/triple"
)

// Request kinds of serve-mix, drawn 8:1:1.
const (
	kindKNN   = iota // k-NN, k=10
	kindRange        // range at the median 10th-neighbour distance
	kindExact        // k-NN re-ranked under Eq. 1 with ExactFactor 4
	kinds
)

const (
	exactFactor = 4
	zipfS       = 1.1 // skew of the hot pool: the top query is ~1/8 of requests
)

// mix holds serve-mix's oracle: the expected answer of every pool
// query in every kind over the first rows rows.
type mix struct {
	want   [kinds][][]answer
	cands  [][]uint64 // exact-mode candidates over the corpus, for the semdist probe
	radius float64
	opts   [kinds][]semtree.SearchOption

	rows int
	qcs  [][]float64
	near [][]answer // per pool query: its exactFactor*k nearest rows, squared distances
	in   [][]answer // per pool query: the rows within radius, squared distances
}

// newMix computes the oracle over the first rows rows. The range
// radius is the median distance of the pool queries' 10th neighbours,
// which gives range queries about ten matches at the median.
func newMix(c *corpus, pool []triple.Triple, rows int) *mix {
	m := &mix{rows: rows}
	kth := make([]float64, len(pool))
	for i, q := range pool {
		qc := c.mapper.Map(q)
		near := c.table.nearest(qc, exactFactor*k, 0, rows)
		ids := make([]uint64, len(near))
		for j, a := range near {
			ids[j] = a.ID
		}
		m.qcs = append(m.qcs, qc)
		m.near = append(m.near, near)
		m.cands = append(m.cands, ids)
		kth[i] = math.Sqrt(near[k-1].Dist)
	}
	m.radius = median(kth)
	for _, qc := range m.qcs {
		m.in = append(m.in, c.table.within(qc, m.radius*m.radius, 0, rows))
	}
	m.opts[kindKNN] = []semtree.SearchOption{semtree.WithK(k)}
	m.opts[kindRange] = []semtree.SearchOption{semtree.WithMode(semtree.ModeRange), semtree.WithRadius(m.radius)}
	m.opts[kindExact] = []semtree.SearchOption{semtree.WithK(k), semtree.WithExactFactor(exactFactor)}
	m.answers(c, pool)
	return m
}

// extend moves the oracle onto the first rows rows, scanning only the
// rows added since.
func (m *mix) extend(c *corpus, pool []triple.Triple, rows int) {
	if rows == m.rows {
		return
	}
	for i, qc := range m.qcs {
		m.near[i] = merge(m.near[i], c.table.nearest(qc, exactFactor*k, m.rows, rows), exactFactor*k)
		add := c.table.within(qc, m.radius*m.radius, m.rows, rows)
		m.in[i] = merge(m.in[i], add, len(m.in[i])+len(add))
	}
	m.rows = rows
	m.answers(c, pool)
}

// answers derives every kind's expected answers from near and in.
func (m *mix) answers(c *corpus, pool []triple.Triple) {
	for kind := range m.want {
		m.want[kind] = m.want[kind][:0]
	}
	for i, q := range pool {
		near := rooted(m.near[i])
		m.want[kindKNN] = append(m.want[kindKNN], near[:k])
		m.want[kindExact] = append(m.want[kindExact], c.rerank(q, near, k))
		m.want[kindRange] = append(m.want[kindRange], rooted(m.in[i]))
	}
}

// mixServer is one set-up of serve-mix: the index, a server with one
// tenant on a loopback listener, and a dialed client.
type mixServer struct {
	ix     *semtree.Index
	fab    *tracedFabric // nil when untraced
	srv    *serve.Server
	client *serve.Client
	cancel context.CancelFunc
	done   chan struct{}
	wire   atomic.Int64 // listener bytes, when traced
}

// startMix sets up serve-mix and returns the set-up time: from the
// start of Build until the client can send its first request.
func startMix(ctx context.Context, c *corpus, cfg config, rec *recorder) (*mixServer, time.Duration, error) {
	store := c.store()
	sv := &mixServer{done: make(chan struct{})}
	var fab cluster.Fabric
	if rec != nil {
		sv.fab = traceFabric(cluster.NewInProc(cluster.InProcOptions{}), rec)
		fab = sv.fab
	}
	runtime.GC()
	start := time.Now()
	ix, err := semtree.Build(store, buildOptions(cfg, fab))
	if err != nil {
		return nil, 0, err
	}
	sv.ix = ix
	sv.srv, err = serve.NewServer(serve.Config{
		Index:      ix,
		Tenants:    []serve.TenantConfig{{Name: "bench", Token: "bench"}},
		DrainGrace: time.Millisecond,
	})
	if err != nil {
		return nil, 0, err
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	var l net.Listener = lis
	if rec != nil {
		l = countingListener{lis, &sv.wire}
	}
	var sctx context.Context
	sctx, sv.cancel = context.WithCancel(ctx)
	go func() {
		defer close(sv.done)
		_ = sv.srv.Serve(sctx, l)
	}()
	sv.client, err = serve.Dial(ctx, lis.Addr().String(), "bench")
	if err != nil {
		sv.cancel()
		<-sv.done
		return nil, 0, err
	}
	return sv, time.Since(start), nil
}

func (sv *mixServer) close(ctx context.Context) error {
	sv.client.Close()
	err := sv.srv.Drain(ctx)
	sv.cancel()
	<-sv.done
	if cerr := sv.ix.Close(); err == nil {
		err = cerr
	}
	if sv.fab != nil {
		if cerr := sv.fab.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

func runServeMix(ctx context.Context, cfg config) (*report, error) {
	rep := newReport()
	c, err := newCorpus(cfg.Seed, cfg.Corpus)
	if err != nil {
		return nil, err
	}
	pool := c.fresh(cfg.Seed, streamQueries, cfg.Pool)
	c.addExtra(c.fresh(cfg.Seed, streamInserts, cfg.Inserts))
	m := newMix(c, pool, cfg.Corpus)

	var rec *recorder
	if cfg.Trace {
		rec = newRecorder()
	}
	st := newPhaseSamples(cfg, 50000)
	base := liveHeapMB()
	var setups []float64
	var sv *mixServer
	for i := 0; i < cfg.SetupReps; i++ {
		if sv != nil {
			if err := sv.close(ctx); err != nil {
				return nil, err
			}
		}
		var d time.Duration
		if sv, d, err = startMix(ctx, c, cfg, rec); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	defer sv.close(ctx)

	var searchers [kinds]*semtree.Searcher
	for kind := range searchers {
		searchers[kind] = sv.ix.Searcher(m.opts[kind]...)
	}
	// Every pool query in every kind, in process and over the wire:
	// in-process answers must match the oracle, wire answers must equal
	// the in-process ones. This pass also warms the caches and the cost
	// model before anything is timed.
	for kind := 0; kind < kinds; kind++ {
		for i, q := range pool {
			in, err := searchers[kind].Search(ctx, q)
			if err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
			if !equalAnswers(answersOf(in.Matches), m.want[kind][i]) || !triplesMatch(in.Matches, c.tripleOf) {
				rep.mismatch("in-process kind %d query %d: got %v, oracle %v", kind, i, answersOf(in.Matches), m.want[kind][i])
			}
			w, err := sv.client.Search(ctx, q, m.opts[kind]...)
			if err != nil {
				return nil, fmt.Errorf("warm-up over the wire: %w", err)
			}
			if !equalMatches(w.Matches, in.Matches) {
				rep.mismatch("wire kind %d query %d differs from in-process", kind, i)
			}
		}
	}

	// Each caller draws its own seeded sequence of (kind, pool entry).
	type draw struct {
		r *rand.Rand
		z *rand.Zipf
	}
	draws := make([]draw, cfg.Callers)
	for i := range draws {
		r := rand.New(rand.NewSource(cfg.Seed*1000 + int64(i)))
		draws[i] = draw{r, rand.NewZipf(r, zipfS, 1, uint64(len(pool)-1))}
	}
	execs := make([]execTotals, cfg.Callers)
	op := func(caller int) (time.Duration, error) {
		d := draws[caller]
		kind := kindKNN
		switch d.r.Intn(10) {
		case 8:
			kind = kindRange
		case 9:
			kind = kindExact
		}
		i := int(d.z.Uint64())
		q := pool[i]
		w := rec.begin(spanWire, spanRef{})
		t0 := time.Now()
		res, err := sv.client.Search(ctx, q, m.opts[kind]...)
		dt := time.Since(t0)
		rec.close(w, err)
		if err != nil {
			return 0, err
		}
		if !equalAnswers(answersOf(res.Matches), m.want[kind][i]) || !triplesMatch(res.Matches, c.tripleOf) {
			rep.mismatch("wire kind %d query %d: got %v, oracle %v", kind, i, answersOf(res.Matches), m.want[kind][i])
			return 0, errWrong
		}
		if w != nil {
			s := rec.open(spanSearch, spanRef{req: w.Req}, -1)
			in, err := searchers[kind].Search(withSpan(ctx, s.ref()), q)
			s.Exec = int64(in.Stats.Wall)
			rec.close(s, err)
			if err != nil {
				return 0, err
			}
			if !equalMatches(in.Matches, res.Matches) {
				rep.mismatch("paired in-process kind %d query %d differs from the wire", kind, i)
				return 0, errWrong
			}
			execs[caller].add(in.Stats)
		}
		return dt, nil
	}

	var t tally
	var mem *memDelta
	var fab0 cluster.Stats
	var wire0 int64
	// Allocations, fabric and wire bytes are counted over the untraced
	// half, where every request crosses the wire unpaired.
	before := func(w int, p *phase) error {
		m.extend(c, pool, cfg.Corpus+p.acked)
		switch {
		case cfg.Trace && w == 0:
			mem, fab0, wire0 = startMem(), sv.fab.Stats(), sv.wire.Load()
		case cfg.Trace && w == cfg.Windows/2:
			n := len(pooled(p.queries))
			mem.report(rep.layers, n)
			fabricLayers(rep.layers, fab0, sv.fab.Stats())
			rep.layers.set("serve.wire_bytes_per_req", float64(sv.wire.Load()-wire0)/float64(n), n)
		}
		return nil
	}
	p, err := runPhase(cfg, &t, sv.ix, c.extra, st, sv.fab, rec, before, op)
	if err != nil {
		return nil, err
	}
	heap := liveHeapMB() - base
	rep.attempts = int(t.attempts.Load()) + p.acked
	rep.failed = int(t.failed.Load())

	// Every insert is visible, and answers over the final content match
	// the oracle.
	rows := cfg.Corpus + p.acked
	if got := sv.ix.Len(); got != rows {
		rep.mismatch("Len() = %d after %d acked inserts into %d, want %d", got, p.acked, cfg.Corpus, rows)
	}
	if err := checkSample(ctx, rep, c, sv.ix, pool[:min(cfg.Sample, len(pool))], rows, "serve-mix after inserts"); err != nil {
		return nil, err
	}

	l := rep.layers
	if !cfg.Trace {
		e := rep.e2e
		e["setup_s"] = metric{median(setups), "s", len(setups)}
		e["heap_mb"] = metric{heap, "MB", 1}
		if err := summarize(e, "query_qps", "query", p.queries); err != nil {
			return nil, err
		}
		if err := summarize(e, "insert_ops_s", "insert", p.inserts); err != nil {
			return nil, err
		}
	} else {
		var ex execTotals
		for _, e := range execs {
			ex.merge(e)
		}
		ex.report(l)
		p.write.report(l)
		var dropped int
		rep.spans, dropped = rec.take()
		if dropped > 0 {
			return nil, fmt.Errorf("span buffer full: %d spans dropped", dropped)
		}
		pct, n := overheadPct(spanLatencies(rep.spans, spanWire), pooled(p.queries))
		l.set("bench.trace_overhead_pct", pct, n)
		analyze(rep.spans, l)
		probeLayers(l, c, cfg.Corpus, pool, m.cands)
	}
	l.set("bench.failed_ratio", float64(rep.failed+rep.wrongN)/float64(rep.attempts), rep.attempts)
	return rep, nil
}
