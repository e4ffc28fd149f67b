package main

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"semtree"
	"semtree/internal/cluster"
	"semtree/internal/triple"
)

// tcpQueriesPerSecond sizes tcp-knn's distinct query stream: twice the
// rate two callers reach over a TCP fabric, so no query repeats. synth's
// 400 actors allow only about 170k distinct triples.
const tcpQueriesPerSecond = 2500

// fillTimeWait leaves loopback sockets in TIME_WAIT until the kernel's
// table is full (tcp_max_tw_buckets, at most maxTimeWait). The TCP
// fabric dials one connection per call, so back-to-back runs fill that
// table, and a full table slows connection set-up; a run that started
// after an idle minute would measure a faster network than one that
// followed another run. Starting every run full makes them alike. As on
// the fabric, the accepting side closes first and keeps the TIME_WAIT.
func fillTimeWait() error {
	target := maxTimeWait
	if v, err := strconv.Atoi(sysctl("/proc/sys/net/ipv4/tcp_max_tw_buckets")); err == nil && v < target {
		target = v
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			c.Close()
		}
	}()
	var buf [1]byte
	for i := 0; i < target; i++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			break // ephemeral ports exhausted: the table is as full as it gets
		}
		_, _ = c.Read(buf[:]) // returns at the server's close
		c.Close()
	}
	ln.Close()
	<-done
	return nil
}

// maxTimeWait bounds fillTimeWait on kernels with a large table.
const maxTimeWait = 40000

// tcpIndex is one set-up of tcp-knn.
type tcpIndex struct {
	ix  *semtree.Index
	tcp *cluster.TCP
	fab cluster.Fabric // tcp, or its traced decorator
}

func startTCP(c *corpus, cfg config, rec *recorder) (*tcpIndex, time.Duration, error) {
	store := c.store()
	runtime.GC()
	start := time.Now()
	t := &tcpIndex{tcp: cluster.NewTCP()}
	t.fab = t.tcp
	if rec != nil {
		t.fab = traceFabric(t.tcp, rec)
	}
	ix, err := semtree.Build(store, buildOptions(cfg, t.fab))
	if err != nil {
		t.tcp.Close()
		return nil, 0, err
	}
	t.ix = ix
	return t, time.Since(start), nil
}

func (t *tcpIndex) close() error {
	err := t.ix.Close()
	if cerr := t.tcp.Close(); err == nil {
		err = cerr
	}
	return err
}

func runTCPKNN(ctx context.Context, cfg config) (*report, error) {
	rep := newReport()
	c, err := newCorpus(cfg.Seed, cfg.Corpus)
	if err != nil {
		return nil, err
	}
	nq := cfg.Warmup + int(cfg.Duration.Seconds()*tcpQueriesPerSecond) + 100
	queries := c.fresh(cfg.Seed, streamQueries, nq)
	c.addExtra(c.fresh(cfg.Seed, streamInserts, cfg.Inserts))
	got := newAnswerBuf(nq) // checked against the oracle after the run

	var rec *recorder
	if cfg.Trace {
		rec = newRecorder()
	}
	if err := fillTimeWait(); err != nil {
		return nil, err
	}
	st := newPhaseSamples(cfg, 10000)
	base := liveHeapMB()
	var setups []float64
	var ti *tcpIndex
	for i := 0; i < cfg.SetupReps; i++ {
		if ti != nil {
			if err := ti.close(); err != nil {
				return nil, err
			}
		}
		var d time.Duration
		if ti, d, err = startTCP(c, cfg, rec); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	defer ti.close()
	searcher := ti.ix.Searcher(semtree.WithK(k))

	var next atomic.Int64
	execs := make([]execTotals, cfg.Callers)
	op := func(caller int) (time.Duration, error) {
		i := int(next.Add(1) - 1)
		if i >= nq {
			return 0, fmt.Errorf("query stream of %d exhausted", nq)
		}
		qctx := ctx
		s := rec.begin(spanSearch, spanRef{})
		if s != nil {
			qctx = withSpan(ctx, s.ref())
		}
		t0 := time.Now()
		res, err := searcher.Search(qctx, queries[i])
		dt := time.Since(t0)
		if s != nil {
			s.Exec = int64(res.Stats.Wall)
			rec.close(s, err)
			execs[caller].add(res.Stats)
		}
		if err != nil {
			return 0, err
		}
		if !triplesMatch(res.Matches, c.tripleOf) {
			rep.mismatch("query %d: a match carries the wrong triple", i)
			return 0, errWrong
		}
		got.set(i, res.Matches)
		return dt, nil
	}
	for i := 0; i < cfg.Warmup; i++ {
		if _, err := op(0); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}

	// Queries of window w saw the corpus plus the inserts acked before
	// it: firstOf[w] is the window's first query, rowsOf[w] its rows.
	var firstOf, rowsOf []int
	var t tally
	var mem *memDelta
	var fab0 cluster.Stats
	before := func(w int, p *phase) error {
		firstOf = append(firstOf, int(next.Load()))
		rowsOf = append(rowsOf, cfg.Corpus+p.acked)
		switch {
		case cfg.Trace && w == 0:
			mem, fab0 = startMem(), ti.fab.Stats()
		case cfg.Trace && w == cfg.Windows/2:
			// Traced calls carry a deadline, which the TCP fabric
			// sends: bytes are counted over the untraced half.
			mem.report(rep.layers, len(pooled(p.queries)))
			fabricLayers(rep.layers, fab0, ti.fab.Stats())
		}
		return nil
	}
	tf, _ := ti.fab.(*tracedFabric)
	p, err := runPhase(cfg, &t, ti.ix, c.extra, st, tf, rec, before, op)
	if err != nil {
		return nil, err
	}
	heap := liveHeapMB() - base
	rep.attempts = int(t.attempts.Load()) + cfg.Warmup + p.acked
	rep.failed = int(t.failed.Load())

	// Every answered query against the flat-scan oracle over the
	// content it was asked of, then the final content.
	for i := range queries {
		a, ok := got.get(i)
		if !ok {
			continue
		}
		rows := cfg.Corpus // the warm-up ran before the first window
		for w, first := range firstOf {
			if first <= i {
				rows = rowsOf[w]
			}
		}
		if want := c.table.knn(c.mapper.Map(queries[i]), k, rows); !equalAnswers(a, want) {
			rep.mismatch("query %d: got %v, oracle %v", i, a, want)
		}
	}
	rows := cfg.Corpus + p.acked
	if got := ti.ix.Len(); got != rows {
		rep.mismatch("Len() = %d after %d acked inserts into %d, want %d", got, p.acked, cfg.Corpus, rows)
	}
	if err := checkSample(ctx, rep, c, ti.ix, queries[:min(cfg.Sample, nq)], rows, "tcp-knn after inserts"); err != nil {
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
		pct, n := overheadPct(spanLatencies(rep.spans, spanSearch), pooled(p.queries))
		l.set("bench.trace_overhead_pct", pct, n)
		analyze(rep.spans, l)
		var qs []triple.Triple
		var cands [][]uint64
		for i := 0; i < nq && len(qs) < 2000; i++ {
			if a, ok := got.get(i); ok {
				qs = append(qs, queries[i])
				var ids []uint64
				for _, x := range a {
					ids = append(ids, x.ID)
				}
				cands = append(cands, ids)
			}
		}
		probeLayers(l, c, cfg.Corpus, qs, cands)
	}
	l.set("bench.failed_ratio", float64(rep.failed+rep.wrongN)/float64(rep.attempts), rep.attempts)
	return rep, nil
}
