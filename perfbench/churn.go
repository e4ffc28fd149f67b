package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"semtree"
	"semtree/internal/cluster"
	"semtree/internal/kdtree"
	"semtree/internal/triple"
)

// churnQueries is the reader's query stream. Every round starts it from
// the beginning, so queries are distinct within a round, where the index
// is the same; a round reads about 14k of them. synth's 400 actors allow
// only about 170k distinct triples, of which corpus and inserts take 80k.
const churnQueries = 40000

// churnWindows is how many windows a round is cut into, each ending
// after the same number of acked inserts. The reader's and the writer's
// metrics are medians over all windows of a run, so a stretch in which
// the machine ran slow moves a few windows and not the result, and
// every round contributes the same mix of early (small index) and late
// windows.
const churnWindows = 6

// boundEvery is the stride of reader answers checked against the
// oracle bounds (see checkChurnRead); every answer gets the cheap
// self-consistency check.
const boundEvery = 16

// churnRound is what one round measured.
type churnRound struct {
	setup, busy  time.Duration
	acked        int
	rwins, wwins []window // the reader's and the writer's windows
	reads        int      // attempted
	readFails    int
	heap         float64       // live heap at the end of the round, MiB
	exec         execTotals    // reader queries, traced rounds only
	write        writeWork     // traced rounds only
	fab          cluster.Stats // fabric deltas, traced rounds only
}

func runChurn(ctx context.Context, cfg config) (*report, error) {
	rep := newReport()
	c, err := newCorpus(cfg.Seed, cfg.Corpus)
	if err != nil {
		return nil, err
	}
	// One writer inserts the same seeded sequence every round, so the
	// n-th acked insert is always triple ID Corpus+n and its oracle row
	// can be precomputed.
	ins := c.fresh(cfg.Seed, streamInserts, cfg.Inserts)
	c.addExtra(ins)
	queries := c.fresh(cfg.Seed, streamQueries, churnQueries)
	got := newAnswerBuf(len(queries))
	rs, ws := newSamples(perSecond(cfg.Duration, 20000)), newSamples(perSecond(cfg.Duration, 60000))

	var rec *recorder
	if cfg.Trace {
		rec = newRecorder()
	}
	l := rep.layers
	base := liveHeapMB()
	var setups, heaps []float64
	var busy time.Duration
	var reads, writes []window // churnWindows per round
	var untraced latencies
	var ex execTotals
	var write writeWork
	var fab cluster.Stats
	var mem *memDelta
	if cfg.Trace {
		mem = startMem()
	}
	// A traced run spends half its time in untraced rounds, then traces
	// one round: a round records half a million spans.
	traced := false
	for round := 0; ; round++ {
		if cfg.Trace && round > 0 && busy >= cfg.Duration/2 {
			untraced = pooled(reads)
			mem.report(l, len(untraced)+len(pooled(writes)))
			reads = nil
			traced = true
		}
		r, err := churnOnce(ctx, rep, c, cfg, queries, got, rs, ws, rec, traced, round)
		if err != nil {
			return nil, err
		}
		if traced {
			ex.merge(r.exec)
			write.add(r.write)
			fab.Messages += r.fab.Messages
			fab.Bytes += r.fab.Bytes
			fab.Failures += r.fab.Failures
		}
		setups = append(setups, r.setup.Seconds())
		heaps = append(heaps, r.heap-base)
		busy += r.busy
		reads = append(reads, r.rwins...)
		writes = append(writes, r.wwins...)
		rep.attempts += r.reads + len(ins)
		rep.failed += r.readFails + len(ins) - r.acked
		if traced || !cfg.Trace && busy >= cfg.Duration {
			break
		}
	}

	if !cfg.Trace {
		e := rep.e2e
		e["setup_s"] = metric{median(setups), "s", len(setups)}
		e["heap_mb"] = metric{median(heaps), "MB", len(heaps)}
		if err := summarize(e, "query_qps", "query", reads); err != nil {
			return nil, err
		}
		if err := summarize(e, "insert_ops_s", "insert", writes); err != nil {
			return nil, err
		}
	} else {
		ex.report(l)
		write.report(l)
		fabricLayers(l, cluster.Stats{}, fab)
		var dropped int
		rep.spans, dropped = rec.take()
		if dropped > 0 {
			return nil, fmt.Errorf("span buffer full: %d spans dropped", dropped)
		}
		pct, n := overheadPct(spanLatencies(rep.spans, spanSearch), untraced)
		l.set("bench.trace_overhead_pct", pct, n)
		analyze(rep.spans, l)
		probe := queries[:min(2000, len(queries))]
		cands := make([][]uint64, len(probe))
		for j, q := range probe {
			for _, a := range c.table.knn(c.mapper.Map(q), k, cfg.Corpus) {
				cands[j] = append(cands[j], a.ID)
			}
		}
		probeLayers(l, c, cfg.Corpus, probe, cands)
	}
	l.set("bench.failed_ratio", float64(rep.failed+rep.wrongN)/float64(rep.attempts), rep.attempts)
	return rep, nil
}

// churnOnce builds a fresh index, runs the writer and the reader
// against it until the writer is done, and checks the outcome. The
// writer cuts the round into churnWindows windows; latencies go to rs
// (reader) and ws (writer).
func churnOnce(ctx context.Context, rep *report, c *corpus, cfg config, queries []triple.Triple, got *answerBuf, rs, ws *samples, rec *recorder, traced bool, round int) (*churnRound, error) {
	r := &churnRound{}
	store := c.store()
	var fab cluster.Fabric
	var tf *tracedFabric
	if rec != nil {
		tf = traceFabric(cluster.NewInProc(cluster.InProcOptions{}), rec)
		fab = tf
		defer tf.Close()
	}
	runtime.GC()
	start := time.Now()
	ix, err := semtree.Build(store, buildOptions(cfg, fab))
	if err != nil {
		return nil, err
	}
	r.setup = time.Since(start)
	defer ix.Close()
	var before statsSnap
	if traced {
		if before, err = snapStats(ix); err != nil {
			return nil, err
		}
		rec.on.Store(true)
	}

	runtime.GC() // the round starts from a collected heap, as windows do
	nq := len(queries)
	var next atomic.Int64
	var wg sync.WaitGroup
	var done atomic.Bool
	var rerr error
	roundStart := time.Now()
	per := max(1, len(c.extra)/churnWindows)
	wg.Add(2)
	go func() { // the writer
		defer wg.Done()
		defer done.Store(true)
		wm, rm, t0 := ws.mark(), rs.mark(), roundStart
		cut := func() {
			now := time.Now()
			r.wwins = append(r.wwins, window{ws.since(wm), now.Sub(t0)})
			r.rwins = append(r.rwins, window{rs.since(rm), now.Sub(t0)})
			wm, rm, t0 = ws.mark(), rs.mark(), now
		}
		defer cut()
		for i, t := range c.extra {
			if i > 0 && i%per == 0 && len(r.wwins) < churnWindows-1 {
				cut()
			}
			s := rec.begin(spanInsert, spanRef{})
			if s != nil {
				ref := s.ref()
				tf.writer.Store(&ref)
			}
			t0 := time.Now()
			_, err := ix.Insert(t, triple.Provenance{Doc: "churn", Seq: i})
			dt := time.Since(t0)
			if s != nil {
				tf.writer.Store(nil)
				rec.close(s, err)
			}
			if err != nil {
				return // later IDs would shift; the rest count as failed
			}
			r.acked++
			ws.add(dt)
		}
	}()
	go func() { // the reader
		defer wg.Done()
		s := ix.Searcher(semtree.WithK(k))
		for !done.Load() {
			i := int(next.Add(1) - 1)
			if i >= nq {
				rerr = fmt.Errorf("query stream of %d exhausted", nq)
				return
			}
			r.reads++
			qctx := ctx
			sp := rec.begin(spanSearch, spanRef{})
			if sp != nil {
				qctx = withSpan(ctx, sp.ref())
			}
			t0 := time.Now()
			res, err := s.Search(qctx, queries[i])
			dt := time.Since(t0)
			if sp != nil {
				sp.Exec = int64(res.Stats.Wall)
				rec.close(sp, err)
				r.exec.add(res.Stats)
			}
			if err != nil {
				r.readFails++
				continue
			}
			if !triplesMatch(res.Matches, c.tripleOf) {
				rep.mismatch("churn query %d: a match carries the wrong triple", i)
				continue
			}
			got.set(i, res.Matches)
			rs.add(dt)
		}
	}()
	wg.Wait()
	r.busy = time.Since(roundStart)
	if rerr != nil {
		return nil, rerr
	}
	if traced {
		after, err := snapStats(ix)
		if err != nil {
			return nil, err
		}
		rec.on.Store(false)
		r.write = writeDelta(before, after, r.acked, r.exec.msgs)
		r.fab = cluster.Stats{
			Messages: after.fabric.Messages - before.fabric.Messages,
			Bytes:    after.fabric.Bytes - before.fabric.Bytes,
			Failures: after.fabric.Failures - before.fabric.Failures,
		}
	}

	// Every acked insert is in, the reader's answers are consistent with
	// the content around them, and fresh queries match the oracle over
	// the final content.
	rows := cfg.Corpus + r.acked
	if n := ix.Len(); n != rows {
		rep.mismatch("round %d: Len() = %d after %d acked inserts into %d, want %d", round, n, r.acked, cfg.Corpus, rows)
	}
	last := min(int(next.Load()), nq)
	for i := 0; i < last; i++ {
		if a, ok := got.get(i); ok {
			if msg := checkChurnRead(c, queries[i], a, cfg.Corpus, rows, i%boundEvery == 0); msg != "" {
				rep.mismatch("round %d query %d: %s", round, i, msg)
			}
		}
		got.n[i] = -1
	}
	end := int(next.Add(int64(cfg.Sample)))
	if end > nq {
		return nil, fmt.Errorf("query stream of %d exhausted", nq)
	}
	if err := checkSample(ctx, rep, c, ix, queries[end-cfg.Sample:end], rows, fmt.Sprintf("churn round %d", round)); err != nil {
		return nil, err
	}
	r.heap = liveHeapMB()
	return r, nil
}

// checkChurnRead checks one answer of the reader, which ran while the
// writer was inserting, so the content it saw lies between the initial
// rows and all rows acked by the end of the round. Every answer must be
// self-consistent: k results, each an existing row at exactly its
// embedded distance, in (squared distance, ID) order. With bound set the answer
// must also lie between the two oracles: its j-th distance is at most
// the j-th over the initial rows (never removed) and at least the j-th
// over the final rows.
func checkChurnRead(c *corpus, q triple.Triple, a []answer, initial, final int, bound bool) string {
	if len(a) != k {
		return fmt.Sprintf("%d results, want %d", len(a), k)
	}
	qc := c.mapper.Map(q)
	prev := -1.0
	for j, x := range a {
		if x.ID >= uint64(final) {
			return fmt.Sprintf("result %d has ID %d beyond the %d rows", j, x.ID, final)
		}
		sq := kdtree.EuclideanSq(qc, c.table.row(x.ID))
		if d := math.Sqrt(sq); math.Float64bits(d) != math.Float64bits(x.Dist) {
			return fmt.Sprintf("result %d: distance %v, row is at %v", j, x.Dist, d)
		}
		// The index orders by squared distance, ties by ID.
		if j > 0 && (sq < prev || sq == prev && x.ID <= a[j-1].ID) {
			return fmt.Sprintf("results %d and %d out of order", j-1, j)
		}
		prev = sq
	}
	if !bound {
		return ""
	}
	lo, hi := c.table.knn(qc, k, final), c.table.knn(qc, k, initial)
	for j := range a {
		if a[j].Dist < lo[j].Dist || a[j].Dist > hi[j].Dist {
			return fmt.Sprintf("result %d at %v outside the oracle bounds [%v, %v]", j, a[j].Dist, lo[j].Dist, hi[j].Dist)
		}
	}
	return ""
}
