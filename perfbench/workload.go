package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"semtree"
	"semtree/internal/cluster"
	"semtree/internal/triple"
)

// k is the neighbour count of every k-NN request.
const k = 10

// config sizes one workload run. defaultConfig gives the sizes the
// benchmark is defined with; the self-tests shrink them.
type config struct {
	Seed     int64
	Duration time.Duration
	Trace    bool

	Corpus     int // triples indexed at set-up
	Partitions int
	SetupReps  int // set-ups per run; setup_s is their median
	Callers    int
	Warmup     int // untimed requests before the timed phase
	Pool       int // serve-mix: hot query pool
	Inserts    int // new triples per run in chunks between query windows (each chunk enough for its own p99), or churn's per round
	Sample     int // oracle-checked queries after writes
	Windows    int // serve-mix, tcp-knn: query windows, each followed by an insert chunk
}

func defaultConfig(workload string) config {
	switch workload {
	case "serve-mix":
		return config{Corpus: 50000, Partitions: 8, SetupReps: 3, Callers: 2, Pool: 1000, Inserts: 12000, Sample: 50, Windows: 10}
	case "tcp-knn":
		return config{Corpus: 20000, Partitions: 4, SetupReps: 3, Callers: 2, Warmup: 300, Inserts: 12000, Sample: 50, Windows: 10}
	default: // churn
		return config{Corpus: 20000, Partitions: 8, Callers: 1, Inserts: 60000, Sample: 20}
	}
}

// buildOptions are the index options of a workload: capacity per
// partition sized so the corpus fills every partition.
func buildOptions(cfg config, fab cluster.Fabric) semtree.Options {
	return semtree.Options{
		Seed:              cfg.Seed,
		Dims:              dims,
		PartitionCapacity: (cfg.Corpus + cfg.Partitions - 1) / cfg.Partitions,
		MaxPartitions:     cfg.Partitions,
		Fabric:            fab,
	}
}

// errWrong marks an operation whose answer disagreed with the oracle;
// the report already counts it as wrong.
var errWrong = errors.New("wrong answer")

// tally counts one phase's operations; callers share it.
type tally struct {
	attempts, failed atomic.Int64
}

// phase is what the timed phase of serve-mix or tcp-knn measured.
type phase struct {
	queries []window // untraced query windows
	inserts []window // insert chunks
	acked   int
	write   writeWork // traced insert chunks
}

// runPhase runs the timed phase of serve-mix and tcp-knn: cfg.Windows
// query windows of equal length, with callers goroutines each issuing
// op back to back, and after every window the next chunk of ins
// inserted one triple at a time. Spreading the inserts over the
// phase lets the window medians (see summarize) reject a slow stretch
// of the machine for inserts as they do for queries. In a traced run
// the second half of the windows runs traced. before(w, p) runs ahead
// of window w with no caller active and sees the phase so far;
// op(caller) performs, times and checks one request, and traces it
// when the recorder is on.
func runPhase(cfg config, t *tally, ix *semtree.Index, ins []triple.Triple, st phaseSamples, tf *tracedFabric, rec *recorder,
	before func(w int, p *phase) error, op func(caller int) (time.Duration, error)) (*phase, error) {
	p := &phase{}
	chunk := len(ins) / cfg.Windows
	for w := 0; w < cfg.Windows; w++ {
		traced := cfg.Trace && w >= cfg.Windows/2
		rec.set(traced)
		if err := before(w, p); err != nil {
			return nil, err
		}
		// Every window and chunk starts from a collected heap, so
		// whether a collection falls inside it does not depend on what
		// ran before.
		runtime.GC()
		qw := loopWindow(cfg.Callers, cfg.Duration/time.Duration(cfg.Windows), t, st.queries, op)
		if !traced {
			p.queries = append(p.queries, qw)
		}
		var b statsSnap
		if traced {
			var err error
			if b, err = snapStats(ix); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		iw, n, err := insertChunk(ix, ins[p.acked:p.acked+chunk], p.acked, st.inserts, tf, rec)
		p.acked += n
		if err != nil {
			return nil, err
		}
		p.inserts = append(p.inserts, iw)
		if traced {
			a, err := snapStats(ix)
			if err != nil {
				return nil, err
			}
			p.write.add(writeDelta(b, a, n, 0))
		}
	}
	rec.set(false)
	return p, nil
}

// phaseSamples are the sample stores of a phase's queries and inserts.
type phaseSamples struct{ queries, inserts *samples }

// newPhaseSamples reserves room for a phase of cfg: queries at up to
// rate per second, and every insert.
func newPhaseSamples(cfg config, rate int) phaseSamples {
	return phaseSamples{newSamples(perSecond(cfg.Duration, rate)), newSamples(cfg.Inserts)}
}

// loopWindow runs callers goroutines that each issue op back to back
// for d, keeping latencies in s; failed requests count against
// attempts and carry no latency.
func loopWindow(callers int, d time.Duration, t *tally, s *samples, op func(caller int) (time.Duration, error)) window {
	start := time.Now()
	deadline := start.Add(d)
	m := s.mark()
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				t.attempts.Add(1)
				dt, err := op(c)
				if err != nil {
					if !errors.Is(err, errWrong) {
						t.failed.Add(1)
					}
					continue
				}
				s.add(dt)
			}
		}(c)
	}
	wg.Wait()
	return window{s.since(m), time.Since(start)}
}

// insertChunk inserts ts one at a time, timing each Index.Insert into
// s; seq numbers the first one. While tracing, each insert is a
// facade.insert span.
func insertChunk(ix *semtree.Index, ts []triple.Triple, seq int, s *samples, tf *tracedFabric, rec *recorder) (window, int, error) {
	m := s.mark()
	start := time.Now()
	for i, t := range ts {
		sp := rec.begin(spanInsert, spanRef{})
		if sp != nil {
			ref := sp.ref()
			tf.writer.Store(&ref)
		}
		t0 := time.Now()
		_, err := ix.Insert(t, triple.Provenance{Doc: "bench-insert", Seq: seq + i})
		dt := time.Since(t0)
		if sp != nil {
			tf.writer.Store(nil)
			rec.close(sp, err)
		}
		if err != nil {
			return window{s.since(m), time.Since(start)}, i, fmt.Errorf("insert %d: %w", seq+i, err)
		}
		s.add(dt)
	}
	return window{s.since(m), time.Since(start)}, len(ts), nil
}

// statsSnap is the part of Index.Stats the write-path metrics use.
type statsSnap struct {
	navSteps, boxWork int64
	partitions        int
	fabric            cluster.Stats
}

func snapStats(ix *semtree.Index) (statsSnap, error) {
	st, err := ix.Stats()
	return statsSnap{st.NavSteps, st.BoxWork, st.Partitions, st.Fabric}, err
}

// writeWork is the write path's work over a phase with acked inserts.
type writeWork struct {
	navSteps, boxWork, msgs int64
	acked                   int
}

// writeDelta is the write work between two Stats snapshots. queryMsgs
// are the messages of the phase's queries; the closing Stats call sent
// one message per partition itself.
func writeDelta(before, after statsSnap, acked int, queryMsgs int64) writeWork {
	return writeWork{
		navSteps: after.navSteps - before.navSteps,
		boxWork:  after.boxWork - before.boxWork,
		msgs:     after.fabric.Messages - before.fabric.Messages - queryMsgs - int64(after.partitions),
		acked:    acked,
	}
}

func (w *writeWork) add(o writeWork) {
	w.navSteps += o.navSteps
	w.boxWork += o.boxWork
	w.msgs += o.msgs
	w.acked += o.acked
}

func (w writeWork) report(l layerSet) {
	if w.acked == 0 {
		return
	}
	n := float64(w.acked)
	l.set("core.nav_steps_per_insert", float64(w.navSteps)/n, w.acked)
	l.set("core.box_work_per_insert", float64(w.boxWork)/n, w.acked)
	l.set("core.msgs_per_insert", float64(w.msgs)/n, w.acked)
}

// fabricLayers sets the fabric accounting metrics over a phase.
func fabricLayers(l layerSet, before, after cluster.Stats) {
	msgs := after.Messages - before.Messages
	if msgs > 0 {
		l.set("cluster.bytes_per_call", float64(after.Bytes-before.Bytes)/float64(msgs), int(msgs))
	}
	l.set("cluster.failures", float64(after.Failures-before.Failures), int(msgs))
}

// checkSample compares n in-process k-NN answers over the final
// content against the oracle: the first n of qs, over rows [0, rows).
func checkSample(ctx context.Context, rep *report, c *corpus, ix *semtree.Index, qs []triple.Triple, rows int, what string) error {
	s := ix.Searcher(semtree.WithK(k))
	for i, q := range qs {
		res, err := s.Search(ctx, q)
		if err != nil {
			return fmt.Errorf("%s: sample query %d: %w", what, i, err)
		}
		want := c.table.knn(c.mapper.Map(q), k, rows)
		if got := answersOf(res.Matches); !equalAnswers(got, want) {
			rep.mismatch("%s: sample query %d: got %v, oracle %v", what, i, got, want)
		}
	}
	return nil
}

// triplesMatch reports whether every match carries the stored triple
// of its ID.
func triplesMatch(ms []semtree.Match, tripleOf func(uint64) triple.Triple) bool {
	for _, m := range ms {
		if !m.Triple.Equal(tripleOf(uint64(m.ID))) {
			return false
		}
	}
	return true
}

// spanLatencies returns the durations, in ms, of the successful spans
// named name: the traced requests' latencies as their callers saw them.
func spanLatencies(spans []span, name string) latencies {
	var out latencies
	for i := range spans {
		if s := &spans[i]; s.Name == name && !s.Err {
			out.add(time.Duration(s.dur()))
		}
	}
	return out
}

func overheadPct(traced, untraced latencies) (float64, int) {
	if len(traced) == 0 || len(untraced) == 0 {
		return 0, 0
	}
	u := median(untraced)
	return 100 * (median(traced) - u) / u, len(traced)
}
