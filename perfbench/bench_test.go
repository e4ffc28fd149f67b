package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"semtree"
	"semtree/internal/cluster"
)

// TestTracedFabricTransparent: the tracing decorator must not change a
// single answer, on InProc and on TCP, and it must see every call.
func TestTracedFabricTransparent(t *testing.T) {
	ctx := context.Background()
	cfg := config{Seed: 7, Corpus: 2000, Partitions: 4}
	c, err := newCorpus(cfg.Seed, cfg.Corpus)
	if err != nil {
		t.Fatal(err)
	}
	queries := c.fresh(cfg.Seed, streamQueries, 100)
	for _, name := range []string{"inproc", "tcp"} {
		t.Run(name, func(t *testing.T) {
			fabric := func() cluster.Fabric {
				if name == "tcp" {
					return cluster.NewTCP()
				}
				return cluster.NewInProc(cluster.InProcOptions{})
			}
			// The protocols are pinned: ProtocolAuto picks one from
			// measured latencies, which tracing may shift.
			var msgs int64
			answers := func(fab cluster.Fabric, rec *recorder) []semtree.Result {
				defer fab.Close()
				ix, err := semtree.Build(c.store(), buildOptions(cfg, fab))
				if err != nil {
					t.Fatal(err)
				}
				defer ix.Close()
				if rec != nil {
					rec.on.Store(true)
					before := fab.Stats().Messages
					defer func() { msgs = fab.Stats().Messages - before }()
				}
				var out []semtree.Result
				for _, s := range []*semtree.Searcher{
					ix.Searcher(semtree.WithK(k), semtree.WithProtocol(semtree.ProtocolSequential)),
					ix.Searcher(semtree.WithK(k), semtree.WithProtocol(semtree.ProtocolFanOut)),
					ix.Searcher(semtree.WithRadius(0.05)),
					ix.Searcher(semtree.WithK(k), semtree.WithExactFactor(exactFactor), semtree.WithProtocol(semtree.ProtocolSequential)),
				} {
					for _, q := range queries {
						qctx := ctx
						sp := rec.begin(spanSearch, spanRef{})
						if sp != nil {
							qctx = withSpan(ctx, sp.ref())
						}
						res, err := s.Search(qctx, q)
						rec.close(sp, err)
						if err != nil {
							t.Fatal(err)
						}
						out = append(out, res)
					}
				}
				return out
			}
			plain := answers(fabric(), nil)
			rec := newRecorder()
			traced := answers(traceFabric(fabric(), rec), rec)
			for i := range plain {
				a, b := plain[i], traced[i]
				if !equalMatches(a.Matches, b.Matches) {
					t.Fatalf("query %d: traced answer differs", i)
				}
				a.Stats.Wall, b.Stats.Wall = 0, 0
				if a.Stats != b.Stats {
					t.Fatalf("query %d: traced stats %+v, plain %+v", i, b.Stats, a.Stats)
				}
			}
			// Every call is recorded, and every call that returned has
			// its callee's handler as a child: over TCP the handler finds
			// its call by the ID the call's deadline carries.
			spans, dropped := rec.take()
			handled := map[uint64]bool{}
			for _, s := range spans {
				if s.Name == spanHandler {
					handled[s.Parent] = true
				}
			}
			var calls, ok, linked int
			for _, s := range spans {
				if s.Name == spanCall {
					calls++
					if !s.Err {
						ok++
						if handled[s.ID] {
							linked++
						}
					}
				}
			}
			if dropped > 0 || int64(calls) != msgs {
				t.Fatalf("%d call spans for %d fabric messages, %d spans dropped", calls, msgs, dropped)
			}
			if linked != ok {
				t.Fatalf("%d of %d returned calls have their handler", linked, ok)
			}
		})
	}
}

// TestLayerSumCheck: a consistent trace passes the layer-sum check,
// and a trace whose split is inconsistent fails it.
func TestLayerSumCheck(t *testing.T) {
	errPct := func(exec int64, handler [2]int64) float64 {
		spans := []span{
			{ID: 1, Req: 1, Name: spanSearch, Start: 0, End: 100, Exec: exec},
			{ID: 2, Parent: 1, Req: 1, Name: spanCall, Start: 10, End: 90},
			{ID: 3, Parent: 2, Req: 1, Name: spanHandler, Start: handler[0], End: handler[1]},
		}
		l := newLayerSet()
		analyze(spans, l)
		return l["bench.layer_sum_err_pct"].value
	}
	if e := errPct(90, [2]int64{20, 80}); e != 0 {
		t.Fatalf("consistent trace: error %v%%, want 0", e)
	}
	if e := errPct(90, [2]int64{5, 95}); e <= layerSumTolerancePct {
		t.Fatalf("handler escaping its call: error %v%%, want above %v%%", e, layerSumTolerancePct)
	}
	if e := errPct(50, [2]int64{20, 80}); e <= layerSumTolerancePct {
		t.Fatalf("ExecStats.Wall shorter than its root call: error %v%%, want above %v%%", e, layerSumTolerancePct)
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 1..1000, unsorted
	}
	if p, err := percentile(xs, 0.99); err != nil || p != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990 with 10 samples beyond", p, err)
	}
	if _, err := percentile(xs[:999], 0.99); err == nil {
		t.Fatal("p99 of 999 samples leaves 9 beyond it and must be refused")
	}
	if p, err := percentile(xs[:20], 0.5); err != nil || p != 990 {
		t.Fatalf("p50 of 20 samples = %v, %v; want the 10th smallest, 990", p, err)
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Fatal("a percentile of no samples must be refused")
	}
	m := map[string]metric{}
	if err := summarize(m, "q_qps", "q", []window{{xs[:499], time.Second}, {xs[499:998], time.Second}}); err == nil {
		t.Fatal("a p99 of 998 samples must be refused")
	}
	// Windows too small for their own p99 fall back to the pooled one.
	if err := summarize(m, "q_qps", "q", []window{{xs[:500], time.Second}, {xs[500:], time.Second}}); err != nil || m["q_p99_ms"].value != 990 {
		t.Fatalf("pooled p99 = %v, %v; want 990", m["q_p99_ms"].value, err)
	}
	for _, name := range []string{"q_qps", "q_p50_ms", "q_p99_ms"} {
		if m[name].samples != len(xs) {
			t.Fatalf("%s reports %d samples, want %d", name, m[name].samples, len(xs))
		}
	}
}

// TestWorkloadSmoke runs every workload at a tiny size, untraced and
// traced, so the benchmark cannot rot.
func TestWorkloadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	ctx := context.Background()
	for name, runner := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := defaultConfig(name)
			cfg.Seed, cfg.Trace = 3, traced
			cfg.Corpus, cfg.Pool, cfg.Windows = 3000, 200, 2
			cfg.Inserts = min(cfg.Inserts, 10000)
			if name != "churn" {
				cfg.Inserts = 1000
			}
			cfg.Partitions = min(cfg.Partitions, 4)
			cfg.SetupReps = min(cfg.SetupReps, 2)
			// Every window must hold 1000 samples for its p99.
			cfg.Duration = 400 * time.Millisecond
			if name == "tcp-knn" {
				cfg.Duration = 2 * time.Second
			}
			if raceEnabled {
				cfg.Duration *= 10
			}
			rep, err := runner(ctx, cfg)
			if err != nil {
				t.Fatalf("%s traced=%t: %v", name, traced, err)
			}
			if rep.wrongN > 0 || rep.failed > 0 {
				t.Fatalf("%s traced=%t: %d wrong, %d failed: %v", name, traced, rep.wrongN, rep.failed, rep.wrong)
			}
			if !traced {
				for _, m := range []string{"setup_s", "heap_mb", "query_qps", "query_p50_ms", "query_p99_ms", "insert_ops_s", "insert_p50_ms", "insert_p99_ms"} {
					if v := rep.e2e[m].value; !(v > 0) || math.IsInf(v, 0) {
						t.Errorf("%s: %s = %v", name, m, v)
					}
				}
				continue
			}
			if len(rep.layers) != len(perLayer) {
				t.Errorf("%s: %d layer metrics, want %d", name, len(rep.layers), len(perLayer))
			}
			for _, m := range []string{"facade.self_us", "core.exec_us", "core.partition_self_us", "cluster.rtt_us", "core.insert_exec_us", "fastmap.map_us", "kdtree.knn_us", "semdist.distance_ns"} {
				if !(rep.layers[m].value > 0) {
					t.Errorf("%s: %s = %v", name, m, rep.layers[m].value)
				}
			}
			if e := rep.layers["bench.layer_sum_err_pct"].value; e > layerSumTolerancePct {
				t.Errorf("%s: layer self times miss the client span by %.2f%%, tolerance %.0f%%", name, e, layerSumTolerancePct)
			}
		}
	}
}

// TestRunOutput checks the contract of the last output line and the
// exit code on bad arguments.
func TestRunOutput(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(context.Background(), []string{"--workload", "nope"}, &out, &errb); code == 0 {
		t.Fatal("an unknown workload must fail")
	}
	rep := newReport()
	rep.attempts = 3
	rep.e2e["setup_s"] = metric{1.5, "s", 3}
	rep.e2e["query_p99_ms"] = metric{5.3, "ms", 12000}
	out.Reset()
	if err := printReport(&out, rep, rep.e2e); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := last[key]; !ok {
			t.Fatalf("last line lacks %q: %s", key, lines[len(lines)-1])
		}
	}
	if len(last) != 4 {
		t.Fatalf("last line has %d keys, want 4", len(last))
	}
	var ms map[string]json.RawMessage
	if err := json.Unmarshal(last["metrics"], &ms); err != nil {
		t.Fatal(err)
	}
	if _, ok := ms["setup_s"]; !ok || len(ms) != 1 {
		t.Fatalf("JSON metrics %v, want setup_s alone: query_p99_ms is printed in the table only", ms)
	}
	if !strings.Contains(out.String(), "query_p99_ms") {
		t.Fatal("the table lacks query_p99_ms")
	}
}
