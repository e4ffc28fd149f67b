package main

import (
	"math"
	"runtime"
	"slices"
	"sort"
	"time"

	"semtree"
	"semtree/internal/core"
	"semtree/internal/kdtree"
	"semtree/internal/triple"
)

// layerSumTolerancePct is how far, at the 99th percentile of a request
// path's requests, the layer self times may sum from the
// client-observed span before the trace counts as inconsistent and the
// run fails. Each self time is a difference of nested spans taken as
// measured, so a consistent trace misses by nothing; a span escaping
// its parent, or a layer reporting a wall time shorter than the calls
// it made, makes a piece negative and counts in full.
const layerSumTolerancePct = 5.0

// perLayer lists every per-layer metric and its unit. A traced run
// prints all of them; a layer a workload does not exercise reads 0.
var perLayer = map[string]string{
	"serve.self_us":               "us",
	"serve.wire_bytes_per_req":    "bytes",
	"facade.self_us":              "us",
	"facade.insert_self_us":       "us",
	"fastmap.map_us":              "us",
	"fastmap.build_s":             "s",
	"semdist.distance_ns":         "ns",
	"core.exec_us":                "us",
	"core.client_self_us":         "us",
	"core.partition_self_us":      "us",
	"core.dist_evals_per_q":       "count",
	"core.nodes_per_q":            "count",
	"core.msgs_per_q":             "count",
	"core.partitions_per_q":       "count",
	"core.probe_miss_ratio":       "ratio",
	"core.fanout_share":           "ratio",
	"core.insert_exec_us":         "us",
	"core.nav_steps_per_insert":   "count",
	"core.box_work_per_insert":    "count",
	"core.msgs_per_insert":        "count",
	"cluster.rtt_us":              "us",
	"cluster.transit_us":          "us",
	"cluster.bytes_per_call":      "bytes",
	"cluster.failures":            "count",
	"kdtree.knn_us":               "us",
	"kdtree.points_scanned_per_q": "count",
	"runtime.allocs_per_op":       "count",
	"runtime.alloc_bytes_per_op":  "bytes",
	"runtime.gc_cycles":           "count",
	"bench.trace_overhead_pct":    "%",
	"bench.layer_sum_err_pct":     "%",
	"bench.failed_ratio":          "ratio",
}

// layerSet accumulates per-layer metrics; unset ones read 0.
type layerSet map[string]metric

func newLayerSet() layerSet {
	l := layerSet{}
	for name, unit := range perLayer {
		l[name] = metric{unit: unit}
	}
	return l
}

func (l layerSet) set(name string, value float64, samples int) {
	m, ok := l[name]
	if !ok {
		panic("perfbench: unknown layer metric " + name)
	}
	if math.IsNaN(value) || math.IsInf(value, 0) {
		value = 0
	}
	m.value, m.samples = value, samples
	l[name] = m
}

// execTotals sums the ExecStats of the queries of a phase.
type execTotals struct {
	n                                 int
	wall                              time.Duration
	dists, nodes, msgs, parts, misses int64
	fanout                            int
}

func (e *execTotals) add(st semtree.ExecStats) {
	e.n++
	e.wall += st.Wall
	e.dists += st.DistanceEvals
	e.nodes += st.NodesVisited
	e.msgs += st.FabricMessages
	e.parts += int64(st.Partitions)
	e.misses += st.ProbeMisses
	if st.Protocol == core.ProtocolNameParallel {
		e.fanout++
	}
}

func (e *execTotals) merge(o execTotals) {
	e.n += o.n
	e.wall += o.wall
	e.dists += o.dists
	e.nodes += o.nodes
	e.msgs += o.msgs
	e.parts += o.parts
	e.misses += o.misses
	e.fanout += o.fanout
}

func (e execTotals) report(l layerSet) {
	if e.n == 0 {
		return
	}
	n := float64(e.n)
	l.set("core.exec_us", float64(e.wall)/1e3/n, e.n)
	l.set("core.dist_evals_per_q", float64(e.dists)/n, e.n)
	l.set("core.nodes_per_q", float64(e.nodes)/n, e.n)
	l.set("core.msgs_per_q", float64(e.msgs)/n, e.n)
	l.set("core.partitions_per_q", float64(e.parts)/n, e.n)
	// Every message but the client's root call is a downstream call.
	l.set("core.probe_miss_ratio", float64(e.misses)/float64(e.msgs-int64(e.n)), e.n)
	l.set("core.fanout_share", float64(e.fanout)/n, e.n)
}

// analyze derives the span-based layer metrics. Request paths are the
// facade.search spans; each wire request is paired with the in-process
// search of the same request ID.
func analyze(spans []span, l layerSet) {
	kids := make(map[uint64][]*span, len(spans))
	for i := range spans {
		s := &spans[i]
		if s.Parent != noParent {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	handlerOf := func(c *span) *span {
		for _, k := range kids[c.ID] {
			if k.Name == spanHandler {
				return k
			}
		}
		return nil
	}
	callsOf := func(p *span) []*span {
		var out []*span
		for _, k := range kids[p.ID] {
			if k.Name == spanCall {
				out = append(out, k)
			}
		}
		return out
	}

	// Per call: round trip and transit (round trip minus the callee's
	// handler time), over every call of the phase.
	var calls, matched int
	var rtt, transit float64
	for i := range spans {
		c := &spans[i]
		if c.Name != spanCall {
			continue
		}
		calls++
		rtt += float64(c.dur())
		if h := handlerOf(c); h != nil {
			matched++
			transit += float64(c.dur() - h.dur())
		}
	}
	if calls > 0 {
		l.set("cluster.rtt_us", rtt/1e3/float64(calls), calls)
	}
	if matched > 0 {
		l.set("cluster.transit_us", transit/1e3/float64(matched), matched)
	}

	// Per request: the facade's own time, core's client-side time
	// outside its root calls, and under each call the transit and the
	// partition handler's self time. For the sum, the pieces under
	// parallel calls are scaled so siblings share the interval they
	// jointly cover: a fan-out's parts overlap, and only the covered
	// time blocks the request. Each piece is taken as measured, not
	// clipped, so the pieces of a consistent trace are non-negative and
	// add up to the request's span; a piece below zero (a child span
	// escaping its parent, or ExecStats.Wall shorter than the root
	// calls it made) adds its size to the request's error.
	var queries int
	var facadeSelf, clientSelf, partSelf float64
	var searchErr, insertErr []float64
	searchByReq := map[uint64]*span{}
	// walk returns the partitions' self time under call c, the sum of
	// c's scaled layer pieces, and the size of its negative pieces.
	var walk func(c *span, scale float64) (parts, layered, neg float64)
	walk = func(c *span, scale float64) (float64, float64, float64) {
		h := handlerOf(c)
		if h == nil {
			return 0, scale * float64(c.dur()), 0
		}
		children := callsOf(h)
		cov, sum := coverage(children, *h)
		self := float64(h.dur() - cov)
		neg := escape(h, c)
		for _, k := range children {
			neg += escape(k, h)
		}
		parts, layered := self, scale*(float64(c.dur()-h.dur())+self)
		if sum > 0 {
			s2 := scale * float64(cov) / float64(sum)
			for _, k := range children {
				p, lay, n := walk(k, s2)
				parts += p
				layered += lay
				neg += n
			}
		}
		return parts, layered, neg
	}
	// under returns the layer pieces of a request span below its root
	// calls: the partitions' self time, the sum of the scaled pieces,
	// how much of the span the calls cover, and the negative pieces.
	under := func(r *span) (parts, layered, cov, neg float64) {
		roots := callsOf(r)
		c, sum := coverage(roots, *r)
		for _, k := range roots {
			neg += escape(k, r)
		}
		if sum > 0 {
			scale := float64(c) / float64(sum)
			for _, k := range roots {
				p, lay, n := walk(k, scale)
				parts += p
				layered += lay
				neg += n
			}
		}
		return parts, layered, float64(c), neg
	}
	relErr := func(layered, neg float64, r *span) float64 {
		return (math.Abs(layered-float64(r.dur())) + neg) / float64(max(r.dur(), 1))
	}
	for i := range spans {
		r := &spans[i]
		if r.Name != spanSearch || r.Err {
			continue
		}
		searchByReq[r.Req] = r
		queries++
		parts, layered, cov, neg := under(r)
		fs := float64(r.dur() - r.Exec)
		cs := float64(r.Exec) - cov
		facadeSelf += fs
		clientSelf += cs
		partSelf += parts
		searchErr = append(searchErr, relErr(layered+fs+cs, neg+negative(fs)+negative(cs), r))
	}
	if queries > 0 {
		n := float64(queries)
		l.set("facade.self_us", facadeSelf/1e3/n, queries)
		l.set("core.client_self_us", clientSelf/1e3/n, queries)
		l.set("core.partition_self_us", partSelf/1e3/n, queries)
	}

	// Serve: wire wall minus the paired in-process search. The two are
	// separate executions of one request, so serve.self_us closes the
	// wire path's sum by definition and is negative whenever the paired
	// search ran slower than the wire; the wire path is checked through
	// the nested spans of its search.
	var wires int
	var serveSelf float64
	for i := range spans {
		w := &spans[i]
		if w.Name != spanWire || w.Err {
			continue
		}
		if s, ok := searchByReq[w.Req]; ok {
			wires++
			serveSelf += float64(w.dur() - s.dur())
		}
	}
	if wires > 0 {
		l.set("serve.self_us", serveSelf/1e3/float64(wires), wires)
	}

	// Inserts: the facade's time around its root fabric call.
	var inserts int
	var insSelf, insExec float64
	for i := range spans {
		s := &spans[i]
		if s.Name != spanInsert || s.Err {
			continue
		}
		_, layered, cov, neg := under(s)
		fs := float64(s.dur()) - cov
		inserts++
		insSelf += fs
		insExec += cov
		insertErr = append(insertErr, relErr(fs+layered, neg, s))
	}
	if inserts > 0 {
		l.set("facade.insert_self_us", insSelf/1e3/float64(inserts), inserts)
		l.set("core.insert_exec_us", insExec/1e3/float64(inserts), inserts)
	}

	// The check's figure is the worst request path's p99 error (its
	// largest error when the path has too few requests for a p99).
	var worst float64
	var n int
	for _, errs := range [][]float64{searchErr, insertErr} {
		if len(errs) == 0 {
			continue
		}
		e, err := percentile(errs, 0.99)
		if err != nil {
			e = slices.Max(errs)
		}
		worst = max(worst, e)
		n += len(errs)
	}
	if n > 0 {
		l.set("bench.layer_sum_err_pct", 100*worst, n)
	}
}

// negative returns how far x lies below zero.
func negative(x float64) float64 { return max(0, -x) }

// escape returns how far child c lies outside the interval of its
// parent p.
func escape(c, p *span) float64 {
	return float64(max(0, p.Start-c.Start) + max(0, c.End-p.End))
}

// clip returns s cut to the interval of p.
func clip(s, p *span) span {
	c := *s
	c.Start = max(c.Start, p.Start)
	c.End = min(c.End, p.End)
	if c.End < c.Start {
		c.End = c.Start
	}
	return c
}

// coverage returns how much of p's interval the spans cover (their
// union, clipped to p) and the sum of their clipped durations.
func coverage(ss []*span, p span) (cov, sum int64) {
	if len(ss) == 0 {
		return 0, 0
	}
	iv := make([][2]int64, 0, len(ss))
	for _, s := range ss {
		c := clip(s, &p)
		iv = append(iv, [2]int64{c.Start, c.End})
		sum += c.End - c.Start
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	cur := iv[0]
	for _, x := range iv[1:] {
		if x[0] > cur[1] {
			cov += cur[1] - cur[0]
			cur = x
		} else if x[1] > cur[1] {
			cur[1] = x[1]
		}
	}
	cov += cur[1] - cur[0]
	return cov, sum
}

// memDelta measures allocation and GC activity over a phase.
type memDelta struct{ start runtime.MemStats }

func startMem() *memDelta {
	m := &memDelta{}
	runtime.ReadMemStats(&m.start)
	return m
}

func (m *memDelta) report(l layerSet, ops int) {
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	if ops == 0 {
		return
	}
	l.set("runtime.allocs_per_op", float64(end.Mallocs-m.start.Mallocs)/float64(ops), ops)
	l.set("runtime.alloc_bytes_per_op", float64(end.TotalAlloc-m.start.TotalAlloc)/float64(ops), ops)
	l.set("runtime.gc_cycles", float64(end.NumGC-m.start.NumGC), ops)
}

// liveHeapMB forces a collection and returns the live heap in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// probeLayers times direct calls into fastmap, semdist and kdtree over
// a workload's own inputs: Mapper.Map on the queries, Metric.Distance
// on (query, candidate) pairs, and a local kdtree built from the
// index's coordinates answering the same queries with the same K.
func probeLayers(l layerSet, c *corpus, n int, queries []triple.Triple, cands [][]uint64) {
	l.set("fastmap.build_s", c.buildT.Seconds(), 1)

	qs := make([][]float64, len(queries))
	start := time.Now()
	for i, q := range queries {
		qs[i] = c.mapper.Map(q)
	}
	l.set("fastmap.map_us", float64(time.Since(start))/1e3/float64(len(queries)), len(queries))

	var pairs int
	start = time.Now()
	for i, ids := range cands {
		for _, id := range ids {
			_ = c.metric.Distance(queries[i], c.tripleOf(id))
			pairs++
		}
	}
	if pairs > 0 {
		l.set("semdist.distance_ns", float64(time.Since(start))/float64(pairs), pairs)
	}

	pts := make([]kdtree.Point, n)
	for id := range pts {
		pts[id] = kdtree.Point{Coords: c.table.row(uint64(id)), ID: uint64(id)}
	}
	tree, err := kdtree.BulkLoad(pts, dims, kdtree.DefaultBucketSize)
	if err != nil {
		panic(err) // coordinates of the right dimension cannot fail
	}
	var st kdtree.Stats
	start = time.Now()
	for _, q := range qs {
		tree.KNearestWithStats(q, k, &st)
	}
	l.set("kdtree.knn_us", float64(time.Since(start))/1e3/float64(len(qs)), len(qs))
	l.set("kdtree.points_scanned_per_q", float64(st.PointsScanned)/float64(len(qs)), len(qs))
}
