package bench

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"time"

	"semtree/internal/cluster"
	"semtree/internal/core"
	"semtree/internal/kdtree"
)

// churnOps is the operation count of each churn phase: enough queries
// at the query-heaviest mix for a stable p99, small enough that the
// full mix sweep stays in a CI smoke budget.
const churnOps = 1000

// Churn measures streaming ingest at scale along the point-count sweep
// (Params.Sizes), in three movements per size:
//
//  1. Construction: the sorted bulk loader against one-at-a-time
//     inserts over the same clustered points — wall seconds and fabric
//     messages for each. Wall is measured compute plus one modeled
//     Params.Latency transit per fabric message (every build message is
//     a synchronous wait; modeling the transit instead of sleeping it
//     keeps the sweep fast and dodges the OS timer's ~1ms sleep floor).
//     The bulk loader builds the balanced tree client-side and installs
//     whole subtrees, so both curves must sit strictly below the
//     incremental ones once N is large (the CI structural gate enforces
//     this at N >= 50k).
//  2. Persistence: the bulk tree's partition snapshot is encoded,
//     decoded, and restored, and the restored tree must answer the
//     whole query workload byte-identically — asserted here, an error
//     otherwise, so a figure never renders over a broken restore path.
//  3. Churn: for each insert/query mix (Params.Mixes, percent inserts),
//     a fresh restore of the snapshot serves interleaved inserts and
//     queries; reported per mix are query p99 milliseconds and box-
//     maintenance writes per insert (TreeStats.BoxWork) — the price of
//     keeping region metadata exact while the tree grows live.
func Churn(ctx context.Context, p Params) (*Figure, error) {
	p = p.withDefaults()
	m := 1
	for _, c := range p.Partitions {
		if c > m {
			m = c
		}
	}
	fig := &Figure{
		ID:     "churn",
		Title:  fmt.Sprintf("Streaming ingest: bulk load vs incremental build, snapshot restore, live churn (%d partitions, Bs=%d, dims=%d)", m, p.BucketSize, p.Dims),
		XLabel: "points",
		YLabel: "s | msgs | ms | writes/insert",
		YFmt:   "%.4f",
		Notes: []string{
			fmt.Sprintf("construction: same clustered points into empty trees; bulk = Tree.BulkLoad, incr = one-at-a-time InsertAll; build s = measured compute + messages x %v per-hop transit (each build message is a synchronous wait, modeled rather than slept to dodge timer granularity)", p.Latency),
			"restore byte-identity is asserted per size before any churn series is recorded",
			fmt.Sprintf("churn: %d ops per mix on a fresh snapshot restore; mix%% of ops are inserts, the rest K=%d queries on a zero-latency fabric", churnOps, p.K),
		},
	}
	bulkS := Series{Name: "bulk build s"}
	incrS := Series{Name: "incr build s"}
	bulkM := Series{Name: "bulk build msgs"}
	incrM := Series{Name: "incr build msgs"}
	p99 := make([]Series, len(p.Mixes))
	boxw := make([]Series, len(p.Mixes))
	for i, mix := range p.Mixes {
		p99[i] = Series{Name: fmt.Sprintf("p99 q ms @%d%% ins", mix)}
		boxw[i] = Series{Name: fmt.Sprintf("boxwork/ins @%d%% ins", mix)}
	}

	for _, n := range p.Sizes {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// churnOps extra points beyond the build set: every mix restores
		// its own tree from the same snapshot, so one insert block (IDs
		// disjoint from the build set) serves them all.
		data := makeClustered(n+churnOps, p.Queries, p.Dims, 2*m, p.Seed+int64(n))
		build := data.prefix(n)
		extra := data.points[n:]

		cfg := core.Config{
			Dim:               p.Dims,
			BucketSize:        p.BucketSize,
			PartitionCapacity: (m - 1) * p.BucketSize * 4,
			MaxPartitions:     m,
			Placement:         core.PlacementBox,
		}

		// Construction race. The incremental side goes first so the bulk
		// tree is the one left alive for the snapshot and churn phases.
		incrCfg := cfg
		incrFabric := cluster.NewInProc(cluster.InProcOptions{})
		incrCfg.Fabric = incrFabric
		incrTree, err := core.New(incrCfg)
		if err != nil {
			incrFabric.Close()
			return nil, err
		}
		start := time.Now()
		if err := incrTree.InsertAll(data.prefix(n), 1); err != nil {
			incrTree.Close()
			incrFabric.Close()
			return nil, fmt.Errorf("churn: incremental build at %d: %w", n, err)
		}
		incrMsgs := incrFabric.Stats().Messages
		incrWall := time.Since(start) + time.Duration(incrMsgs)*p.Latency
		incrTree.Close()
		incrFabric.Close()

		bulkCfg := cfg
		bulkFabric := cluster.NewInProc(cluster.InProcOptions{})
		bulkCfg.Fabric = bulkFabric
		bulkTree, err := core.New(bulkCfg)
		if err != nil {
			bulkFabric.Close()
			return nil, err
		}
		start = time.Now()
		if err := bulkTree.BulkLoad(ctx, build); err != nil {
			bulkTree.Close()
			bulkFabric.Close()
			return nil, fmt.Errorf("churn: bulk load at %d: %w", n, err)
		}
		bulkMsgs := bulkFabric.Stats().Messages
		bulkWall := time.Since(start) + time.Duration(bulkMsgs)*p.Latency

		x := float64(n)
		bulkS.X, bulkS.Y = append(bulkS.X, x), append(bulkS.Y, bulkWall.Seconds())
		incrS.X, incrS.Y = append(incrS.X, x), append(incrS.Y, incrWall.Seconds())
		bulkM.X, bulkM.Y = append(bulkM.X, x), append(bulkM.Y, float64(bulkMsgs))
		incrM.X, incrM.Y = append(incrM.X, x), append(incrM.Y, float64(incrMsgs))

		// Snapshot round trip, then byte-identity of the restored tree
		// over the whole query workload.
		snap, err := bulkTree.Snapshot()
		if err != nil {
			bulkTree.Close()
			bulkFabric.Close()
			return nil, fmt.Errorf("churn: snapshot at %d: %w", n, err)
		}
		var enc bytes.Buffer
		if err := core.EncodeSnapshot(&enc, snap); err != nil {
			bulkTree.Close()
			bulkFabric.Close()
			return nil, err
		}
		decoded, err := core.DecodeSnapshot(&enc)
		if err != nil {
			bulkTree.Close()
			bulkFabric.Close()
			return nil, err
		}
		want, err := queryAll(ctx, bulkTree, data.queries, p.K)
		bulkTree.Close()
		bulkFabric.Close()
		if err != nil {
			return nil, err
		}
		check, err := core.RestoreTree(core.Config{BucketSize: p.BucketSize}, decoded)
		if err != nil {
			return nil, fmt.Errorf("churn: restore at %d: %w", n, err)
		}
		got, err := queryAll(ctx, check, data.queries, p.K)
		check.Close()
		if err != nil {
			return nil, err
		}
		if err := sameResults(want, got); err != nil {
			return nil, fmt.Errorf("churn: restore at %d not byte-identical: %w", n, err)
		}

		// Live churn, one fresh restore per mix.
		for i, mix := range p.Mixes {
			tr, err := core.RestoreTree(core.Config{BucketSize: p.BucketSize}, decoded)
			if err != nil {
				return nil, fmt.Errorf("churn: restore for mix %d%%: %w", mix, err)
			}
			before, err := tr.Stats()
			if err != nil {
				tr.Close()
				return nil, err
			}
			var lat []time.Duration
			inserts := 0
			for op := 0; op < churnOps; op++ {
				if op%100 < mix {
					if err := tr.Insert(extra[inserts%len(extra)]); err != nil {
						tr.Close()
						return nil, fmt.Errorf("churn: insert under mix %d%%: %w", mix, err)
					}
					inserts++
					continue
				}
				q := data.queries[op%len(data.queries)]
				qs := time.Now()
				if _, _, err := tr.KNearest(ctx, q, p.K); err != nil {
					tr.Close()
					return nil, fmt.Errorf("churn: query under mix %d%%: %w", mix, err)
				}
				lat = append(lat, time.Since(qs))
			}
			after, err := tr.Stats()
			tr.Close()
			if err != nil {
				return nil, err
			}
			p99[i].X = append(p99[i].X, x)
			p99[i].Y = append(p99[i].Y, float64(p99Of(lat))/float64(time.Millisecond))
			perInsert := 0.0
			if inserts > 0 {
				perInsert = float64(after.BoxWork-before.BoxWork) / float64(inserts)
			}
			boxw[i].X = append(boxw[i].X, x)
			boxw[i].Y = append(boxw[i].Y, perInsert)
		}
	}
	fig.Series = append(fig.Series, bulkS, incrS, bulkM, incrM)
	fig.Series = append(fig.Series, p99...)
	fig.Series = append(fig.Series, boxw...)
	return fig, nil
}

// queryAll runs the workload through Tree.KNearest and collects the
// raw neighbor lists for byte-identity comparison.
func queryAll(ctx context.Context, tr *core.Tree, queries [][]float64, k int) ([][]kdtree.Neighbor, error) {
	var out [][]kdtree.Neighbor
	for _, q := range queries {
		ns, _, err := tr.KNearest(ctx, q, k)
		if err != nil {
			return nil, err
		}
		out = append(out, ns)
	}
	return out, nil
}

// p99Of returns the 99th-percentile duration (max for small samples).
func p99Of(lat []time.Duration) time.Duration {
	if len(lat) == 0 {
		return 0
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	idx := len(lat) * 99 / 100
	if idx >= len(lat) {
		idx = len(lat) - 1
	}
	return lat[idx]
}
