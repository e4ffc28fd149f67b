package core

// Counter identity for the search kernel: on a fixed-seed 8-dim
// multi-partition tree, every answer and every ExecStats work counter
// must equal the figures recorded in counterGolden. The kernel's
// shortcuts (skipping Offer for a point strictly beyond the k-th best,
// evaluating a far child's box guard lazily at pop time) are only
// allowed to save instructions, never to change which nodes, buckets,
// distances, messages or partitions a query costs. Protocols are pinned
// explicitly: ProtocolAuto's choice depends on measured compute time.

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"semtree/internal/kdtree"
)

// counterRecord summarizes one mode's query mix: a digest over every
// answer (IDs and distance bits) and every per-query counter, plus the
// counter totals so a mismatch reads as a work difference.
type counterRecord struct {
	Digest                                     uint64
	Nodes, Buckets, Dists, Msgs, Parts, Misses int64
}

// counterGolden holds the figures the kernel must reproduce exactly,
// recorded from the array-of-structs leaves with an eager push-time box
// guard and an unconditional Offer per scanned point.
var counterGolden = map[string]counterRecord{
	"box/knn/seq":        {Digest: 0x8e7ec54d2961811a, Nodes: 28779, Buckets: 9839, Dists: 58086, Msgs: 766, Parts: 766, Misses: 355},
	"box/knn/parallel":   {Digest: 0xf35e79d867e6dcc9, Nodes: 40536, Buckets: 14650, Dists: 86412, Msgs: 669, Parts: 669, Misses: 204},
	"box/range":          {Digest: 0x2aaa0716f2f8359f, Nodes: 14654, Buckets: 4573, Dists: 27473, Msgs: 456, Parts: 456},
	"plane/knn/seq":      {Digest: 0x5ecd85b94d794ad3, Nodes: 56592, Buckets: 26118, Dists: 150846, Msgs: 851, Parts: 851, Misses: 440},
	"plane/knn/parallel": {Digest: 0xb0ea2ee4771707b1, Nodes: 74511, Buckets: 35159, Dists: 203360, Msgs: 766, Parts: 766, Misses: 301},
	"plane/range":        {Digest: 0xc17d038df5544765, Nodes: 31010, Buckets: 14522, Dists: 84023, Msgs: 516, Parts: 516},
}

// counterPoints mixes uniform coordinates with an integer grid, so
// squared distances tie often and the ID tie-break path is exercised.
func counterPoints(r *rand.Rand, n, dim int) []kdtree.Point {
	pts := make([]kdtree.Point, n)
	for i := range pts {
		c := make([]float64, dim)
		for d := range c {
			if i%2 == 0 {
				c[d] = r.Float64() * 10
			} else {
				c[d] = float64(r.Intn(10))
			}
		}
		pts[i] = kdtree.Point{Coords: c, ID: uint64(i)}
	}
	return pts
}

func TestKernelCounterIdentity(t *testing.T) {
	const dim = 8
	r := rand.New(rand.NewSource(41))
	pts := counterPoints(r, 3000, dim)
	queries := make([][]float64, 30)
	for i := range queries {
		if i%3 == 0 {
			queries[i] = pts[r.Intn(len(pts))].Coords // exact hits tie at distance 0
			continue
		}
		queries[i] = counterPoints(r, 2, dim)[i%2].Coords
	}
	got := map[string]counterRecord{}
	for _, plane := range []bool{false, true} {
		tr := mustTree(t, Config{
			Dim: dim, BucketSize: 8,
			PartitionCapacity: 64, MaxPartitions: 9,
			PlaneGuardOnly: plane,
		})
		if err := tr.InsertAll(pts, 1); err != nil {
			t.Fatal(err)
		}
		if n := tr.PartitionCount(); n < 4 {
			t.Fatalf("partitions = %d, want >= 4", n)
		}
		guard := "box"
		if plane {
			guard = "plane"
		}
		for _, proto := range []Protocol{ProtocolSequential, ProtocolFanOut} {
			var acc counterAcc
			for _, q := range queries {
				for _, k := range []int{1, 10, 40} {
					ns, st, err := tr.knnResolved(context.Background(), q, k, proto, false)
					if err != nil {
						t.Fatal(err)
					}
					acc.add(ns, st)
				}
			}
			got[fmt.Sprintf("%s/knn/%s", guard, protoName(proto))] = acc.rec
		}
		var acc counterAcc
		for _, q := range queries {
			for _, d := range []float64{2, 6} {
				ns, st, err := tr.RangeSearch(context.Background(), q, d)
				if err != nil {
					t.Fatal(err)
				}
				acc.add(ns, st)
			}
		}
		got[guard+"/range"] = acc.rec
	}
	for mode, rec := range got {
		if want, ok := counterGolden[mode]; !ok || rec != want {
			t.Errorf("%s: got %#v, want %#v", mode, rec, want)
		}
	}
}

func protoName(p Protocol) string {
	if p == ProtocolFanOut {
		return "parallel"
	}
	return "seq"
}

type counterAcc struct {
	h   uint64
	rec counterRecord
}

func (a *counterAcc) add(ns []kdtree.Neighbor, s ExecStats) {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	put(a.rec.Digest)
	put(uint64(len(ns)))
	for _, n := range ns {
		put(n.Point.ID)
		put(math.Float64bits(n.Dist))
	}
	for _, v := range []int64{s.NodesVisited, s.BucketsScanned, s.DistanceEvals,
		s.FabricMessages, int64(s.Partitions), s.ProbeMisses} {
		put(uint64(v))
	}
	a.rec.Digest = h.Sum64()
	a.rec.Nodes += s.NodesVisited
	a.rec.Buckets += s.BucketsScanned
	a.rec.Dists += s.DistanceEvals
	a.rec.Msgs += s.FabricMessages
	a.rec.Parts += int64(s.Partitions)
	a.rec.Misses += s.ProbeMisses
}
