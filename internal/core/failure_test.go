package core

import (
	"context"
	"math/rand"
	"testing"

	"semtree/internal/cluster"
)

func TestQueriesUnderFailureInjection(t *testing.T) {
	// Cross-partition search messages are retried on transient
	// failures; with a bounded failure rate and enough attempts every
	// query must still return the exact answer.
	fabric := cluster.NewInProc(cluster.InProcOptions{FailureRate: 0.10, Seed: 7})
	defer fabric.Close()
	r := rand.New(rand.NewSource(8))
	pts := randomPoints(r, 1000, 3)
	tr := mustTree(t, Config{
		Dim: 3, BucketSize: 8,
		PartitionCapacity: 120, MaxPartitions: 6,
		Fabric: fabric, RetryAttempts: 40,
	})
	if err := tr.InsertAll(pts, 2); err != nil {
		t.Fatal(err)
	}
	if tr.PartitionCount() < 2 {
		t.Fatalf("no partitioning: %d", tr.PartitionCount())
	}
	for q := 0; q < 30; q++ {
		query := []float64{r.Float64() * 100, r.Float64() * 100, r.Float64() * 100}
		got, _, err := tr.KNearest(context.Background(), query, 5)
		if err != nil {
			t.Fatalf("KNN under failures: %v", err)
		}
		if want := bruteKNN(pts, query, 5); !sameDistances(got, want) {
			t.Fatal("KNN wrong under failures")
		}
		gotR, _, err := tr.RangeSearch(context.Background(), query, 15)
		if err != nil {
			t.Fatalf("range under failures: %v", err)
		}
		if wantR := bruteRange(pts, query, 15); !sameIDSets(gotR, wantR) {
			t.Fatal("range wrong under failures")
		}
	}
	if fabric.Stats().Failures == 0 {
		t.Fatal("no failures injected — test vacuous")
	}
}

func TestQueryFailsWhenRetriesExhausted(t *testing.T) {
	// With certain failure and no retries budget, cross-partition
	// operations must surface an error rather than return wrong data.
	fabric := cluster.NewInProc(cluster.InProcOptions{Seed: 9})
	r := rand.New(rand.NewSource(10))
	pts := randomPoints(r, 500, 2)
	tr := mustTree(t, Config{
		Dim: 2, BucketSize: 8,
		PartitionCapacity: 80, MaxPartitions: 4,
		Fabric: fabric, RetryAttempts: 2,
	})
	if err := tr.InsertAll(pts, 1); err != nil {
		t.Fatal(err)
	}
	// Close the fabric out from under the tree: every cross-partition
	// call now fails permanently.
	fabric.Close()
	if _, _, err := tr.KNearest(context.Background(), []float64{50, 50}, 3); err == nil {
		t.Fatal("query on dead fabric returned no error")
	}
}
