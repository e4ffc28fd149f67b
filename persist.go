package semtree

import (
	"context"
	"encoding/gob"
	"fmt"
	"io"

	"semtree/internal/core"
	"semtree/internal/fastmap"
	"semtree/internal/kdtree"
	"semtree/internal/semdist"
	"semtree/internal/triple"
	"semtree/internal/vocab"
)

// snapshotVersion is the on-disk format written by Save. Version 2
// adds the distributed tree's partition snapshot; Load still accepts
// version 1 streams (written before the tree was persisted) and
// rebuilds their tree through the bulk loader.
const snapshotVersion = 2

// ErrSnapshotCorrupt reports snapshot bytes that cannot be loaded:
// truncated or garbled encodings, unknown versions, and structural
// violations inside the persisted tree (core.ErrSnapshotCorrupt,
// re-exported). Test with errors.Is; corrupt input always returns this
// error — it never panics.
var ErrSnapshotCorrupt = core.ErrSnapshotCorrupt

// indexSnapshot is the gob payload of a persisted index: the triples
// with provenance, the embedding geometry (FastMap pivots plus the
// exact coordinates of every stored triple, so reloaded answers are
// bit-identical), the metric parameters the embedding was built under,
// and — since version 2 — the distributed tree's partition snapshot
// (core.TreeSnapshot), so a restart restores the exact tree layout
// without re-embedding or re-ingesting. Tree is nil in version 1
// streams (gob leaves absent fields zero); Load then rebuilds the tree
// from Coords through the bulk loader.
type indexSnapshot struct {
	Version int
	Options persistedOptions
	Entries []triple.Entry
	Mapper  fastmap.Snapshot[triple.Triple]
	Coords  [][]float64
	Tree    *core.TreeSnapshot
}

// Save writes a snapshot of the index to w. Concurrent queries, Insert
// and BulkAdd are fine: Save waits for in-flight ingests, captures the
// store and the tree while new ingests wait, and lets them resume
// before encoding. The persisted coordinates are read from the tree
// capture — the tree holds the only copy of each embedding. Rebalance
// and Repack must not run concurrently.
func Save(w io.Writer, ix *Index) error {
	entries, treeSnap, err := ix.capture()
	if err != nil {
		return err
	}
	// Ingests through the index cannot split the capture, but a triple
	// written to the store directly, or a tree mutated behind the
	// index, still can. Load rejects such a snapshot; report the
	// mutation instead of writing it. Every stored triple must own
	// exactly one tree point.
	coords := make([][]float64, len(entries))
	points, stray := int64(0), false
	for pi := range treeSnap.Parts {
		for ni := range treeSnap.Parts[pi].Nodes {
			for _, pt := range treeSnap.Parts[pi].Nodes[ni].Bucket {
				points++
				if pt.ID >= uint64(len(entries)) || coords[pt.ID] != nil {
					stray = true
					continue
				}
				coords[pt.ID] = pt.Coords
			}
		}
	}
	if treeSnap.Size != int64(len(entries)) || points != treeSnap.Size || stray {
		return fmt.Errorf("semtree: tree snapshot holds %d points (size %d) but %d triples are stored "+
			"(triples added to the store outside the index, or index mutated during Save?)",
			points, treeSnap.Size, len(entries))
	}
	snap := indexSnapshot{
		Version: snapshotVersion,
		Options: ix.opts,
		Entries: entries,
		Mapper:  ix.pivots,
		Coords:  coords,
		Tree:    treeSnap,
	}
	if err := gob.NewEncoder(w).Encode(&snap); err != nil {
		return fmt.Errorf("semtree: save: %w", err)
	}
	return nil
}

// capture copies the store's entries and the tree's partitions as one
// consistent cut: it holds the ingest lock exclusively, so no Insert or
// BulkAdd is between its store write and its tree insert.
func (ix *Index) capture() ([]triple.Entry, *core.TreeSnapshot, error) {
	ix.ingest.Lock()
	defer ix.ingest.Unlock()
	entries := make([]triple.Entry, 0, ix.store.Len())
	ix.store.Each(func(id triple.ID, e triple.Entry) bool {
		entries = append(entries, e)
		return true
	})
	treeSnap, err := ix.tree.Snapshot()
	if err != nil {
		return nil, nil, fmt.Errorf("semtree: save: %w", err)
	}
	return entries, treeSnap, nil
}

// encodeSnapshot and decodeSnapshot isolate the gob round trip for
// Save/Load and the format tests.
func encodeSnapshot(w io.Writer, snap *indexSnapshot) error {
	return gob.NewEncoder(w).Encode(snap)
}

func decodeSnapshot(r io.Reader, snap *indexSnapshot) error {
	return gob.NewDecoder(r).Decode(snap)
}

// Load reconstructs an index from a snapshot written by Save. The
// embedding parameters are taken from the snapshot; tree-layout options
// (bucket size, partitions, fabric) come from opts — their embedding
// fields (Weights, Measure, NumericLiterals, Dims, Seed) are ignored.
//
// A version-2 snapshot restores the distributed tree's exact partition
// layout (boxes and remote caches included) after structural
// validation, so the loaded index answers every query byte-identically
// to the saved one; opts.MaxPartitions is raised to the persisted
// partition count when lower. A version-1 snapshot (no tree payload)
// rebuilds the tree from the persisted coordinates through the bulk
// loader. Corrupt input — truncation, garbage, unknown versions, or a
// tree payload violating the structural invariants — returns
// ErrSnapshotCorrupt.
func Load(r io.Reader, opts Options) (*Index, error) {
	var snap indexSnapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("semtree: load: %w: %v", ErrSnapshotCorrupt, err)
	}
	if snap.Version != 1 && snap.Version != snapshotVersion {
		return nil, fmt.Errorf("semtree: load: %w: snapshot version %d, want 1 or %d",
			ErrSnapshotCorrupt, snap.Version, snapshotVersion)
	}
	if len(snap.Entries) != len(snap.Coords) {
		return nil, fmt.Errorf("semtree: load: %w: snapshot has %d entries but %d embeddings",
			ErrSnapshotCorrupt, len(snap.Entries), len(snap.Coords))
	}
	reg := opts.Registry
	if reg == nil {
		reg = vocab.DefaultRegistry()
	}
	measure := semdist.ConceptMeasure(nil)
	if snap.Options.Measure != "" {
		m, err := semdist.MeasureByName(snap.Options.Measure)
		if err != nil {
			return nil, err
		}
		measure = m
	}
	metric, err := semdist.New(reg, semdist.Options{
		Weights:         snap.Options.Weights,
		Concept:         measure,
		NumericLiterals: snap.Options.NumericLiterals,
	})
	if err != nil {
		return nil, err
	}
	mapper, err := anchoredMapper(metric, snap.Mapper)
	if err != nil {
		return nil, err
	}

	store := triple.NewStore()
	for _, e := range snap.Entries {
		store.Add(e.Triple, e.Prov)
	}

	for i, c := range snap.Coords {
		if len(c) != snap.Options.Dims {
			return nil, fmt.Errorf("semtree: load: %w: snapshot coordinate %d has %d dims, want %d",
				ErrSnapshotCorrupt, i, len(c), snap.Options.Dims)
		}
	}
	cfg := core.Config{
		Dim:               snap.Options.Dims,
		BucketSize:        opts.BucketSize,
		PartitionCapacity: opts.PartitionCapacity,
		MaxPartitions:     opts.MaxPartitions,
		Fabric:            opts.Fabric,
		Unbalanced:        opts.Unbalanced,
	}
	var tree *core.Tree
	if snap.Tree != nil {
		// Version 2: restore the persisted partition layout exactly.
		// The cross-check against the entry count comes before the
		// structural validation inside RestoreTree, so an inconsistent
		// envelope fails fast either way.
		if snap.Tree.Size != int64(len(snap.Entries)) {
			return nil, fmt.Errorf("semtree: load: %w: tree snapshot holds %d points but %d entries persisted",
				ErrSnapshotCorrupt, snap.Tree.Size, len(snap.Entries))
		}
		if snap.Tree.Dim != snap.Options.Dims {
			return nil, fmt.Errorf("semtree: load: %w: tree snapshot dim %d, embedding dim %d",
				ErrSnapshotCorrupt, snap.Tree.Dim, snap.Options.Dims)
		}
		// Every point the tree serves must resolve in the entry table —
		// reloaded IDs are positional — or queries over the restored tree
		// would surface phantom IDs.
		for pi := range snap.Tree.Parts {
			for ni := range snap.Tree.Parts[pi].Nodes {
				for _, pt := range snap.Tree.Parts[pi].Nodes[ni].Bucket {
					if pt.ID >= uint64(len(snap.Entries)) {
						return nil, fmt.Errorf("semtree: load: %w: tree references triple ID %d but only %d entries persisted",
							ErrSnapshotCorrupt, pt.ID, len(snap.Entries))
					}
				}
			}
		}
		t, err := core.RestoreTree(cfg, snap.Tree)
		if err != nil {
			return nil, fmt.Errorf("semtree: load: %w", err)
		}
		tree = t
	} else {
		// Version 1: no tree payload; rebuild balanced from the
		// persisted coordinates.
		t, err := core.New(cfg)
		if err != nil {
			return nil, err
		}
		points := make([]kdtree.Point, len(snap.Coords))
		for i, c := range snap.Coords {
			points[i] = kdtree.Point{Coords: c, ID: uint64(i)}
		}
		//semtree:allow ctxfirst: Load is construction-time and runs to completion by contract; there is no caller context to thread
		if err := t.BulkLoad(context.Background(), points); err != nil {
			t.Close()
			return nil, err
		}
		tree = t
	}

	return &Index{
		store: store, metric: metric, mapper: mapper, pivots: snap.Mapper, tree: tree,
		dims: snap.Options.Dims, opts: snap.Options,
	}, nil
}
