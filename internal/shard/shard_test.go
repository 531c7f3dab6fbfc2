package shard

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"e2lshos/internal/ann"
	"e2lshos/internal/coalesce"
)

// TestPartitionCovers: both placements assign every global ID exactly once
// and leave no shard empty.
func TestPartitionCovers(t *testing.T) {
	for _, p := range []Placement{Range, Hash} {
		cases := []struct{ n, shards int }{{10, 1}, {10, 3}, {1000, 7}}
		if p == Range {
			// Hash placement can leave a shard empty at n == shards (and
			// errors loudly); range placement must handle it.
			cases = append(cases, struct{ n, shards int }{5, 5})
		}
		for _, tc := range cases {
			globals, err := Partition(tc.n, tc.shards, p)
			if err != nil {
				t.Fatalf("%v n=%d shards=%d: %v", p, tc.n, tc.shards, err)
			}
			seen := make(map[uint32]bool, tc.n)
			for i, part := range globals {
				if len(part) == 0 {
					t.Errorf("%v n=%d shards=%d: shard %d empty", p, tc.n, tc.shards, i)
				}
				for _, g := range part {
					if seen[g] {
						t.Errorf("%v: global %d placed twice", p, g)
					}
					seen[g] = true
				}
			}
			if len(seen) != tc.n {
				t.Errorf("%v n=%d shards=%d: %d globals placed", p, tc.n, tc.shards, len(seen))
			}
		}
	}
}

// TestPartitionRangeContiguous: range placement is contiguous and ordered.
func TestPartitionRangeContiguous(t *testing.T) {
	globals, err := Partition(10, 3, Range)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, part := range globals {
		for _, g := range part {
			if int(g) != want {
				t.Fatalf("range placement not contiguous: got %d, want %d", g, want)
			}
			want++
		}
	}
}

// TestPartitionErrors: invalid shapes fail loudly.
func TestPartitionErrors(t *testing.T) {
	if _, err := Partition(3, 0, Range); err == nil {
		t.Error("0 shards accepted")
	}
	if _, err := Partition(2, 3, Range); err == nil {
		t.Error("more shards than objects accepted")
	}
}

// fakeShard answers every query with its shard's local object 0 at a
// per-shard distance, so merges are fully predictable.
func fakeSearch(dists []float64) SearchFunc[int] {
	return func(ctx context.Context, shard int, q []float32) (ann.Result, int, error) {
		if err := ctx.Err(); err != nil {
			return ann.Result{}, 0, err
		}
		return ann.Result{Neighbors: []ann.Neighbor{{ID: 0, Dist: dists[shard]}}}, 1, nil
	}
}

// TestRouterSearchMerge: the router returns the globally nearest answers
// with local IDs remapped through each shard's table.
func TestRouterSearchMerge(t *testing.T) {
	globals := [][]uint32{{7, 8}, {3}, {5, 6}}
	r, err := NewRouter[int](globals)
	if err != nil {
		t.Fatal(err)
	}
	res, stats, err := r.Search(context.Background(), []float32{0}, 2, fakeSearch([]float64{3.0, 1.0, 2.0}))
	if err != nil {
		t.Fatal(err)
	}
	wantIDs := []uint32{3, 5} // shard 1's local 0, then shard 2's local 0
	if len(res.Neighbors) != 2 || res.Neighbors[0].ID != wantIDs[0] || res.Neighbors[1].ID != wantIDs[1] {
		t.Fatalf("merged %v, want global IDs %v", res.Neighbors, wantIDs)
	}
	if len(stats) != 3 {
		t.Fatalf("got %d per-shard stats, want 3", len(stats))
	}
	for i, s := range stats {
		if s != 1 {
			t.Errorf("shard %d stats = %d, want 1", i, s)
		}
	}
}

// TestRouterBatchMerge: batch answers merge per query, positionally.
func TestRouterBatchMerge(t *testing.T) {
	globals := [][]uint32{{10, 11}, {20, 21}}
	r, err := NewRouter[int](globals)
	if err != nil {
		t.Fatal(err)
	}
	batch := func(ctx context.Context, shard int, queries [][]float32) ([]ann.Result, int, error) {
		out := make([]ann.Result, len(queries))
		for qi := range queries {
			// Shard 0 is nearer on even queries, shard 1 on odd ones.
			d := float64(1 + (qi+shard)%2)
			out[qi] = ann.Result{Neighbors: []ann.Neighbor{{ID: 1, Dist: d}}}
		}
		return out, len(queries), nil
	}
	queries := make([][]float32, 4)
	results, stats, err := r.BatchSearch(context.Background(), queries, 1, batch)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint32{11, 21, 11, 21}
	for qi, res := range results {
		if len(res.Neighbors) != 1 || res.Neighbors[0].ID != want[qi] {
			t.Errorf("query %d merged %v, want ID %d", qi, res.Neighbors, want[qi])
		}
	}
	for i, s := range stats {
		if s != len(queries) {
			t.Errorf("shard %d stats = %d, want %d", i, s, len(queries))
		}
	}
}

// TestRouterFailFast: one failing shard cancels its siblings' contexts, and
// the real error — not the induced cancellation — surfaces.
func TestRouterFailFast(t *testing.T) {
	globals := [][]uint32{{0}, {1}}
	r, err := NewRouter[int](globals)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("shard exploded")
	search := func(ctx context.Context, shard int, q []float32) (ann.Result, int, error) {
		if shard == 1 {
			return ann.Result{}, 0, boom
		}
		<-ctx.Done() // must be released by the router's fail-fast cancel
		return ann.Result{}, 0, ctx.Err()
	}
	_, _, err = r.Search(context.Background(), []float32{0}, 1, search)
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want the shard's own error", err)
	}
}

// TestRouterPartialOnCancel: answers gathered before cancellation are still
// merged and returned alongside the context error.
func TestRouterPartialOnCancel(t *testing.T) {
	globals := [][]uint32{{4}, {9}}
	r, err := NewRouter[int](globals)
	if err != nil {
		t.Fatal(err)
	}
	search := func(ctx context.Context, shard int, q []float32) (ann.Result, int, error) {
		if shard == 0 {
			return ann.Result{Neighbors: []ann.Neighbor{{ID: 0, Dist: 1}}}, 1, nil
		}
		return ann.Result{}, 0, fmt.Errorf("late shard: %w", context.Canceled)
	}
	res, _, err := r.Search(context.Background(), []float32{0}, 1, search)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if len(res.Neighbors) != 1 || res.Neighbors[0].ID != 4 {
		t.Fatalf("partial merge lost the answered shard: %v", res.Neighbors)
	}
}

// TestMergeTopK: the standalone merge used by the virtual-time experiments
// agrees with a hand-computed global top-k.
func TestMergeTopK(t *testing.T) {
	globals := [][]uint32{{100, 101}, {200, 201}}
	perShard := [][]ann.Result{
		{{Neighbors: []ann.Neighbor{{ID: 0, Dist: 2}, {ID: 1, Dist: 5}}}},
		{{Neighbors: []ann.Neighbor{{ID: 1, Dist: 1}, {ID: 0, Dist: 9}}}},
	}
	merged := MergeTopK(3, globals, perShard)
	if len(merged) != 1 {
		t.Fatalf("merged %d queries, want 1", len(merged))
	}
	want := []uint32{201, 100, 101}
	got := merged[0].IDs()
	if len(got) != len(want) {
		t.Fatalf("merged IDs %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merged IDs %v, want %v", got, want)
		}
	}
}

// TestScatterRecoversShardPanic: a shard closure that panics fails the
// scatter with an error wrapping coalesce.ErrPanic — which the serving layer
// counts — instead of taking the process down, and cancels its siblings.
func TestScatterRecoversShardPanic(t *testing.T) {
	globals, err := Partition(8, 2, Range)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRouter[int](globals)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = r.Search(context.Background(), []float32{0}, 1,
		func(ctx context.Context, shard int, q []float32) (ann.Result, int, error) {
			if shard == 1 {
				panic("index out of range")
			}
			<-ctx.Done() // the panicking sibling must cancel this one
			return ann.Result{}, 0, ctx.Err()
		})
	if !errors.Is(err, coalesce.ErrPanic) || !strings.Contains(err.Error(), "shard 1") {
		t.Fatalf("scatter over a panicking shard returned %v, want shard 1's ErrPanic", err)
	}
}
