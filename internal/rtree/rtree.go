// Package rtree implements a static R-tree over low-dimensional points,
// bulk-loaded with the Sort-Tile-Recursive (STR) algorithm and searched with
// best-first incremental nearest-neighbor browsing (distance browsing).
//
// It is the index substrate of the SRS baseline (§3.1): SRS projects the
// d-dimensional database into a tiny m-dimensional space and performs an
// incremental NN scan there. The iterator therefore exposes visit counters so
// the cost model can charge SRS for exactly the tree work it performed.
package rtree

import (
	"fmt"
	"math"
	"sort"
)

// DefaultNodeFanout is the node capacity used when Options.Fanout is zero.
// SRS uses page-sized nodes; 32 entries approximates one cache-friendly node.
const DefaultNodeFanout = 32

// Options configure tree construction.
type Options struct {
	// Fanout is the maximum number of entries per node (leaf and internal).
	Fanout int
}

// node is one R-tree node. Leaves reference point IDs; internal nodes
// reference child node indexes. Bounding boxes are stored flattened as
// [min0..minD-1, max0..maxD-1].
type node struct {
	box      []float64
	children []int32 // node indexes (internal) or point ids (leaf)
	leaf     bool
}

// Tree is an immutable R-tree.
type Tree struct {
	dim    int
	fanout int
	points [][]float32
	nodes  []node
	root   int32
}

// Build bulk-loads a tree over points using STR. All points must share the
// same dimension. The tree keeps a reference to points; callers must not
// mutate them afterwards.
func Build(points [][]float32, opts Options) (*Tree, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("rtree: empty point set")
	}
	dim := len(points[0])
	if dim == 0 {
		return nil, fmt.Errorf("rtree: zero-dimensional points")
	}
	for i, p := range points {
		if len(p) != dim {
			return nil, fmt.Errorf("rtree: point %d has dim %d, want %d", i, len(p), dim)
		}
	}
	fanout := opts.Fanout
	if fanout == 0 {
		fanout = DefaultNodeFanout
	}
	if fanout < 2 {
		return nil, fmt.Errorf("rtree: fanout must be at least 2, got %d", fanout)
	}
	t := &Tree{dim: dim, fanout: fanout, points: points}

	ids := make([]int32, len(points))
	for i := range ids {
		ids[i] = int32(i)
	}
	strSort(points, ids, dim, fanout, 0)

	// Build leaves over consecutive runs of the STR ordering.
	level := make([]int32, 0, (len(ids)+fanout-1)/fanout)
	for lo := 0; lo < len(ids); lo += fanout {
		hi := lo + fanout
		if hi > len(ids) {
			hi = len(ids)
		}
		n := node{leaf: true, children: append([]int32(nil), ids[lo:hi]...)}
		n.box = t.leafBox(n.children)
		t.nodes = append(t.nodes, n)
		level = append(level, int32(len(t.nodes)-1))
	}
	// Build upper levels by grouping consecutive nodes (they are spatially
	// ordered thanks to STR).
	for len(level) > 1 {
		next := make([]int32, 0, (len(level)+fanout-1)/fanout)
		for lo := 0; lo < len(level); lo += fanout {
			hi := lo + fanout
			if hi > len(level) {
				hi = len(level)
			}
			n := node{children: append([]int32(nil), level[lo:hi]...)}
			n.box = t.innerBox(n.children)
			t.nodes = append(t.nodes, n)
			next = append(next, int32(len(t.nodes)-1))
		}
		level = next
	}
	t.root = level[0]
	return t, nil
}

// strSort orders ids by recursive sort-tile partitioning on successive axes.
func strSort(points [][]float32, ids []int32, dim, fanout, axis int) {
	if len(ids) <= fanout || axis >= dim {
		return
	}
	sort.Slice(ids, func(i, j int) bool {
		return points[ids[i]][axis] < points[ids[j]][axis]
	})
	// Number of vertical slabs: S = ceil( (n/fanout)^(1/(dim-axis)) ).
	leaves := float64(len(ids)) / float64(fanout)
	slabs := int(math.Ceil(math.Pow(leaves, 1/float64(dim-axis))))
	if slabs < 1 {
		slabs = 1
	}
	slabSize := (len(ids) + slabs - 1) / slabs
	for lo := 0; lo < len(ids); lo += slabSize {
		hi := lo + slabSize
		if hi > len(ids) {
			hi = len(ids)
		}
		strSort(points, ids[lo:hi], dim, fanout, axis+1)
	}
}

func (t *Tree) leafBox(ids []int32) []float64 {
	box := make([]float64, 2*t.dim)
	for d := 0; d < t.dim; d++ {
		box[d] = math.Inf(1)
		box[t.dim+d] = math.Inf(-1)
	}
	for _, id := range ids {
		p := t.points[id]
		for d := 0; d < t.dim; d++ {
			v := float64(p[d])
			if v < box[d] {
				box[d] = v
			}
			if v > box[t.dim+d] {
				box[t.dim+d] = v
			}
		}
	}
	return box
}

func (t *Tree) innerBox(children []int32) []float64 {
	box := make([]float64, 2*t.dim)
	for d := 0; d < t.dim; d++ {
		box[d] = math.Inf(1)
		box[t.dim+d] = math.Inf(-1)
	}
	for _, c := range children {
		cb := t.nodes[c].box
		for d := 0; d < t.dim; d++ {
			if cb[d] < box[d] {
				box[d] = cb[d]
			}
			if cb[t.dim+d] > box[t.dim+d] {
				box[t.dim+d] = cb[t.dim+d]
			}
		}
	}
	return box
}

// minDistSq returns the squared MINDIST from q to the box: zero inside the
// box, otherwise the squared distance to the nearest face.
func minDistSq(q []float32, box []float64, dim int) float64 {
	var s float64
	for d := 0; d < dim; d++ {
		v := float64(q[d])
		if v < box[d] {
			diff := box[d] - v
			s += diff * diff
		} else if v > box[dim+d] {
			diff := v - box[dim+d]
			s += diff * diff
		}
	}
	return s
}

// Dim returns the dimensionality of the indexed points.
func (t *Tree) Dim() int { return t.dim }

// Len returns the number of indexed points.
func (t *Tree) Len() int { return len(t.points) }

// NumNodes returns the total node count (the index size driver for SRS).
func (t *Tree) NumNodes() int { return len(t.nodes) }

// Stats counts the work performed by an iterator, for the cost model.
type Stats struct {
	// NodesVisited counts internal and leaf nodes popped from the frontier.
	NodesVisited int
	// EntriesScanned counts child boxes and leaf points evaluated.
	EntriesScanned int
}

// Iterator yields indexed points in ascending distance from a query, lazily.
type Iterator struct {
	t     *Tree
	q     []float32
	pq    frontier
	stats Stats
}

// NewIterator starts an incremental NN scan from q.
func (t *Tree) NewIterator(q []float32) *Iterator {
	it := &Iterator{}
	t.ResetIterator(it, q)
	return it
}

// ResetIterator re-seeds it for a fresh scan from q, reusing the frontier
// backing array: NewIterator without the per-query allocation, for searchers
// that own their iterator.
func (t *Tree) ResetIterator(it *Iterator, q []float32) {
	if len(q) != t.dim {
		panic(fmt.Sprintf("rtree: query dim %d, tree dim %d", len(q), t.dim))
	}
	it.t = t
	it.q = q
	it.pq = it.pq[:0]
	it.stats = Stats{}
	it.pq.push(frontierItem{distSq: minDistSq(q, t.nodes[t.root].box, t.dim), id: t.root, isNode: true})
}

// Next returns the next nearest point ID and its (true, non-squared) distance
// in the tree's space. ok is false when the scan is exhausted.
func (it *Iterator) Next() (id int32, dist float64, ok bool) {
	for it.pq.Len() > 0 {
		item := it.pq.pop()
		if !item.isNode {
			return item.id, math.Sqrt(item.distSq), true
		}
		n := &it.t.nodes[item.id]
		it.stats.NodesVisited++
		if n.leaf {
			for _, pid := range n.children {
				it.stats.EntriesScanned++
				d := sqDist32(it.q, it.t.points[pid])
				it.pq.push(frontierItem{distSq: d, id: pid})
			}
		} else {
			for _, cid := range n.children {
				it.stats.EntriesScanned++
				d := minDistSq(it.q, it.t.nodes[cid].box, it.t.dim)
				it.pq.push(frontierItem{distSq: d, id: cid, isNode: true})
			}
		}
	}
	return 0, 0, false
}

// Stats returns the work counters accumulated so far.
func (it *Iterator) Stats() Stats { return it.stats }

func sqDist32(a, b []float32) float64 {
	var s float64
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		s += d * d
	}
	return s
}

// frontierItem is one priority queue element: either a node or a point.
type frontierItem struct {
	distSq float64
	id     int32
	isNode bool
}

// frontier is a min-heap on distSq with deterministic tie-breaking. It is
// typed (no container/heap interface boxing), so pushing a frontier item on
// the scan hot path allocates nothing beyond the backing array's growth.
type frontier []frontierItem

func (f frontier) Len() int { return len(f) }
func (f frontier) less(i, j int) bool {
	if f[i].distSq != f[j].distSq {
		return f[i].distSq < f[j].distSq
	}
	if f[i].isNode != f[j].isNode {
		return !f[i].isNode // points before nodes on ties
	}
	return f[i].id < f[j].id
}

func (f *frontier) push(item frontierItem) {
	*f = append(*f, item)
	h := *f
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (f *frontier) pop() frontierItem {
	h := *f
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	*f = h
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.less(l, smallest) {
			smallest = l
		}
		if r < n && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
	return top
}

// Validate checks the structural invariants: every child box is contained in
// its parent box and every point is inside its leaf box. It is exported for
// tests and for use as a post-build assertion in debug builds.
func (t *Tree) Validate() error {
	return t.validateNode(t.root)
}

func (t *Tree) validateNode(id int32) error {
	n := &t.nodes[id]
	if n.leaf {
		for _, pid := range n.children {
			p := t.points[pid]
			for d := 0; d < t.dim; d++ {
				v := float64(p[d])
				if v < n.box[d]-1e-9 || v > n.box[t.dim+d]+1e-9 {
					return fmt.Errorf("rtree: point %d outside leaf box on dim %d", pid, d)
				}
			}
		}
		return nil
	}
	for _, cid := range n.children {
		cb := t.nodes[cid].box
		for d := 0; d < t.dim; d++ {
			if cb[d] < n.box[d]-1e-9 || cb[t.dim+d] > n.box[t.dim+d]+1e-9 {
				return fmt.Errorf("rtree: child %d box exceeds parent on dim %d", cid, d)
			}
		}
		if err := t.validateNode(cid); err != nil {
			return err
		}
	}
	return nil
}
