package mlkit

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
)

// FlatForest is a trained forest compiled into contiguous
// structure-of-arrays storage: one int32 feature index, one int32 child
// index and one float64 threshold per node — 16 bytes — with every
// tree laid out breadth-first back-to-back. Traversal touches three
// dense arrays instead of chasing heap-scattered *Node structs, which
// is what makes the per-impression estimate path cache-resident.
//
// Node encoding:
//
//   - Feats[i] >= 0: internal node splitting on x[Feats[i]] <= Thrs[i];
//     the left child is Kids[i], the right child Kids[i]+1 (breadth-first
//     layout makes siblings adjacent).
//   - Feats[i] < 0: leaf; Kids[i] holds the precomputed argmax class of
//     the training counts (ties to the lower class index, exactly like
//     Tree.Predict).
//
// A nil child in a hand-built pointer tree compiles to a synthetic
// class-0 leaf, matching the pointer walk's nil → zero-counts → class-0
// fallback, so predictions are bit-identical by construction.
//
// A FlatForest is immutable after Compile/decode and safe for
// concurrent use.
type FlatForest struct {
	Classes int
	Roots   []int32 // per-tree root node index
	Feats   []int32 // split feature, or <0 for a leaf
	Kids    []int32 // left-child index (internal) or class (leaf)
	Thrs    []float64
}

// NumTrees returns the ensemble size.
func (ff *FlatForest) NumTrees() int { return len(ff.Roots) }

// NodeCount returns the total node count across all trees (synthetic
// leaves included).
func (ff *FlatForest) NodeCount() int { return len(ff.Feats) }

// walk descends from node i to a leaf and returns its class. NaN
// feature values fail the <= comparison and branch right, exactly like
// the pointer walk.
func (ff *FlatForest) walk(i int32, x []float64) int32 {
	feats, kids, thrs := ff.Feats, ff.Kids, ff.Thrs
	for {
		ft := feats[i]
		if ft < 0 {
			return kids[i]
		}
		if x[ft] <= thrs[i] {
			i = kids[i]
		} else {
			i = kids[i] + 1
		}
	}
}

// walk4 walks four rows down the tree at root in lockstep and returns
// their classes. The four descents are independent chains of dependent
// loads; interleaving them lets the CPU overlap their cache misses
// (Asadi, Lin & de Vries, "Runtime Optimizations for Tree-Based Machine
// Learning Models", IEEE TKDE 2014). A step sends a lane to kids[i] + 1
// unless x[f] <= thrs[i], so NaN branches right as in walk. The lockstep
// ends as soon as any lane stands on a leaf, and each lane then finishes
// on walk from the node it reached: every row takes exactly the path
// walk alone would take.
func (ff *FlatForest) walk4(root int32, x0, x1, x2, x3 []float64) (int32, int32, int32, int32) {
	feats, kids, thrs := ff.Feats, ff.Kids, ff.Thrs
	i0, i1, i2, i3 := root, root, root, root
	for {
		f0, f1, f2, f3 := feats[i0], feats[i1], feats[i2], feats[i3]
		if f0|f1|f2|f3 < 0 { // a leaf has a negative feature
			break
		}
		i0 = kids[i0] + b2i(!(x0[f0] <= thrs[i0]))
		i1 = kids[i1] + b2i(!(x1[f1] <= thrs[i1]))
		i2 = kids[i2] + b2i(!(x2[f2] <= thrs[i2]))
		i3 = kids[i3] + b2i(!(x3[f3] <= thrs[i3]))
	}
	return ff.walk(i0, x0), ff.walk(i1, x1), ff.walk(i2, x2), ff.walk(i3, x3)
}

func b2i(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

// walkRows writes tree root's class for every row of X into
// dst[:len(X)]: four rows at a time through walk4, the len(X) mod 4
// rows left over through walk.
func (ff *FlatForest) walkRows(dst []int32, root int32, X [][]float64) {
	n := len(X)
	dst = dst[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		dst[i], dst[i+1], dst[i+2], dst[i+3] = ff.walk4(root, X[i], X[i+1], X[i+2], X[i+3])
	}
	for ; i < n; i++ {
		dst[i] = ff.walk(root, X[i])
	}
}

// Predict returns the majority-vote class for x (ties to the lower
// class index). Allocation-free for the class counts real price models
// use.
func (ff *FlatForest) Predict(x []float64) int {
	var buf [16]int32
	var votes []int32
	if ff.Classes <= len(buf) {
		votes = buf[:ff.Classes]
	} else {
		votes = make([]int32, ff.Classes)
	}
	for _, root := range ff.Roots {
		votes[ff.walk(root, x)]++
	}
	best, bestN := 0, int32(-1)
	for c, v := range votes {
		if v > bestN {
			best, bestN = c, v
		}
	}
	return best
}

// votesPool recycles the batch vote accumulator so warm PredictInto
// calls allocate nothing regardless of batch size.
var votesPool = sync.Pool{New: func() any { return new([]int32) }}

// PredictInto classifies every row of X into dst[:len(X)]. Traversal is
// tree-major: each tree walks the whole vector set before the next tree
// starts, so one tree's nodes stay cache-hot across the entire batch
// instead of the whole forest being re-fetched per vector. Rows go down
// each tree four at a time (walk4), the len(X) mod 4 left over one at a
// time (walk). dst must have length >= len(X). Zero allocations on the
// warm path.
func (ff *FlatForest) PredictInto(dst []int, X [][]float64) {
	n := len(X)
	if n == 0 {
		return
	}
	classes := ff.Classes
	need := n * classes
	vp := votesPool.Get().(*[]int32)
	votes := *vp
	if cap(votes) < need {
		votes = make([]int32, need)
	} else {
		votes = votes[:need]
		clear(votes)
	}
	for _, root := range ff.Roots {
		// walkRows's loop, voting straight from walk4's classes rather
		// than through a class row.
		vi := 0
		for ; vi+4 <= n; vi += 4 {
			c0, c1, c2, c3 := ff.walk4(root, X[vi], X[vi+1], X[vi+2], X[vi+3])
			row := votes[vi*classes : (vi+4)*classes]
			row[c0]++
			row[classes+int(c1)]++
			row[2*classes+int(c2)]++
			row[3*classes+int(c3)]++
		}
		for ; vi < n; vi++ {
			votes[vi*classes+int(ff.walk(root, X[vi]))]++
		}
	}
	for vi := 0; vi < n; vi++ {
		row := votes[vi*classes : (vi+1)*classes]
		best, bestN := 0, int32(-1)
		for c, v := range row {
			if v > bestN {
				best, bestN = c, v
			}
		}
		dst[vi] = best
	}
	*vp = votes
	votesPool.Put(vp)
}

// PredictProbaInto writes the vote-share class distribution for x into
// dst[:Classes] without allocating: each tree's vote count divided by
// the tree count.
func (ff *FlatForest) PredictProbaInto(dst []float64, x []float64) {
	dst = dst[:ff.Classes]
	for c := range dst {
		dst[c] = 0
	}
	if len(ff.Roots) == 0 {
		return
	}
	for _, root := range ff.Roots {
		dst[ff.walk(root, x)]++
	}
	for c := range dst {
		dst[c] /= float64(len(ff.Roots))
	}
}

// leafClass precomputes the argmax the pointer walk would compute at a
// leaf: highest count, ties to the lower class index; a nil node or
// nil counts yield class 0 (the zero-counts fallback of PredictCounts).
func leafClass(n *Node) int32 {
	if n == nil {
		return 0
	}
	best, bestN := 0, -1
	for c, v := range n.Counts {
		if v > bestN {
			best, bestN = c, v
		}
	}
	return int32(best)
}

// appendTree lays out one pointer tree breadth-first at the end of ff's
// arrays and returns its root index. Siblings are enqueued together, so
// a node's right child is always left+1.
func appendTree(ff *FlatForest, root *Node) int32 {
	base := int32(len(ff.Feats))
	nodes := []*Node{root}
	ff.Feats = append(ff.Feats, 0)
	ff.Kids = append(ff.Kids, 0)
	ff.Thrs = append(ff.Thrs, 0)
	for qi := 0; qi < len(nodes); qi++ {
		n := nodes[qi]
		i := base + int32(qi)
		if n == nil || n.Leaf {
			ff.Feats[i] = -1
			ff.Kids[i] = leafClass(n)
			continue
		}
		left := int32(len(ff.Feats))
		ff.Feats = append(ff.Feats, 0, 0)
		ff.Kids = append(ff.Kids, 0, 0)
		ff.Thrs = append(ff.Thrs, 0, 0)
		nodes = append(nodes, n.Left, n.Right)
		ff.Feats[i] = int32(n.Feature)
		ff.Kids[i] = left
		ff.Thrs[i] = n.Threshold
	}
	return base
}

// Compile flattens the forest into its SoA form. Most callers want
// Flat, which compiles once and caches.
func (f *Forest) Compile() *FlatForest {
	ff := &FlatForest{Classes: f.Classes, Roots: make([]int32, 0, len(f.Trees))}
	for _, t := range f.Trees {
		ff.Roots = append(ff.Roots, appendTree(ff, t.Root))
	}
	return ff
}

// flatOnce caches a compiled FlatForest on the trained structure it was
// compiled from. The cache lives on *Forest/*Tree — never on a model
// wrapper — so replacing a model's forest (the retrain loop clones a
// model and swaps in freshly trained components) can never serve a
// stale flat form: a new forest always compiles its own.
type flatOnce struct {
	once sync.Once
	ff   *FlatForest
}

// Flat returns the forest's compiled SoA form, compiling on first use
// and caching thereafter. Safe for concurrent use; the warm path is one
// atomic load.
func (f *Forest) Flat() *FlatForest {
	f.flat.once.Do(func() { f.flat.ff = f.Compile() })
	return f.flat.ff
}

// Flat returns the tree compiled as a single-member FlatForest (one
// root; Predict reduces to that tree's class), compiled once and
// cached — the form constrained clients run when the forest is too
// heavy.
func (t *Tree) Flat() *FlatForest {
	t.flat.once.Do(func() {
		ff := &FlatForest{Classes: t.Classes}
		ff.Roots = append(ff.Roots, appendTree(ff, t.Root))
		t.flat.ff = ff
	})
	return t.flat.ff
}

// --- binary codec ---
//
// The flat form doubles as the model's wire encoding (the forest and
// tree sections of core's compact blob), at 16 bytes per node. Layout
// (little-endian):
//
//	uint32 classes | uint32 nTrees | uint32 nNodes
//	int32 roots[nTrees]
//	int32 feats[nNodes] | int32 kids[nNodes] | float64 thrs[nNodes]

// ErrBadFlatForest reports a structurally invalid flat-forest encoding.
var ErrBadFlatForest = errors.New("mlkit: invalid flat forest encoding")

// BinarySize returns the exact encoded size in bytes.
func (ff *FlatForest) BinarySize() int {
	return 12 + 4*len(ff.Roots) + 16*len(ff.Feats)
}

// AppendBinary appends the canonical binary encoding to b.
func (ff *FlatForest) AppendBinary(b []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(ff.Classes))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(ff.Roots)))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(ff.Feats)))
	for _, r := range ff.Roots {
		b = binary.LittleEndian.AppendUint32(b, uint32(r))
	}
	for _, f := range ff.Feats {
		b = binary.LittleEndian.AppendUint32(b, uint32(f))
	}
	for _, k := range ff.Kids {
		b = binary.LittleEndian.AppendUint32(b, uint32(k))
	}
	for _, t := range ff.Thrs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(t))
	}
	return b
}

// DecodeFlatForest decodes a FlatForest from the front of b, returning
// it and the number of bytes consumed. Structure is validated so a
// corrupt or adversarial blob cannot produce a non-terminating or
// out-of-bounds walk: every internal node's children must point
// strictly forward and in range (breadth-first layout guarantees this
// for honest encoders), and every leaf class must be within Classes.
// Feature indices are validated against the caller's feature space, not
// here (the forest does not know its dimensionality).
func DecodeFlatForest(b []byte) (*FlatForest, int, error) {
	if len(b) < 12 {
		return nil, 0, fmt.Errorf("%w: truncated header", ErrBadFlatForest)
	}
	classes := int(int32(binary.LittleEndian.Uint32(b[0:4])))
	nTrees := int(int32(binary.LittleEndian.Uint32(b[4:8])))
	nNodes := int(int32(binary.LittleEndian.Uint32(b[8:12])))
	if classes < 1 || classes > 1<<16 || nTrees < 0 || nNodes < 0 || nTrees > nNodes {
		return nil, 0, fmt.Errorf("%w: bad dimensions (classes=%d trees=%d nodes=%d)",
			ErrBadFlatForest, classes, nTrees, nNodes)
	}
	size := 12 + 4*nTrees + 16*nNodes
	if size < 0 || len(b) < size {
		return nil, 0, fmt.Errorf("%w: truncated body", ErrBadFlatForest)
	}
	ff := &FlatForest{
		Classes: classes,
		Roots:   make([]int32, nTrees),
		Feats:   make([]int32, nNodes),
		Kids:    make([]int32, nNodes),
		Thrs:    make([]float64, nNodes),
	}
	off := 12
	for i := range ff.Roots {
		ff.Roots[i] = int32(binary.LittleEndian.Uint32(b[off:]))
		off += 4
	}
	for i := range ff.Feats {
		ff.Feats[i] = int32(binary.LittleEndian.Uint32(b[off:]))
		off += 4
	}
	for i := range ff.Kids {
		ff.Kids[i] = int32(binary.LittleEndian.Uint32(b[off:]))
		off += 4
	}
	for i := range ff.Thrs {
		ff.Thrs[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[off:]))
		off += 8
	}
	for _, r := range ff.Roots {
		if r < 0 || int(r) >= nNodes {
			return nil, 0, fmt.Errorf("%w: root %d out of range", ErrBadFlatForest, r)
		}
	}
	for i, ft := range ff.Feats {
		k := ff.Kids[i]
		if ft < 0 {
			if k < 0 || int(k) >= classes {
				return nil, 0, fmt.Errorf("%w: leaf %d has class %d of %d", ErrBadFlatForest, i, k, classes)
			}
			continue
		}
		// Children must point strictly forward (termination) and both
		// siblings must exist (bounds).
		if int(k) <= i || int(k)+1 >= nNodes {
			return nil, 0, fmt.Errorf("%w: node %d has children at %d", ErrBadFlatForest, i, k)
		}
	}
	return ff, size, nil
}
