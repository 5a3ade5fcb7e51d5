package ml

import (
	"fmt"
	"io"
	"slices"
)

// DecisionTree is a CART regression tree: binary splits chosen by maximum
// variance reduction (the regression analogue of the information-gain
// criterion the paper cites), grown depth-first until treeMaxDepth or
// treeMinLeaf is reached.
type DecisionTree struct {
	nodes []treeNode // pre-order: the root first, a split's left child next to it
	d     int
}

const (
	treeMaxDepth = 12 // bound on the tree depth
	treeMinLeaf  = 2  // minimum number of samples in a leaf
)

// treeNode is one node of a tree's pre-order arena. It holds no pointer, so
// an arena is 16 bytes a node that the collector never scans (DESIGN.md,
// Performance invariants, 9).
type treeNode struct {
	v       float64 // a split's threshold, a leaf's prediction
	feature int32   // a split's feature; leaf for a leaf
	right   int32   // a split's right child; its left child is the next node
}

// leaf is the feature of a leaf node.
const leaf = -1

// Name implements Regressor.
func (t *DecisionTree) Name() string { return "DT" }

// Fit implements Regressor.
func (t *DecisionTree) Fit(X [][]float64, y []float64) error {
	n, d, err := validate(X, y)
	if err != nil {
		return err
	}
	f := newTreeFit(X, y, d)
	for j := range f.features {
		f.features[j] = j
	}
	nodes := make([]treeNode, maxNodes(n))
	t.nodes, t.d = nodes[:f.grow(nodes)], d
	return nil
}

// treeFit is the working state of one or more fits over n validated rows:
// the training set, the order split search scans the features in, and the
// scratch every node reuses (a node is done with it before its children
// start). A forest refills X, y and features for each tree.
type treeFit struct {
	X           [][]float64
	y           []float64
	features    []int
	idx         []int      // the samples, reordered into the nodes' halves
	sorted      []keyed    // bestSplit's sort buffer
	left, right []int      // build's partition buffers
	nodes       []treeNode // the arena the tree being grown takes nodes from
	used        int        // the nodes taken so far
}

func newTreeFit(X [][]float64, y []float64, d int) *treeFit {
	n := len(X)
	return &treeFit{X: X, y: y, features: make([]int, d), idx: make([]int, n),
		sorted: make([]keyed, n), left: make([]int, n), right: make([]int, n)}
}

// maxNodes bounds the nodes of a tree over n samples: a leaf below a split
// holds at least treeMinLeaf samples, so the tree has at most
// n/treeMinLeaf leaves and one split fewer.
func maxNodes(n int) int { return max(1, 2*(n/treeMinLeaf)-1) }

// grow fits a tree to f's training set into nodes, which holds
// maxNodes(len(f.X)) of them, and returns how many it took.
func (f *treeFit) grow(nodes []treeNode) int {
	for i := range f.idx {
		f.idx[i] = i
	}
	f.nodes, f.used = nodes, 0
	f.build(f.idx, 0)
	return f.used
}

// keyed is a sample index with the value of the feature being scanned.
type keyed struct {
	v float64
	i int
}

// byValue orders keyed samples by feature value; validate has excluded NaN.
func byValue(a, b keyed) int {
	switch {
	case a.v < b.v:
		return -1
	case a.v > b.v:
		return 1
	}
	return 0
}

// sortByValue is slices.SortFunc(s, byValue), tie order included. Up to 12
// elements (pdqsort's maxInsertion) SortFunc runs a strict-< insertion sort,
// which is stable; it is spelled out here, without the comparator call, for
// the few-row nodes a forest over a handful of samples is made of.
func sortByValue(s []keyed) {
	if len(s) > 12 {
		slices.SortFunc(s, byValue)
		return
	}
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].v < s[j-1].v; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// build grows the subtree over the sample indices idx, which it reorders
// into its children's halves, into the arena in pre-order.
func (f *treeFit) build(idx []int, depth int) {
	node := &f.nodes[f.used]
	f.used++
	leafValue := func() {
		sum := 0.0
		for _, i := range idx {
			sum += f.y[i]
		}
		node.feature, node.v = leaf, sum/float64(len(idx))
	}
	if depth >= treeMaxDepth || len(idx) < 2*treeMinLeaf {
		leafValue()
		return
	}
	feature, thresh, ok := f.bestSplit(idx)
	if !ok {
		leafValue()
		return
	}
	// Stable partition through the scratch: each side keeps idx's order, as
	// the sums over a side depend on it.
	left, right := f.left[:0], f.right[:0]
	for _, i := range idx {
		if f.X[i][feature] <= thresh {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < treeMinLeaf || len(right) < treeMinLeaf {
		leafValue()
		return
	}
	nl := copy(idx, left)
	copy(idx[nl:], right)
	node.feature, node.v = int32(feature), thresh
	f.build(idx[:nl], depth+1)
	node.right = int32(f.used)
	f.build(idx[nl:], depth+1)
}

// bestSplit finds the (feature, threshold) pair with the greatest variance
// reduction, scanning candidate thresholds at midpoints between consecutive
// sorted feature values.
func (f *treeFit) bestSplit(idx []int) (feature int, thresh float64, ok bool) {
	n := len(idx)
	total := 0.0
	for _, i := range idx {
		total += f.y[i]
	}
	// SSE reduction = totalSSE - (leftSSE + rightSSE); the sums of squares
	// cancel, leaving the -(sum^2/n) terms. A split must reduce the SSE to
	// be accepted.
	totalTerm := total * total / float64(n)
	bestGain := 1e-12

	sorted := f.sorted[:n]
	for _, j := range f.features {
		for k, i := range idx {
			sorted[k] = keyed{f.X[i][j], i}
		}
		sortByValue(sorted)

		leftSum := 0.0
		for k := 0; k < n-1; k++ {
			leftSum += f.y[sorted[k].i]
			nl := k + 1
			nr := n - nl
			if nl < treeMinLeaf || nr < treeMinLeaf {
				continue
			}
			if sorted[k].v == sorted[k+1].v {
				continue // cannot split between equal values
			}
			rightSum := total - leftSum
			gain := leftSum*leftSum/float64(nl) + rightSum*rightSum/float64(nr) - totalTerm
			if gain > bestGain {
				bestGain = gain
				feature = j
				thresh = (sorted[k].v + sorted[k+1].v) / 2
				ok = true
			}
		}
	}
	return feature, thresh, ok
}

// Predict implements Regressor.
func (t *DecisionTree) Predict(x []float64) float64 {
	if len(t.nodes) == 0 {
		panic("ml: DecisionTree.Predict before Fit")
	}
	if len(x) != t.d {
		panic(fmt.Sprintf("ml: DecisionTree.Predict with %d features, trained on %d", len(x), t.d))
	}
	return predict(t.nodes, x)
}

// predict walks the tree at the start of nodes to x's leaf.
func predict(nodes []treeNode, x []float64) float64 {
	i := 0
	for nodes[i].feature != leaf {
		if n := nodes[i]; x[n.feature] <= n.v {
			i++
		} else {
			i = int(n.right)
		}
	}
	return nodes[i].v
}

// writeTree writes a canonical encoding of the tree at the start of nodes:
// its nodes in pre-order, up to the node that leaves no child unwritten,
// every split's feature index and threshold and every leaf's value in Go's
// shortest round-trip float format (%v), which is exact and byte-stable
// across processes and platforms.
func writeTree(w io.Writer, nodes []treeNode) {
	for i, open := 0, 1; open > 0; i++ {
		if n := nodes[i]; n.feature == leaf {
			fmt.Fprintf(w, "leaf|%v\n", n.v)
			open--
		} else {
			fmt.Fprintf(w, "split|%d|%v\n", n.feature, n.v)
			open++
		}
	}
}
