// Package rf implements the paper's Random Forest workload: out-of-order
// bagging over a particle dataset with a labeled target, level-wise
// decision-tree induction from distributed Gini-impurity histograms, and
// a held-out accuracy evaluation. The MegaMmap variant draws each rank's
// bag through a seeded random transaction (RandTx) — the access pattern
// whose seed the prefetcher exploits — while the Spark-model variant
// computes the same histograms with per-partition aggregations.
package rf

import (
	"fmt"
	"math"
	"math/rand"

	"megammap/internal/datagen"
	"megammap/internal/vtime"
)

// NumFeatures is the feature dimensionality (position + velocity).
const NumFeatures = 6

// feature extracts feature f of a particle.
func feature(pt datagen.Particle, f int) float64 {
	switch f {
	case 0:
		return float64(pt.X)
	case 1:
		return float64(pt.Y)
	case 2:
		return float64(pt.Z)
	case 3:
		return float64(pt.VX)
	case 4:
		return float64(pt.VY)
	default:
		return float64(pt.VZ)
	}
}

// Config parameterizes a run.
type Config struct {
	DatasetURL string // particle features
	LabelURL   string // int32 class labels, same length
	Classes    int
	MaxDepth   int
	// OOB is the out-of-order bagging divisor: each rank samples
	// N/(OOB*p) points with replacement.
	OOB  int
	Seed uint64
	// NumTrees is the forest size; prediction is a majority vote. The
	// paper's evaluation uses one tree.
	NumTrees int
	// Bins is the number of candidate split thresholds per feature.
	Bins int
	// FeaturesPerSplit is the random feature-subset size per node.
	FeaturesPerSplit int
	// BoundBytes caps the dataset vector's pcache (MegaMmap variant).
	BoundBytes int64
	// CostPerSample is the modeled compute per sample per histogram pass.
	CostPerSample vtime.Duration
	// TestFraction holds out every 1/TestFraction-th sample.
	TestFraction int
	// UnsortedBag fetches bag samples in raw permutation order instead of
	// sorted index order (ablation of the out-of-core bagging scan; see
	// DESIGN.md — raw order pays one page fetch per sample).
	UnsortedBag bool
}

// Defaults fills unset fields with the paper's parameters (max_depth=10,
// one tree).
func (c Config) Defaults() Config {
	if c.MaxDepth == 0 {
		c.MaxDepth = 10
	}
	if c.OOB == 0 {
		c.OOB = 4
	}
	if c.Bins == 0 {
		c.Bins = 8
	}
	if c.FeaturesPerSplit == 0 {
		c.FeaturesPerSplit = 3
	}
	if c.CostPerSample == 0 {
		c.CostPerSample = 20 * vtime.Nanosecond
	}
	if c.TestFraction == 0 {
		c.TestFraction = 5
	}
	if c.Classes == 0 {
		c.Classes = 8
	}
	if c.NumTrees == 0 {
		c.NumTrees = 1
	}
	return c
}

// Result reports a trained forest and its held-out accuracy.
type Result struct {
	// Tree is the first tree (the paper's single-tree configuration).
	Tree *Tree
	// Trees is the whole forest.
	Trees    []*Tree
	Accuracy float64
	BagSize  int
}

// Forest votes are majority class over the trees.
func forestPredict(trees []*Tree, classes int, pt datagen.Particle) int32 {
	if len(trees) == 1 {
		return trees[0].Predict(pt)
	}
	votes := make([]int, classes)
	for _, tr := range trees {
		if c := tr.Predict(pt); int(c) < classes {
			votes[c]++
		}
	}
	best, bestN := 0, -1
	for c, n := range votes {
		if n > bestN {
			best, bestN = c, n
		}
	}
	return int32(best)
}

// Tree is a binary decision tree in array form.
type Tree struct {
	Nodes []Node
}

// String prints the tree as its nodes, so that a Result prints the same
// in every run (a *Tree field would otherwise print as its address).
func (t *Tree) String() string { return fmt.Sprint(t.Nodes) }

// Node is one tree node; leaves carry Label, internal nodes split on
// Feature < Thresh (left) vs >= (right).
type Node struct {
	Feature     int
	Thresh      float64
	Left, Right int // child indices; -1 for leaves
	Label       int32
	Leaf        bool
}

// Predict classifies one sample.
func (t *Tree) Predict(pt datagen.Particle) int32 {
	i := 0
	for {
		n := t.Nodes[i]
		if n.Leaf {
			return n.Label
		}
		if feature(pt, n.Feature) < n.Thresh {
			i = n.Left
		} else {
			i = n.Right
		}
	}
}

// sample is one bagged training point.
type sample struct {
	pt    datagen.Particle
	label int32
	node  int // current tree node during level-wise induction
}

// histKey dimensions the split-search histogram: classes x bins x 2
// (left/right of threshold is derived from cumulative bins).
func histSize(classes, bins, feats int) int { return classes * bins * feats }

// binOf maps a feature value to a bin given global [min,max].
func binOf(v, lo, hi float64, bins int) int {
	if hi <= lo {
		return 0
	}
	b := int((v - lo) / (hi - lo) * float64(bins))
	if b < 0 {
		b = 0
	}
	if b >= bins {
		b = bins - 1
	}
	return b
}

// bestSplit scans a node's histogram (features x bins x classes) and
// returns the (featureIdx, bin, gain) of the best Gini split, or gain<=0
// when no split helps.
func bestSplit(hist []float64, classes, bins, feats int, total []float64) (int, int, float64) {
	parent := gini(total)
	n := sum(total)
	bestF, bestB, bestGain := -1, -1, 0.0
	for f := 0; f < feats; f++ {
		left := make([]float64, classes)
		for b := 0; b < bins-1; b++ {
			for cl := 0; cl < classes; cl++ {
				left[cl] += hist[(f*bins+b)*classes+cl]
			}
			nl := sum(left)
			nr := n - nl
			if nl == 0 || nr == 0 {
				continue
			}
			right := make([]float64, classes)
			for cl := 0; cl < classes; cl++ {
				right[cl] = total[cl] - left[cl]
			}
			gain := parent - (nl/n)*gini(left) - (nr/n)*gini(right)
			if gain > bestGain {
				bestF, bestB, bestGain = f, b, gain
			}
		}
	}
	return bestF, bestB, bestGain
}

func gini(counts []float64) float64 {
	n := sum(counts)
	if n == 0 {
		return 0
	}
	g := 1.0
	for _, c := range counts {
		p := c / n
		g -= p * p
	}
	return g
}

func sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

func majority(counts []float64) int32 {
	best, bestN := 0, -1.0
	for c, n := range counts {
		if n > bestN {
			best, bestN = c, n
		}
	}
	return int32(best)
}

// featureSubset picks FeaturesPerSplit distinct features from a seeded
// generator shared by all ranks (same subset everywhere).
func featureSubset(rng *rand.Rand, k int) []int {
	perm := rng.Perm(NumFeatures)
	return perm[:k]
}

// minEntropyGain is the stopping threshold on Gini gain.
const minEntropyGain = 1e-4

// growTree runs level-wise induction. histFn computes, for the current
// frontier of the in-progress tree, the concatenated histograms (one
// block per frontier node: feats x bins x classes) plus per-node class
// totals; it is where the two variants differ (DSM scan + allreduce vs
// RDD aggregation). ranges[f] carries the global [min,max] per feature.
func growTree(cfg Config, ranges [2][NumFeatures]float64,
	histFn func(tree *Tree, frontier []int, feats []int) ([]float64, []float64)) *Tree {
	rng := rand.New(rand.NewSource(int64(cfg.Seed) + 17))
	tree := &Tree{Nodes: []Node{{Left: -1, Right: -1}}}
	frontier := []int{0}
	for depth := 0; depth < cfg.MaxDepth && len(frontier) > 0; depth++ {
		feats := featureSubset(rng, cfg.FeaturesPerSplit)
		hists, totals := histFn(tree, frontier, feats)
		blk := histSize(cfg.Classes, cfg.Bins, len(feats))
		var next []int
		for fi, nodeID := range frontier {
			hist := hists[fi*blk : (fi+1)*blk]
			total := totals[fi*cfg.Classes : (fi+1)*cfg.Classes]
			f, b, gain := bestSplit(hist, cfg.Classes, cfg.Bins, len(feats), total)
			if f < 0 || gain < minEntropyGain || sum(total) < 2 {
				tree.Nodes[nodeID].Leaf = true
				tree.Nodes[nodeID].Label = majority(total)
				continue
			}
			feat := feats[f]
			lo, hi := ranges[0][feat], ranges[1][feat]
			thresh := lo + (hi-lo)*float64(b+1)/float64(cfg.Bins)
			l := len(tree.Nodes)
			tree.Nodes = append(tree.Nodes,
				Node{Left: -1, Right: -1}, Node{Left: -1, Right: -1})
			tree.Nodes[nodeID].Feature = feat
			tree.Nodes[nodeID].Thresh = thresh
			tree.Nodes[nodeID].Left = l
			tree.Nodes[nodeID].Right = l + 1
			next = append(next, l, l+1)
		}
		frontier = next
	}
	// Anything still open at max depth becomes a leaf labeled by its
	// majority class, computed in one final histogram pass.
	if len(frontier) > 0 {
		_, totals := histFn(tree, frontier, []int{0})
		for fi, nodeID := range frontier {
			total := totals[fi*cfg.Classes : (fi+1)*cfg.Classes]
			tree.Nodes[nodeID].Leaf = true
			tree.Nodes[nodeID].Label = majority(total)
		}
	}
	return tree
}

// route advances a sample to its frontier node (or -1 when it fell into a
// leaf already).
func route(tree *Tree, s *sample, frontier map[int]int) int {
	i := 0
	for {
		n := tree.Nodes[i]
		if n.Leaf {
			return -1
		}
		if pos, ok := frontier[i]; ok {
			return pos
		}
		if n.Left < 0 {
			return -1
		}
		if feature(s.pt, n.Feature) < n.Thresh {
			i = n.Left
		} else {
			i = n.Right
		}
	}
}

// accuracyOver evaluates a forest against labeled samples.
func accuracyOver(trees []*Tree, classes int, pts []datagen.Particle, labels []int32) float64 {
	if len(pts) == 0 {
		return math.NaN()
	}
	hit := 0
	for i, pt := range pts {
		if forestPredict(trees, classes, pt) == labels[i] {
			hit++
		}
	}
	return float64(hit) / float64(len(pts))
}
