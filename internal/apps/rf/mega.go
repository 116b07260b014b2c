package rf

import (
	"math"
	"sort"

	"megammap/internal/core"
	"megammap/internal/datagen"
	"megammap/internal/mpi"
	"megammap/internal/vtime"
)

// Mega runs the MegaMmap variant on one rank. Every rank draws its bag
// through seeded random transactions over the shared dataset and label
// vectors, computes local split histograms, and allreduces them; all
// ranks therefore grow the identical tree.
func Mega(r *mpi.Rank, d *core.DSM, cfg Config) (Result, error) {
	cfg = cfg.Defaults()
	cl := d.NewClient(r.Proc(), r.Node().ID)
	pts, err := core.Open[datagen.Particle](cl, cfg.DatasetURL, datagen.ParticleCodec{})
	if err != nil {
		return Result{}, err
	}
	labels, err := core.Open[int32](cl, cfg.LabelURL, core.Int32Codec{})
	if err != nil {
		return Result{}, err
	}
	pts.BoundMemory(cfg.BoundBytes)
	labels.BoundMemory(cfg.BoundBytes / 6)
	n := pts.Len()

	// Global feature ranges from each rank's partition.
	pts.Pgas(r.Rank(), r.Size())
	lo, hi := localRanges(r, pts, cfg)
	var ranges [2][NumFeatures]float64
	lows := r.AllreduceFloat64s(lo[:], math.Min)
	highs := r.AllreduceFloat64s(hi[:], math.Max)
	copy(ranges[0][:], lows)
	copy(ranges[1][:], highs)

	// Out-of-order bagging: bagSize seeded random draws per rank per
	// tree. The permutation seed is shared with the prefetcher via RandTx.
	bagSize := int(n) / (cfg.OOB * r.Size())
	if bagSize < 2 {
		bagSize = 2
	}
	var trees []*Tree
	var testPts []datagen.Particle
	var testLabels []int32
	bagTotal := 0
	for tr := 0; tr < cfg.NumTrees; tr++ {
		seed := cfg.Seed + uint64(r.Rank())*7919 + uint64(tr)*104729
		treeCfg := cfg
		treeCfg.Seed = cfg.Seed + uint64(tr)*31 // shared split-feature seed
		if tr > 0 {
			treeCfg.TestFraction = 0 // the held-out set comes from tree 0
		}
		train, tp, tl := drawBag(r, pts, labels, pts.LocalOff(), pts.LocalLen(), bagSize, seed, treeCfg)
		if tr == 0 {
			testPts, testLabels = tp, tl
		}
		bagTotal += len(train)
		tree := growTree(treeCfg, ranges, func(t *Tree, frontier, feats []int) ([]float64, []float64) {
			return megaHist(r, treeCfg, train, t, frontier, feats, ranges)
		})
		trees = append(trees, tree)
	}

	// Held-out accuracy of the forest vote, reduced across ranks.
	hit, tot := 0.0, float64(len(testPts))
	for i, pt := range testPts {
		if forestPredict(trees, cfg.Classes, pt) == testLabels[i] {
			hit++
		}
	}
	r.Compute(vtime.Duration(int64(cfg.CostPerSample) * int64(len(testPts)) * int64(cfg.NumTrees)))
	sums := r.SumFloat64s([]float64{hit, tot})
	r.Barrier()
	acc := math.NaN()
	if sums[1] > 0 {
		acc = sums[0] / sums[1]
	}
	return Result{Tree: trees[0], Trees: trees, Accuracy: acc, BagSize: bagTotal}, nil
}

// localRanges scans the rank's partition for per-feature min/max.
func localRanges(r *mpi.Rank, pts *core.Vector[datagen.Particle], cfg Config) (lo, hi [NumFeatures]float64) {
	for f := range lo {
		lo[f], hi[f] = math.MaxFloat64, -math.MaxFloat64
	}
	off, ln := pts.LocalOff(), pts.LocalLen()
	buf := make([]datagen.Particle, 1024)
	pts.SeqTxBegin(off, ln, core.ReadOnly)
	for sc := pts.Scan(off, ln, buf); sc.Next(); {
		for _, pt := range sc.Chunk() {
			for f := 0; f < NumFeatures; f++ {
				v := feature(pt, f)
				if v < lo[f] {
					lo[f] = v
				}
				if v > hi[f] {
					hi[f] = v
				}
			}
		}
		r.Compute(vtime.Duration(int64(cfg.CostPerSample) * int64(len(sc.Chunk())) / 4))
	}
	pts.TxEnd()
	return lo, hi
}

// drawBag reads bagSize seeded-random samples from the rank's partition,
// splitting off the test set. Sampling within the partition mirrors the
// per-partition bagging of the Spark baseline (partitions are themselves
// random subsets, so the bag's statistics are unchanged) and keeps the
// random faults rank-local. The draws are fetched in sorted index order —
// the standard out-of-core bagging technique — so each page is read at
// most once, sequentially, and the prefetcher can run ahead of the scan.
func drawBag(r *mpi.Rank, pts *core.Vector[datagen.Particle], labels *core.Vector[int32],
	off, n int64, bagSize int, seed uint64, cfg Config) ([]sample, []datagen.Particle, []int32) {
	// Enumerate the seeded permutation without touching data; ord keeps
	// the draw order so the test/train split is independent of the sort.
	perm := core.RandTx{Off: off, N: n, Seed: seed}
	type draw struct {
		idx int64
		ord int
	}
	draws := make([]draw, bagSize)
	for i := range draws {
		draws[i] = draw{idx: perm.ElemAt(int64(i)), ord: i}
	}
	if !cfg.UnsortedBag {
		sort.Slice(draws, func(a, b int) bool { return draws[a].idx < draws[b].idx })
	}

	var train []sample
	var testPts []datagen.Particle
	var testLabels []int32
	pts.SeqTxBegin(off, n, core.ReadOnly)
	labels.SeqTxBegin(off, n, core.ReadOnly)
	for k, d := range draws {
		pt := pts.Get(d.idx)
		lb := labels.Get(d.idx)
		if cfg.TestFraction > 0 && d.ord%cfg.TestFraction == 0 {
			testPts = append(testPts, pt)
			testLabels = append(testLabels, lb)
		} else {
			train = append(train, sample{pt: pt, label: lb})
		}
		// Charge compute inside the loop so asynchronous fills overlap it.
		if k%64 == 63 {
			r.Compute(vtime.Duration(int64(cfg.CostPerSample) * 64))
		}
	}
	labels.TxEnd()
	pts.TxEnd()
	return train, testPts, testLabels
}

// megaHist computes this rank's histogram contribution for the frontier
// and allreduces it.
func megaHist(r *mpi.Rank, cfg Config, train []sample, tree *Tree,
	frontier []int, feats []int, ranges [2][NumFeatures]float64) ([]float64, []float64) {
	blk := histSize(cfg.Classes, cfg.Bins, len(feats))
	hists := make([]float64, blk*len(frontier))
	totals := make([]float64, cfg.Classes*len(frontier))
	fmap := make(map[int]int, len(frontier))
	for i, id := range frontier {
		fmap[id] = i
	}
	for si := range train {
		s := &train[si]
		pos := route(tree, s, fmap)
		if pos < 0 {
			continue
		}
		totals[pos*cfg.Classes+int(s.label)]++
		for fi, feat := range feats {
			b := binOf(feature(s.pt, feat), ranges[0][feat], ranges[1][feat], cfg.Bins)
			hists[pos*blk+(fi*cfg.Bins+b)*cfg.Classes+int(s.label)]++
		}
	}
	r.Compute(vtime.Duration(int64(cfg.CostPerSample) * int64(len(train))))
	all := r.SumFloat64s(append(hists, totals...))
	return all[:len(hists)], all[len(hists):]
}
