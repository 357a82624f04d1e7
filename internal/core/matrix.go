package core

import (
	"context"
	"fmt"

	"relperf/internal/compare"
	"relperf/internal/pool"
	"relperf/internal/xrand"
)

// MatrixOptions configures ClusterMatrix.
type MatrixOptions struct {
	// Reps is the number of sort repetitions (default 100), as in
	// ClusterOptions.
	Reps int
	// Trials is the maximum number of comparator evaluations per unordered
	// pair used to estimate the pair's outcome distribution (default 32).
	// More trials sharpen the estimated Better/Equivalent/Worse frequencies
	// at linear cost in the P·(P−1)/2 pre-pass. A pair whose outcomes are
	// unanimous after minSaturationTrials stops early (adaptive trials):
	// its empirical distribution is already a point mass.
	Trials int
	// Workers bounds concurrency for both the pair pre-pass and the sort
	// repetitions; 0 means GOMAXPROCS.
	Workers int
	// Seed keys every stream: pair trials, repetition shuffles and the
	// per-repetition outcome sampling.
	Seed uint64
	// Fork returns an independent comparison function seeded by seed;
	// required. It is invoked once per pair during the pre-pass.
	Fork func(seed uint64) CompareFunc
	// Pool optionally shares a global worker budget; see
	// ClusterOptions.Pool.
	Pool *pool.Pool
	// Ctx cancels the pre-pass and the repetitions; nil means Background.
	Ctx context.Context
}

// DefaultMatrixTrials is the per-pair trial cap applied when
// MatrixOptions.Trials is unset. The config-fingerprinting layer
// normalizes with the same constant so "unset" and "explicit default"
// configs share one cache identity — change it here, never by
// re-hardcoding 32 elsewhere.
const DefaultMatrixTrials = 32

// minSaturationTrials is the adaptive pre-pass floor: a pair's trial loop
// may stop early only after this many trials, and only when every trial so
// far returned the same outcome. Truly degenerate pairs (the clearly-ordered
// majority in a typical placement set) pay 8 trials instead of the full
// budget with no change to their estimate. The saving is not free for
// near-degenerate pairs: one whose true majority-outcome rate is p < 1
// produces a unanimous 8-prefix with probability p^8 (≈10% at p = 0.75)
// and then freezes at a point mass, losing its minority mass for every
// repetition — acceptable for the clustering's fractional-score semantics,
// where such pairs carry little of the score mass, but a bias to know
// about. The rule depends only on the pair's own keyed outcome stream, so
// determinism at any worker count is preserved.
const minSaturationTrials = 8

// pairDist is the estimated categorical outcome distribution of one ordered
// pair (i, j) with i < j; the Worse probability is the remainder.
type pairDist struct {
	better, equivalent float64
}

// ClusterMatrix is the precomputed-pairwise-statistics variant of Cluster:
// instead of invoking the (expensive, bootstrap-backed) comparator on every
// comparison of every repetition, it evaluates each of the P·(P−1)/2 pairs
// Trials times up front — in parallel, each pair on its own keyed comparator
// stream — and records the empirical frequency of Better / Equivalent /
// Worse. The sort repetitions then sample per-comparison outcomes from the
// cached distribution, which preserves the paper's fractional-score
// semantics (a pair that is "equivalent once in every three comparisons"
// keeps flipping at the cached rate) while making each repetition nearly
// free. Equal seeds produce bit-identical results at any worker count.
//
// Two approximations relative to Cluster: outcome draws within a
// repetition are independent across comparisons of the same pair, whereas
// a live bootstrap comparator re-resamples the same measurements (with the
// full 32-trial budget the estimated rates are within a few percent of the
// live frequencies); and the adaptive pre-pass may stop a pair early on a
// unanimous prefix, which can round a strong-but-not-certain majority up
// to a point mass — see minSaturationTrials for the probability bound.
func ClusterMatrix(p int, opts MatrixOptions) (*ClusterResult, error) {
	if p <= 0 {
		return nil, ErrNoAlgorithms
	}
	if opts.Fork == nil {
		return nil, fmt.Errorf("core: ClusterMatrix requires Fork")
	}
	trials := opts.Trials
	if trials <= 0 {
		trials = DefaultMatrixTrials
	}
	dists, err := pairOutcomeDists(p, trials, opts)
	if err != nil {
		return nil, err
	}

	// Each repetition samples outcomes from the cached distributions with
	// its own keyed stream, reusing Cluster's deterministic parallel
	// engine. One uniform draw decides one comparison.
	clusterSeed := xrand.Mix(opts.Seed, 2)
	fork := func(seed uint64) CompareFunc {
		rng := xrand.New(seed)
		return func(i, j int) (compare.Outcome, error) {
			flip := i > j
			if flip {
				i, j = j, i
			}
			d := dists[pairIndex(p, i, j)]
			u := rng.Float64()
			o := compare.Worse
			switch {
			case u < d.better:
				o = compare.Better
			case u < d.better+d.equivalent:
				o = compare.Equivalent
			}
			if flip {
				o = o.Flip()
			}
			return o, nil
		}
	}
	return Cluster(p, ClusterOptions{
		Reps:    opts.Reps,
		Seed:    clusterSeed,
		Workers: opts.Workers,
		Fork:    fork,
		Pool:    opts.Pool,
		Ctx:     opts.Ctx,
	})
}

// pairIndex maps an ordered pair (i, j) with i < j to its position in the
// packed upper-triangular pair list.
func pairIndex(p, i, j int) int {
	return i*(2*p-i-1)/2 + (j - i - 1)
}

// pairOutcomeDists runs the pre-pass: every unordered pair is compared
// Trials times on a comparator forked with the pair's keyed seed, and the
// outcome frequencies are recorded. Pairs are distributed over a worker
// pool; the result is indexed by pairIndex, so aggregation order is
// irrelevant.
func pairOutcomeDists(p, trials int, opts MatrixOptions) ([]pairDist, error) {
	nPairs := p * (p - 1) / 2
	dists := make([]pairDist, nPairs)
	pairSeed := xrand.Mix(opts.Seed, 1)
	err := pool.Dispatch(opts.Ctx, opts.Pool, nPairs, opts.Workers, func(k int) error {
		i, j := pairFromIndex(p, k)
		cmp := opts.Fork(xrand.Mix(pairSeed, uint64(k)))
		var better, equiv, executed int
		for t := 0; t < trials; t++ {
			o, err := cmp(i, j)
			if err != nil {
				return fmt.Errorf("core: pair (%d,%d) trial %d: %w", i, j, t, err)
			}
			switch o {
			case compare.Better:
				better++
			case compare.Equivalent:
				equiv++
			}
			executed++
			// Adaptive early exit on a unanimous prefix past the floor; see
			// minSaturationTrials for the accuracy trade-off this accepts.
			if executed >= minSaturationTrials &&
				(better == executed || equiv == executed || better+equiv == 0) {
				break
			}
		}
		dists[k] = pairDist{
			better:     float64(better) / float64(executed),
			equivalent: float64(equiv) / float64(executed),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return dists, nil
}

// pairFromIndex inverts pairIndex.
func pairFromIndex(p, k int) (int, int) {
	for i := 0; i < p-1; i++ {
		row := p - 1 - i
		if k < row {
			return i, i + 1 + k
		}
		k -= row
	}
	panic("core: pair index out of range")
}
