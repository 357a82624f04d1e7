package core

import (
	"testing"
	"testing/quick"

	"relperf/internal/compare"
	"relperf/internal/xrand"
)

// TestClusterScoresPartitionProperty: for arbitrary stochastic (but valid)
// comparators, each algorithm's scores across ranks sum to exactly 1 — every
// repetition assigns exactly one rank.
func TestClusterScoresPartitionProperty(t *testing.T) {
	rng := xrand.New(101)
	f := func(seed uint32) bool {
		p := rng.Intn(8) + 1
		flip := rng.Float64() * 0.5
		vals := make([]float64, p)
		for i := range vals {
			vals[i] = rng.Uniform(0, 10)
		}
		fork := func(s uint64) CompareFunc {
			inner := xrand.New(s)
			return func(i, j int) (compare.Outcome, error) {
				if inner.Bernoulli(flip) {
					return compare.Equivalent, nil
				}
				switch {
				case vals[i] < vals[j]-1:
					return compare.Better, nil
				case vals[i] > vals[j]+1:
					return compare.Worse, nil
				default:
					return compare.Equivalent, nil
				}
			}
		}
		res, err := Cluster(p, ClusterOptions{Reps: 20, Seed: uint64(seed) + 1, Fork: fork})
		if err != nil {
			return false
		}
		for a := 0; a < p; a++ {
			var sum float64
			for r := 0; r < res.K; r++ {
				sum += res.Scores[a][r]
			}
			if sum < 1-1e-9 || sum > 1+1e-9 {
				return false
			}
		}
		// Every cluster listed is non-empty and in score order.
		for r := 0; r < res.K; r++ {
			for i := 1; i < len(res.Clusters[r]); i++ {
				if res.Clusters[r][i].Score > res.Clusters[r][i-1].Score {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestFinalizeBoundsProperty: final ranks are within 1..K, scores within
// (0, 1], and the classes listing partitions the algorithms.
func TestFinalizeBoundsProperty(t *testing.T) {
	rng := xrand.New(103)
	f := func(seed uint32) bool {
		p := rng.Intn(8) + 1
		vals := make([]float64, p)
		for i := range vals {
			vals[i] = rng.Uniform(0, 5)
		}
		fork := func(s uint64) CompareFunc {
			inner := xrand.New(s)
			return func(i, j int) (compare.Outcome, error) {
				noise := inner.Normal(0, 0.5)
				d := vals[i] - vals[j] + noise
				switch {
				case d < -0.8:
					return compare.Better, nil
				case d > 0.8:
					return compare.Worse, nil
				default:
					return compare.Equivalent, nil
				}
			}
		}
		res, err := Cluster(p, ClusterOptions{Reps: 15, Seed: uint64(seed) * 3, Fork: fork})
		if err != nil {
			return false
		}
		fa, err := res.Finalize()
		if err != nil {
			return false
		}
		seen := 0
		for r, class := range fa.Classes {
			for _, m := range class {
				if fa.Rank[m.Alg] != r+1 {
					return false
				}
				seen++
			}
		}
		if seen != p {
			return false
		}
		for a := 0; a < p; a++ {
			if fa.Rank[a] < 1 || fa.Rank[a] > fa.K {
				return false
			}
			if fa.Score[a] <= 0 || fa.Score[a] > 1+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestSortBestAlgorithmReachesTopProperty: with a strict consistent total
// order the minimum-value algorithm always ends at position 0 with rank 1.
func TestSortBestAlgorithmReachesTopProperty(t *testing.T) {
	rng := xrand.New(107)
	f := func(seed uint32) bool {
		p := rng.Intn(10) + 2
		vals := make([]float64, p)
		for i := range vals {
			vals[i] = rng.Uniform(0, 100)
		}
		best := 0
		for i, v := range vals {
			if v < vals[best] {
				best = i
			}
		}
		init := rng.Perm(p)
		res, err := Sort(p, latentComparator(vals, 0), SortOptions{Initial: init})
		if err != nil {
			return false
		}
		return res.Order[0] == best && res.Ranks[0] == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
