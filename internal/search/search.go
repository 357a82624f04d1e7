// Package search implements measurement-efficient algorithm selection for
// the paper's concluding scenario: "in case of exponential explosion of the
// search space, our methodology can still be applied on a subset of possible
// solutions and the resulting clusters ... can be used ... to guide the
// search of algorithm". Instead of measuring every placement N times and
// clustering once, a Racer interleaves measurement and comparison: it
// measures candidates in small rounds and eliminates any candidate that the
// three-way comparator declares Worse than some surviving rival, so the
// measurement budget concentrates on the contenders. An optional predicted
// ranking (from package predict) orders the initial subset.
package search

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"relperf/internal/compare"
	"relperf/internal/pool"
	"relperf/internal/stats"
	"relperf/internal/xrand"
)

// Arm is one candidate algorithm the racer can measure.
type Arm struct {
	// Name identifies the candidate.
	Name string
	// Measure returns one fresh execution-time measurement.
	Measure func() (float64, error)
	// Prior orders the initial candidate set (lower = expected faster);
	// zero priors mean no prior knowledge.
	Prior float64
}

// Config controls a race.
type Config struct {
	// RoundSize is the number of new measurements per surviving arm per
	// round (default 10).
	RoundSize int
	// MaxRounds bounds the race length (default 10).
	MaxRounds int
	// Budget caps the total number of measurements across all arms;
	// 0 means unlimited (bounded only by MaxRounds).
	Budget int
	// Keep stops the race early once at most Keep arms survive
	// (default 1).
	Keep int
	// MaxArms measures only the MaxArms best-prior candidates (the
	// paper's "subset of possible solutions"); 0 means all.
	MaxArms int
	// Seed keys the per-pair comparator streams of the comparison stage;
	// equal seeds give bit-identical Results at any worker count.
	Seed uint64
	// Workers bounds the comparison fan-out when no shared budget is
	// supplied; 0 means GOMAXPROCS. The results do not depend on
	// this value.
	Workers int
}

func (c *Config) defaults() {
	if c.RoundSize <= 0 {
		c.RoundSize = 10
	}
	if c.MaxRounds <= 0 {
		c.MaxRounds = 10
	}
	if c.Keep <= 0 {
		c.Keep = 1
	}
}

// ArmResult reports one candidate's fate.
type ArmResult struct {
	Name string
	// Survived reports whether the arm was still alive at the end.
	Survived bool
	// Measurements is the number of times the arm was executed.
	Measurements int
	// EliminatedInRound is the 1-based round of elimination (0 = never).
	EliminatedInRound int
	// Sample holds the collected measurements.
	Sample []float64
}

// Result is the outcome of a race.
type Result struct {
	// Arms holds per-candidate results in the (possibly prior-sorted)
	// race order.
	Arms []ArmResult
	// Survivors lists the names of surviving arms, best-median first.
	Survivors []string
	// TotalMeasurements across all arms — the quantity racing minimizes.
	TotalMeasurements int
	// Rounds actually run.
	Rounds int
	// SkippedArms counts candidates excluded by MaxArms.
	SkippedArms int
}

// RaceOn runs the eliminate-the-worse loop with the given three-way
// comparator, with cancellation and an optional shared worker budget. Every
// round's pairwise eliminations run concurrently: each ordered pair of
// surviving arms gets an independent comparator forked on a stream keyed by
// (Config.Seed, round, pair), and the outcomes are reduced in index order,
// so equal seeds give bit-identical Results at any worker count and any
// budget width. Pairs acquire tokens from budget when non-nil (the fleet's
// global bound), or run on a transient pool of Config.Workers goroutines.
//
// The measurement stage stays serial on the caller's goroutine: Arm.Measure
// closures routinely share state (one simulator, one device under test),
// and measuring arms concurrently would perturb the very distributions
// being compared.
func RaceOn(ctx context.Context, arms []Arm, cmp compare.Comparator, cfg Config, budget *pool.Pool) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(arms) == 0 {
		return nil, errors.New("search: no candidates")
	}
	if cmp == nil {
		return nil, errors.New("search: nil comparator")
	}
	cfg.defaults()
	// Probe the comparator's capabilities once for the whole race: whether
	// forks consume pre-sorted views cannot change between rounds.
	_, sortedOK := cmp.Fork(0).(compare.SortedComparator)

	// Order by prior and apply the subset cap.
	order := make([]int, len(arms))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return arms[order[a]].Prior < arms[order[b]].Prior })
	skipped := 0
	if cfg.MaxArms > 0 && cfg.MaxArms < len(order) {
		skipped = len(order) - cfg.MaxArms
		order = order[:cfg.MaxArms]
	}

	res := &Result{SkippedArms: skipped}
	res.Arms = make([]ArmResult, len(order))
	alive := make([]bool, len(order))
	for i, idx := range order {
		res.Arms[i] = ArmResult{Name: arms[idx].Name, Survived: true}
		alive[i] = true
	}
	aliveCount := len(order)

	for round := 1; round <= cfg.MaxRounds && aliveCount > cfg.Keep; round++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res.Rounds = round
		// Measure every surviving arm.
		for i, idx := range order {
			if !alive[i] {
				continue
			}
			for k := 0; k < cfg.RoundSize; k++ {
				if err := ctx.Err(); err != nil {
					return nil, err // bound cancellation latency to one Measure
				}
				if cfg.Budget > 0 && res.TotalMeasurements >= cfg.Budget {
					break
				}
				v, err := arms[idx].Measure()
				if err != nil {
					return nil, fmt.Errorf("search: measuring %s: %w", arms[idx].Name, err)
				}
				res.Arms[i].Sample = append(res.Arms[i].Sample, v)
				res.Arms[i].Measurements++
				res.TotalMeasurements++
			}
		}
		// Eliminate every arm that is Worse than some surviving rival.
		worse, err := eliminate(ctx, cmp, sortedOK, res, alive, round, cfg, budget)
		if err != nil {
			return nil, err
		}
		for i := range order {
			if worse[i] && aliveCount > cfg.Keep {
				alive[i] = false
				res.Arms[i].Survived = false
				res.Arms[i].EliminatedInRound = round
				aliveCount--
			}
		}
		if cfg.Budget > 0 && res.TotalMeasurements >= cfg.Budget {
			break
		}
	}

	// Survivors, best median first.
	type surv struct {
		name string
		med  float64
	}
	var ss []surv
	for i := range order {
		if alive[i] {
			ss = append(ss, surv{res.Arms[i].Name, median(res.Arms[i].Sample)})
		}
	}
	sort.SliceStable(ss, func(a, b int) bool { return ss[a].med < ss[b].med })
	for _, s := range ss {
		res.Survivors = append(res.Survivors, s.name)
	}
	return res, nil
}

// raceSeedDomain separates the race's keyed streams from every other
// consumer of a shared seed (ASCII "race").
const raceSeedDomain = 0x72616365

// eliminate evaluates every ordered pair of surviving arms on an
// independent comparator forked from a stream keyed by (Seed, round, i, j),
// fanned out over the shared budget (or a transient pool of cfg.Workers
// goroutines), then reduces the outcomes in index order. Because each
// pair's verdict depends only on its key — never on scheduling or on the
// verdicts of other pairs — the result is bit-identical at any worker
// count. There is no early break: all pairs are evaluated, which is what
// makes them independent units.
func eliminate(ctx context.Context, cmp compare.Comparator, sortedOK bool, res *Result, alive []bool, round int, cfg Config, budget *pool.Pool) ([]bool, error) {
	n := len(alive)
	type pair struct{ i, j int }
	var pairs []pair
	for i := 0; i < n; i++ {
		if !alive[i] || len(res.Arms[i].Sample) == 0 {
			continue
		}
		for j := 0; j < n; j++ {
			if i == j || !alive[j] || len(res.Arms[j].Sample) == 0 {
				continue
			}
			pairs = append(pairs, pair{i, j})
		}
	}
	// When the forks consume sorted views, sort each surviving arm's sample
	// once for the whole round instead of once per pair per fork
	// (CompareSorted is bit-identical to Compare, so outcomes are
	// unchanged). The views are round-local: samples grow every round.
	var sorted []*stats.SortedSample
	if sortedOK {
		sorted = make([]*stats.SortedSample, n)
		for _, pr := range pairs {
			for _, i := range [2]int{pr.i, pr.j} {
				if sorted[i] == nil {
					sorted[i] = stats.NewSortedSample(res.Arms[i].Sample)
				}
			}
		}
	}
	roundSeed := xrand.Mix(xrand.Mix(cfg.Seed, raceSeedDomain), uint64(round))
	outcomes := make([]compare.Outcome, len(pairs))
	err := pool.Dispatch(ctx, budget, len(pairs), cfg.Workers, func(k int) error {
		pr := pairs[k]
		c := cmp.Fork(xrand.Mix(roundSeed, uint64(pr.i*n+pr.j)))
		var o compare.Outcome
		var err error
		if sc, ok := c.(compare.SortedComparator); ok && sorted != nil {
			o, err = sc.CompareSorted(sorted[pr.i], sorted[pr.j])
		} else {
			o, err = c.Compare(res.Arms[pr.i].Sample, res.Arms[pr.j].Sample)
		}
		if err != nil {
			return fmt.Errorf("search: comparing %s vs %s: %w",
				res.Arms[pr.i].Name, res.Arms[pr.j].Name, err)
		}
		outcomes[k] = o
		return nil
	})
	if err != nil {
		return nil, err
	}
	worse := make([]bool, n)
	for k, pr := range pairs {
		if outcomes[k] == compare.Worse {
			worse[pr.i] = true
		}
	}
	return worse, nil
}

// median of a sample (copy + nth element would be overkill at these sizes).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	n := len(cp)
	if n%2 == 1 {
		return cp[n/2]
	}
	return (cp[n/2-1] + cp[n/2]) / 2
}
