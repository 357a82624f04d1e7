package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"sync/atomic"
	"time"

	"relperf"
	"relperf/internal/compare"
	"relperf/internal/fleet"
	"relperf/internal/obs"
	"relperf/internal/stats"
)

// studyWorkers is the scheduler's worker budget in the in-process
// workloads, set explicitly rather than taken from GOMAXPROCS.
const studyWorkers = 2

// studyCache bounds the in-process result store. Every op adds a result,
// so an unbounded store would make memory grow with the op count, and with
// it peak_rss_mb with the host's speed; bounded, the store is full a few
// ops into the window and every later op meets the same state.
const studyCache = 16

// studyChecks is how many ops of a window are recomputed at one worker.
const studyChecks = 3

// studySystem is one in-process fleet.Scheduler: no HTTP, no WAL, no grid.
type studySystem struct {
	sched *fleet.Scheduler
	in    inputs
	seed  uint64
	spec  func(int) relperf.StudySpec
}

func startStudy(spec func(int) relperf.StudySpec) func(*env) (system, error) {
	return func(e *env) (system, error) {
		o := obs.New()
		if e.cfg.trace {
			// A tracer ring larger than any window's op count, so every
			// traced op keeps its timeline.
			o.Tracer = obs.NewTracer(1<<14, 0)
		}
		sched := fleet.New(fleet.Options{Workers: studyWorkers, Seed: e.cfg.seed,
			Store: fleet.NewStore(studyCache), Obs: o})
		return &studySystem{sched: sched, in: newInputs(e.cfg.seed), seed: e.cfg.seed, spec: spec}, nil
	}
}

func (s *studySystem) do(i int64, rec *recorder) opRecord {
	op := opRecord{i: i}
	spec := s.spec(s.in.loopN(i))
	cfg, err := spec.Config()
	if err != nil {
		op.err = err
		return op
	}
	t0 := time.Now()
	op.fp, op.blob, op.err = s.sched.Study(context.Background(), cfg)
	t1 := time.Now()
	op.lat, op.bytes = t1.Sub(t0), len(op.blob)
	rec.add(i, "fleet.Scheduler.Study", "", t0, t1)
	return op
}

func (s *studySystem) usage() ([]float64, float64, error) {
	cpu, err := selfCPUSeconds()
	if err != nil {
		return nil, 0, err
	}
	rss, err := peakRSSMB("self")
	return []float64{cpu}, rss, err
}

func (s *studySystem) verify(w *window) error {
	return checkRecomputed(w, studyChecks, s.in, s.spec, s.seed)
}

func (s *studySystem) close() error {
	s.sched.Close()
	return nil
}

func (s *studySystem) snapshot() ([]series, error) {
	return []series{seriesFromSnapshot(s.sched.Obs().Reg().Snapshot())}, nil
}

// Stage label selectors of engine_stage_seconds.
const (
	stageMeasure  = `{stage="measure"}`
	stageCluster  = `{stage="cluster"}`
	stageFinalize = `{stage="finalize"}`
)

func (s *studySystem) layers(w *window, d delta, rec *recorder) (*layerReport, error) {
	ok := w.okOps()
	n := float64(len(ok))
	m := engineLayers(d, -1, s.spec(s.in.loopN(0)))
	m["fleet.queue_wait_ms"] = d.meanMS(0, "fleet_queue_wait_seconds", "")
	m["fleet.study_ms"] = d.meanMS(0, "fleet_study_seconds", "")
	hits, misses := d.of(0, "store_hits_total"), d.of(0, "store_misses_total")
	m["fleet.store_hit_ratio"] = ratio(hits, hits+misses)
	m["fleet.store_merges_per_op"] = d.of(0, "store_merges_total") / n
	m["fleet.coalesced_per_op"] = d.of(0, "fleet_coalesced_total") / n
	m["report.bytes_per_op"] = meanBytes(ok)

	calls, perCall, err := countCompares(w, s.in, s.spec, s.seed)
	if err != nil {
		return nil, err
	}
	m["compare.calls_per_op"], m["compare.us_per_call"] = calls, perCall

	// Per-op rows come from the scheduler's own timeline of each study.
	rep := &layerReport{metrics: m, perOp: map[int64][]float64{},
		rows: []string{"fleet.queue_wait", "engine.measure", "engine.cluster", "engine.finalize"}}
	tr := s.sched.Obs().Trace()
	for _, op := range ok {
		tl, found := tr.Timeline(op.fp)
		if !found {
			continue
		}
		vals := make([]float64, len(rep.rows))
		for _, sp := range tl {
			switch sp.Name {
			case "queued":
				vals[0] = spanMS(sp)
			case "stage:" + relperf.StageMeasure:
				vals[1] = spanMS(sp)
			case "stage:" + relperf.StageCluster:
				vals[2] = spanMS(sp)
			case "stage:" + relperf.StageFinalize:
				vals[3] = spanMS(sp)
			}
		}
		rep.perOp[op.i] = vals
	}
	return rep, nil
}

// engineLayers derives the engine metrics from engine_stage_seconds on node
// n (every node when n < 0); spec is the shape every op of the workload
// shares.
func engineLayers(d delta, n int, spec relperf.StudySpec) map[string]float64 {
	m := map[string]float64{
		"engine.measure_ms":  d.meanMS(n, "engine_stage_seconds", stageMeasure),
		"engine.cluster_ms":  d.meanMS(n, "engine_stage_seconds", stageCluster),
		"engine.finalize_ms": d.meanMS(n, "engine_stage_seconds", stageFinalize),
	}
	if cfg, err := spec.Config(); err == nil {
		perStudy := float64(int(1)<<len(cfg.Program.Tasks)) * float64(spec.Measurements+spec.Warmup)
		m["measure.ns_per_measurement"] = m["engine.measure_ms"] * 1e6 / perStudy
	}
	return m
}

func spanMS(sp obs.Span) float64 {
	if sp.Seconds > 0 {
		return sp.Seconds * 1000
	}
	return ms(sp.End.Sub(sp.Start))
}

func meanBytes(ops []opRecord) float64 {
	t := 0
	for _, op := range ops {
		t += op.bytes
	}
	return ratio(float64(t), float64(len(ops)))
}

// countingBootstrap counts every comparison a bootstrap comparator makes.
// It forks and compares exactly as the wrapped comparator does, so a study
// run with it produces the same bytes as one run with the default.
type countingBootstrap struct {
	b     compare.Comparator
	calls *atomic.Int64
}

func (c countingBootstrap) Compare(a, b []float64) (compare.Outcome, error) {
	c.calls.Add(1)
	return c.b.Compare(a, b)
}

func (c countingBootstrap) CompareSorted(a, b *stats.SortedSample) (compare.Outcome, error) {
	c.calls.Add(1)
	return c.b.(compare.SortedComparator).CompareSorted(a, b)
}

func (c countingBootstrap) Fork(seed uint64) compare.Comparator {
	return countingBootstrap{b: c.b.(compare.Forker).Fork(seed), calls: c.calls}
}

// countCompares reruns a seeded sample of the window's ops in process at
// the scheduler's worker count with a counting wrapper around the bootstrap
// comparator, and returns the comparisons per op and the cluster stage's
// time per comparison in µs. A rerun whose bytes differ from the window's
// marks the op failed. Studies that do not use the bootstrap comparator make
// no bootstrap comparisons.
func countCompares(w *window, in inputs, spec func(int) relperf.StudySpec, suiteSeed uint64) (perOp, usPerCall float64, err error) {
	var calls atomic.Int64
	var clusterSeconds float64
	ops := w.sample(suiteSeed, studyChecks)
	for _, op := range ops {
		sp := spec(in.loopN(op.i))
		cfg, err := sp.Config()
		if err != nil {
			return 0, 0, err
		}
		if cfg.Comparator != nil || cfg.SketchK > 0 {
			continue
		}
		if cfg.Seed, err = relperf.StudySeed(suiteSeed, op.fp); err != nil {
			return 0, 0, err
		}
		cfg.Workers = studyWorkers
		cfg.Comparator = countingBootstrap{b: compare.NewBootstrap(0), calls: &calls}
		st, err := relperf.NewStudy(cfg)
		if err != nil {
			return 0, 0, err
		}
		res, err := st.Run()
		if err != nil {
			return 0, 0, err
		}
		blob, err := res.MarshalWire()
		if err != nil {
			return 0, 0, err
		}
		if sha256.Sum256(blob) != op.sum {
			w.fail(op.i, fmt.Errorf("%w: op %d rerun with a counting comparator differs from the window's result", errMismatch, op.i))
		}
		for _, st := range res.Stages {
			if st.Name == relperf.StageCluster {
				clusterSeconds += st.Seconds
			}
		}
	}
	c := float64(calls.Load())
	return ratio(c, float64(len(ops))), ratio(clusterSeconds*1e6, c), nil
}
