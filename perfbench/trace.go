package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"relperf/internal/obs"
)

// perLayer lists every per-layer metric a traced run reports, with its unit.
// A layer a workload never reaches reports 0; BENCHMARK.json records which
// workload loads which layer.
var perLayer = []struct{ name, unit string }{
	{"engine.cluster_ms", "ms"},
	{"engine.measure_ms", "ms"},
	{"engine.finalize_ms", "ms"},
	{"compare.calls_per_op", "count"},
	{"compare.us_per_call", "us"},
	{"measure.ns_per_measurement", "ns"},
	{"report.bytes_per_op", "bytes"},
	{"fleet.queue_wait_ms", "ms"},
	{"fleet.study_ms", "ms"},
	{"fleet.handler_us", "us"},
	{"fleet.handler_allocs_per_op", "count"},
	{"fleet.store_hit_ratio", "ratio"},
	{"fleet.store_merges_per_op", "count"},
	{"fleet.coalesced_per_op", "count"},
	{"http.get_study_server_us", "us"},
	{"http.transport_us", "us"},
	{"http.post_suites_server_ms", "ms"},
	{"grid.attempt_ms", "ms"},
	{"grid.remote_ratio", "ratio"},
	{"grid.retries_per_op", "count"},
	{"wal.appends_per_op", "count"},
	{"wal.append_ms", "ms"},
	{"wal.fsync_ms", "ms"},
	{"proc.coordinator_cpu_ms_per_op", "ms"},
	{"proc.worker_cpu_ms_per_op", "ms"},
	{"op.unattributed_ms", "ms"},
	{"bench.trace_overhead_pct", "%"},
}

// span is one interval the benchmark recorded around a call it made into
// the system. Spans of one op share its op index; times are nanoseconds
// since the recorder's origin.
type span struct {
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// recorder keeps spans in memory; they are written out when the run ends.
type recorder struct {
	origin time.Time
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// add records one span of op. A nil recorder records nothing, which is how
// untraced windows run.
func (r *recorder) add(op int64, name, parent string, start, end time.Time) {
	if r == nil {
		return
	}
	r.spans = append(r.spans, span{Op: op, Name: name, Parent: parent,
		Start: start.Sub(r.origin).Nanoseconds(), End: end.Sub(r.origin).Nanoseconds()})
}

// byOp groups the spans by op index.
func (r *recorder) byOp() map[int64]map[string]span {
	out := make(map[int64]map[string]span)
	for _, s := range r.spans {
		if out[s.Op] == nil {
			out[s.Op] = make(map[string]span)
		}
		out[s.Op][s.Name] = s
	}
	return out
}

// all returns the spans ordered by op, then start.
func (r *recorder) all() []span {
	out := append([]span(nil), r.spans...)
	sort.Slice(out, func(a, b int) bool {
		if out[a].Op != out[b].Op {
			return out[a].Op < out[b].Op
		}
		return out[a].Start < out[b].Start
	})
	return out
}

// series is one node's metrics exposition: sample key ("name{labels}", the
// text format's form; histograms as name_sum and name_count) to value.
type series map[string]float64

// parseExposition reads the Prometheus text format /v1/metrics serves.
func parseExposition(b []byte) (series, error) {
	s := series{}
	for _, line := range strings.Split(string(b), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("malformed exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("malformed exposition line %q: %w", line, err)
		}
		s[line[:i]] = v
	}
	return s, nil
}

// seriesFromSnapshot keys an in-process registry snapshot the way the
// exposition does, with labels sorted by name.
func seriesFromSnapshot(snap []obs.MetricSnapshot) series {
	s := series{}
	for _, m := range snap {
		keys := make([]string, 0, len(m.Labels))
		for k := range m.Labels {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		lbl := ""
		for i, k := range keys {
			if i > 0 {
				lbl += ","
			}
			lbl += k + `="` + m.Labels[k] + `"`
		}
		if lbl != "" {
			lbl = "{" + lbl + "}"
		}
		if m.Count != nil {
			s[m.Name+"_count"+lbl] = float64(*m.Count)
			s[m.Name+"_sum"+lbl] = *m.Sum
		} else if m.Value != nil {
			s[m.Name+lbl] = *m.Value
		}
	}
	return s
}

// delta is the change of every node's exposition across a traced window.
// Node 0 is the node the client talks to.
type delta struct{ before, after []series }

// of returns key's change on node n.
func (d delta) of(n int, key string) float64 { return d.after[n][key] - d.before[n][key] }

// sum returns key's change summed over every node.
func (d delta) sum(key string) float64 {
	t := 0.0
	for n := range d.after {
		t += d.of(n, key)
	}
	return t
}

// meanMS returns the mean observation, in ms, of histogram name{lbl} over
// the window on node n, or over every node when n < 0. No observations
// give 0.
func (d delta) meanMS(n int, name, lbl string) float64 {
	var sum, count float64
	if n < 0 {
		sum, count = d.sum(name+"_sum"+lbl), d.sum(name+"_count"+lbl)
	} else {
		sum, count = d.of(n, name+"_sum"+lbl), d.of(n, name+"_count"+lbl)
	}
	return ratio(sum*1000, count)
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerReport is a traced window's per-layer numbers.
type layerReport struct {
	// metrics holds per-layer metric values, in the units of perLayer.
	metrics map[string]float64
	// rows names the breakdown rows of an op, in critical-path order.
	rows []string
	// perOp maps an op index to its row values in ms, aligned with rows.
	// The op's wall time minus their sum is its unattributed time.
	perOp map[int64][]float64
}

// runTraced measures an untraced window and then a traced one, each half
// the run's length on a fresh system with the same op sequence, and reports
// the per-layer metrics. The difference of the two windows' median latency
// is the tracing overhead.
func runTraced(w workload, e *env, dur time.Duration) (*result, error) {
	half := dur / 2
	res := &result{Correct: true, Metrics: map[string]metric{}}
	account := func(win *window, verr error) error {
		res.Attempted += len(win.ops)
		res.Failed += win.failed()
		if win.failed() > 0 {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: first failed op: %v\n", win.firstErr())
		}
		if verr != nil {
			if !errors.Is(verr, errMismatch) {
				return verr
			}
			res.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", verr)
		}
		return nil
	}

	sys, err := launch(w, e)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	base, err := runWindow(sys, int64(w.warmup), half, nil)
	if err == nil {
		err = account(base, sys.verify(base))
	}
	if cerr := sys.close(); err == nil && cerr != nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}

	sys, err = launch(w, e)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	rep, tw, trace, err := tracedWindow(sys, w, half)
	if err == nil {
		err = account(tw, sys.verify(tw))
	}
	if cerr := sys.close(); err == nil && cerr != nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}

	baseLat, tracedLat := base.okLatencies(), tw.okLatencies()
	if len(baseLat) == 0 || len(tracedLat) == 0 {
		return nil, fmt.Errorf("%s: no op succeeded in a window", w.name)
	}
	b50, t50 := percentile(baseLat, 0.5), percentile(tracedLat, 0.5)
	rep.metrics["bench.trace_overhead_pct"] = 100 * (ms(t50) - ms(b50)) / ms(b50)

	n := float64(len(tracedLat))
	rep.metrics["proc.coordinator_cpu_ms_per_op"] = tw.procCPU[0] * 1000 / n
	for _, c := range tw.procCPU[1:] {
		rep.metrics["proc.worker_cpu_ms_per_op"] += c * 1000 / n
	}
	ops := breakdown(rep, tw)
	if len(ops) == 0 {
		return nil, fmt.Errorf("%s: no traced op has a breakdown", w.name)
	}
	mean := meanBreakdown(ops)
	rep.metrics["op.unattributed_ms"] = mean.Unattributed
	fmt.Print(table(e, rep.rows, mean, len(ops)))
	if err := writeTrace(e, rep, ops, trace); err != nil {
		return nil, err
	}
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{rep.metrics[m.name], m.unit}
	}
	return res, nil
}

// tracedWindow scrapes the system before and after a recorded window and
// derives its layer report.
func tracedWindow(sys system, w workload, dur time.Duration) (*layerReport, *window, *recorder, error) {
	before, err := sys.snapshot()
	if err != nil {
		return nil, nil, nil, err
	}
	rec := newRecorder()
	win, err := runWindow(sys, int64(w.warmup), dur, rec)
	if err != nil {
		return nil, nil, nil, err
	}
	after, err := sys.snapshot()
	if err != nil {
		return nil, nil, nil, err
	}
	rep, err := sys.layers(win, delta{before: before, after: after}, rec)
	if err != nil {
		return nil, nil, nil, err
	}
	return rep, win, rec, nil
}

// opBreakdown is one traced op split into the report's rows: the rows plus
// the unattributed remainder sum to the op's wall time.
type opBreakdown struct {
	Op           int64     `json:"op"`
	WallMS       float64   `json:"wall_ms"`
	Rows         []float64 `json:"rows_ms"`
	Unattributed float64   `json:"unattributed_ms"`
}

// breakdown splits every verified traced op that has layer rows.
func breakdown(rep *layerReport, win *window) []opBreakdown {
	var out []opBreakdown
	for _, op := range win.okOps() {
		vals, ok := rep.perOp[op.i]
		if !ok {
			continue
		}
		b := opBreakdown{Op: op.i, WallMS: ms(op.lat), Rows: vals, Unattributed: ms(op.lat)}
		for _, v := range vals {
			b.Unattributed -= v
		}
		out = append(out, b)
	}
	return out
}

// meanBreakdown averages non-empty ops row by row.
func meanBreakdown(ops []opBreakdown) opBreakdown {
	m := opBreakdown{Op: -1, Rows: make([]float64, len(ops[0].Rows))}
	for _, op := range ops {
		m.WallMS += op.WallMS / float64(len(ops))
		m.Unattributed += op.Unattributed / float64(len(ops))
		for k, v := range op.Rows {
			m.Rows[k] += v / float64(len(ops))
		}
	}
	return m
}

// table renders the mean per-op breakdown as comment lines.
func table(e *env, rows []string, mean opBreakdown, n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# per-op breakdown: workload %s, seed %d, %d traced ops, mean ms per op\n", e.cfg.workload, e.cfg.seed, n)
	for k, name := range rows {
		fmt.Fprintf(&b, "#   %-34s %10.4f\n", name, mean.Rows[k])
	}
	fmt.Fprintf(&b, "#   %-34s %10.4f\n", "unattributed", mean.Unattributed)
	fmt.Fprintf(&b, "#   %-34s %10.4f\n", "op wall time (sum of the above)", mean.WallMS)
	return b.String()
}

// writeTrace writes the per-layer metrics, every op's breakdown and every
// recorded span to trace.json in the run directory.
func writeTrace(e *env, rep *layerReport, ops []opBreakdown, rec *recorder) error {
	doc := struct {
		Workload string             `json:"workload"`
		Seed     uint64             `json:"seed"`
		Metrics  map[string]float64 `json:"metrics"`
		Rows     []string           `json:"rows"`
		Ops      []opBreakdown      `json:"ops"`
		Spans    []span             `json:"spans"`
	}{e.cfg.workload, e.cfg.seed, rep.metrics, rep.rows, ops, rec.all()}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(e.dir, "trace.json"), b, 0o644)
}
