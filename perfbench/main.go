// Command perfbench is relperf's end-to-end benchmark. One invocation runs
// one workload for a fixed window and prints, as the last line of standard
// output, a JSON object with the run's correctness verdict, its op counts and
// its metrics:
//
//	perfbench -relperfd <binary> -workdir <dir> \
//	    --workload study-exact --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, measured with no span
// recording and no scraping inside the window. With --trace 1 it runs the
// same seed twice on fresh systems, untraced and then traced, and reports the
// per-layer metrics plus a per-op breakdown whose rows sum to the op's wall
// time. run.sh builds the binaries and supplies -relperfd and -workdir.
//
// Each workload has one op shape, so its latency distribution has one mode;
// the seed fixes the op sequence, so every run of a seed takes its
// percentiles over the same population. Readiness is awaited on observable
// state and warm-up ops run before the window.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	relperfd string
	workdir  string
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload name: study-exact, study-sketch or grid-write")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed; equal seeds give equal op sequences")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "length of the measured window in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced per-layer breakdown instead of the end-to-end metrics")
	flag.StringVar(&cfg.relperfd, "relperfd", "", "relperfd binary (daemon workloads)")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build/run", "directory for run files (WALs, snapshots, logs, traces)")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if err := validate(cfg, traceFlag); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func validate(cfg config, traceFlag int) error {
	if _, ok := workloads[cfg.workload]; !ok {
		return fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloadNames())
	}
	if traceFlag != 0 && traceFlag != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", traceFlag)
	}
	if cfg.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %v", cfg.seconds)
	}
	return nil
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// endToEnd lists every end-to-end metric an untraced run reports. Timings
// are over the ops that passed their checks only.
var endToEnd = []struct{ name, unit string }{
	{"throughput_ops_s", "1/s"}, // verified ops per second, median over the window's slices
	{"latency_p50_ms", "ms"},    // op latency timed at the client: median over the slices of each slice's p50
	{"latency_p90_ms", "ms"},    // and of each slice's p90
	{"cpu_ms_per_op", "ms"},     // CPU of the system under test ÷ ops
	{"peak_rss_mb", "MB"},       // VmHWM of the system under test
	{"setup_s", "s"},            // launch to first timed op, median of setupRepeats
}

// setupRepeats is how many times an untraced run stands the system up. The
// median is reported as setup_s; only the last system is measured.
const setupRepeats = 3

// run executes one invocation.
func run(cfg config) (*result, error) {
	w := workloads[cfg.workload]
	dir, err := freshDir(cfg.workdir, cfg.workload)
	if err != nil {
		return nil, err
	}
	env := &env{cfg: cfg, dir: dir}
	window := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		return runTraced(w, env, window)
	}

	var setups []float64
	var sys system
	for r := 0; r < setupRepeats; r++ {
		t0 := time.Now()
		s, err := launch(w, env)
		if err != nil {
			return nil, fmt.Errorf("%s set-up %d: %w", w.name, r+1, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if r < setupRepeats-1 {
			if err := s.close(); err != nil {
				return nil, fmt.Errorf("%s set-up %d: closing: %w", w.name, r+1, err)
			}
			continue
		}
		sys = s
	}
	win, err := runWindow(sys, int64(w.warmup), window, nil)
	if err == nil {
		err = sys.verify(win)
	}
	if cerr := sys.close(); err == nil && cerr != nil {
		err = fmt.Errorf("closing: %w", cerr)
	}
	verifyErr := err
	if verifyErr != nil && !errors.Is(verifyErr, errMismatch) {
		return nil, verifyErr
	}
	ok := win.okLatencies()
	if len(ok) == 0 {
		return nil, fmt.Errorf("%s: no op succeeded in the window (%d attempted): %v", w.name, len(win.ops), win.firstErr())
	}
	p50, p90, opsPerSecond := win.sliced()
	if above := len(ok) - rankOf(len(ok), 0.9); above < 10 {
		fmt.Fprintf(os.Stderr, "perfbench: warning: only %d samples above p90 (%d ops); lengthen --seconds\n", above, len(ok))
	}
	if verifyErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", verifyErr)
	}
	if e := win.firstErr(); e != nil {
		fmt.Fprintf(os.Stderr, "perfbench: first failed op: %v\n", e)
	}
	n := float64(len(ok))
	values := map[string]float64{
		"throughput_ops_s": opsPerSecond,
		"latency_p50_ms":   ms(p50),
		"latency_p90_ms":   ms(p90),
		"cpu_ms_per_op":    win.cpuSeconds * 1000 / n,
		"peak_rss_mb":      win.rssMB,
		"setup_s":          median(setups),
	}
	res := &result{
		Correct:   verifyErr == nil && win.failed() == 0,
		Attempted: len(win.ops),
		Failed:    win.failed(),
		Metrics:   map[string]metric{},
	}
	for _, m := range endToEnd {
		res.Metrics[m.name] = metric{values[m.name], m.unit}
	}
	return res, nil
}

// freshDir empties and recreates the workload's run directory.
func freshDir(root, name string) (string, error) {
	dir := root + "/" + name
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return dir, nil
}
