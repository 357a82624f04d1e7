package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"time"
)

// errMismatch marks a failed output check: the run still reports its
// metrics, with "correct": false.
var errMismatch = errors.New("output check failed")

// env is what a workload's start function gets: the invocation's settings
// and a run directory of its own.
type env struct {
	cfg  config
	dir  string
	runs int // systems started so far; names each one's files
}

// nextRunDir returns a fresh subdirectory for one system's files.
func (e *env) nextRunDir() (string, error) {
	e.runs++
	return freshDir(e.dir, fmt.Sprintf("sys%d", e.runs))
}

// workload is one op shape, driven closed-loop by one client: the next op
// is issued only after the previous one completed, so every op's latency is
// its own path through the system, not its queueing behind another op.
type workload struct {
	name string
	// warmup is the number of untimed ops start runs; timed ops begin at
	// this index of the op sequence.
	warmup int
	// start launches a fresh system under test and waits until it is
	// ready; launch then runs the warm-up ops.
	start func(*env) (system, error)
}

// system is one running system under test.
type system interface {
	// do runs op i of the sequence and times the call into the system. It
	// checks what is cheap to check at once; the loop checks a returned
	// blob. rec, when non-nil, receives the op's spans.
	do(i int64, rec *recorder) opRecord
	// usage returns the CPU seconds each process of the system under test
	// has used so far, the process the client talks to first, and the peak
	// resident set in MB summed over them.
	usage() (cpuSeconds []float64, rssMB float64, err error)
	// verify runs the after-window checks; a mismatch wraps errMismatch.
	verify(w *window) error
	// close stops the system and waits for every process it started.
	close() error
	// snapshot reads every node's metrics exposition, the node the client
	// talks to first (traced runs only).
	snapshot() ([]series, error)
	// layers derives the per-layer metrics and per-op breakdown rows of a
	// traced window from the exposition deltas and the recorded spans.
	layers(w *window, d delta, rec *recorder) (*layerReport, error)
}

// opRecord is one completed op.
type opRecord struct {
	i     int64
	lat   time.Duration
	done  time.Duration // completion, from the start of its window
	bytes int
	fp    string
	// blob is the result do returned. The loop checks it, keeps its
	// digest in sum and drops it, so a window holds no result bytes and
	// its memory does not grow with its op count.
	blob []byte
	sum  [sha256.Size]byte
	err  error
}

// window is one measured closed-loop window.
type window struct {
	ops        []opRecord // in op-index order
	elapsed    time.Duration
	cpuSeconds float64   // over every process of the system under test
	procCPU    []float64 // per process, the process the client talks to first
	rssMB      float64
}

// launch starts a fresh system and runs the workload's warm-up ops on it,
// closed-loop. A failed warm-up op fails the set-up.
func launch(w workload, e *env) (system, error) {
	sys, err := w.start(e)
	if err != nil {
		return nil, err
	}
	win, err := runLoop(sys, 0, int64(w.warmup), time.Time{}, nil)
	if err == nil {
		err = win.firstErr()
	}
	if err != nil {
		if cerr := sys.close(); cerr != nil {
			err = fmt.Errorf("%w (closing: %v)", err, cerr)
		}
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return sys, nil
}

// runWindow drives sys closed-loop from op index first for dur; no op
// starts after the deadline.
func runWindow(sys system, first int64, dur time.Duration, rec *recorder) (*window, error) {
	return runLoop(sys, first, math.MaxInt64, time.Now().Add(dur), rec)
}

// runLoop runs ops [first, limit) closed-loop, stopping early at deadline
// unless it is zero. After each op it checks the returned result, which
// must decode and re-encode to the same bytes, and keeps its digest for the
// after-window checks. The check's wall time is not part of the window; in
// process its CPU is counted with the system's, a small fixed share per op.
func runLoop(sys system, first, limit int64, deadline time.Time, rec *recorder) (*window, error) {
	cpu0, _, err := sys.usage()
	if err != nil {
		return nil, err
	}
	w := &window{}
	var checking time.Duration
	start := time.Now()
	for i := first; i < limit && (deadline.IsZero() || time.Now().Before(deadline)); i++ {
		op := sys.do(i, rec)
		t := time.Now()
		op.done = t.Sub(start) - checking
		if op.err == nil && op.blob != nil {
			op.err = checkBlob(op.blob)
			op.sum = sha256.Sum256(op.blob)
		}
		op.blob = nil
		w.ops = append(w.ops, op)
		checking += time.Since(t)
	}
	w.elapsed = time.Since(start) - checking
	cpu1, rss, err := sys.usage()
	if err != nil {
		return nil, err
	}
	w.rssMB = rss
	for k := range cpu1 {
		w.procCPU = append(w.procCPU, cpu1[k]-cpu0[k])
		w.cpuSeconds += cpu1[k] - cpu0[k]
	}
	return w, nil
}

// okOps returns the ops that passed their checks.
func (w *window) okOps() []opRecord {
	var ok []opRecord
	for _, op := range w.ops {
		if op.err == nil {
			ok = append(ok, op)
		}
	}
	return ok
}

// okLatencies returns the latencies of the ops that passed their checks.
func (w *window) okLatencies() []time.Duration {
	var lat []time.Duration
	for _, op := range w.ops {
		if op.err == nil {
			lat = append(lat, op.lat)
		}
	}
	return lat
}

func (w *window) failed() int { return len(w.ops) - len(w.okLatencies()) }

// fail marks op i failed by an after-window check.
func (w *window) fail(i int64, err error) {
	k := sort.Search(len(w.ops), func(k int) bool { return w.ops[k].i >= i })
	w.ops[k].err = err
}

func (w *window) firstErr() error {
	for _, op := range w.ops {
		if op.err != nil {
			return fmt.Errorf("op %d: %w", op.i, op.err)
		}
	}
	return nil
}

// sample returns up to k ok ops chosen by a generator keyed off seed, in
// op-index order: the after-window recompute checks run on them.
func (w *window) sample(seed uint64, k int) []opRecord {
	ok := w.okOps()
	rng := rand.New(rand.NewPCG(seed, 0x73616d706c65)) // "sample"
	rng.Shuffle(len(ok), func(a, b int) { ok[a], ok[b] = ok[b], ok[a] })
	if len(ok) > k {
		ok = ok[:k]
	}
	sort.Slice(ok, func(a, b int) bool { return ok[a].i < ok[b].i })
	return ok
}

// slices is how many equal time slices of a window the end-to-end
// statistics are taken over.
const slices = 5

// sliced splits the window into slices equal time slices by op completion
// and returns the median over the slices of each slice's verified-op p50
// and p90 latency and its verified ops per second. A host stall that covers
// fewer than half of the slices moves none of the three; a change to every
// op moves every slice.
func (w *window) sliced() (p50, p90 time.Duration, opsPerSecond float64) {
	width := w.elapsed / slices
	lat := make([][]time.Duration, slices)
	for _, op := range w.ops {
		if op.err != nil {
			continue
		}
		k := min(int(op.done/width), slices-1)
		lat[k] = append(lat[k], op.lat)
	}
	var q50, q90, rate []float64
	for _, l := range lat {
		rate = append(rate, float64(len(l))/width.Seconds())
		if len(l) > 0 {
			q50 = append(q50, float64(percentile(l, 0.5)))
			q90 = append(q90, float64(percentile(l, 0.9)))
		}
	}
	return time.Duration(median(q50)), time.Duration(median(q90)), median(rate)
}

// rankOf is the 1-based nearest rank of quantile q among n samples.
func rankOf(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	return r
}

// percentile returns the nearest-rank q-quantile of the latencies.
func percentile(lat []time.Duration, q float64) time.Duration {
	s := append([]time.Duration(nil), lat...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	return s[rankOf(len(s), q)-1]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
