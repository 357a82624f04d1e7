package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand/v2"
	"os"
	"strconv"
	"strings"
	"syscall"

	"relperf"
)

// The workloads. Each has one op shape; BENCHMARK.json records why each was
// chosen, the layers it loads and the layers it bypasses.
var workloads = map[string]workload{
	// One client, in process through fleet.Scheduler.Study: a distinct
	// Table-I exact study per op. The bootstrap clustering is nearly all of
	// the op, so engine kernel changes show here.
	"study-exact": {name: "study-exact", warmup: 4, start: startStudy(exactSpec)},
	// The same harness with sketch-mode studies: the measurement layers do
	// nearly all the work and the bootstrap never runs.
	"study-sketch": {name: "study-sketch", warmup: 10, start: startStudy(sketchSpec)},
	// One client submitting one new study at a time to a coordinator with
	// two workers, all on the WAL, and blocking on its result: control-plane
	// work dominates.
	"grid-write": {name: "grid-write", warmup: 500, start: startGrid},
}

// Input shapes. Every study is Table-I-shaped (3 tasks, 8 placements); the
// op index picks loop_n, which changes the fingerprint but not the work.

func exactSpec(n int) relperf.StudySpec {
	return relperf.StudySpec{Workload: "tableI", LoopN: n, Measurements: 30, Reps: 100}
}

func sketchSpec(n int) relperf.StudySpec {
	return relperf.StudySpec{Workload: "tableI", LoopN: n, Measurements: 25000, Reps: 20,
		Sketch: &relperf.SketchSpec{K: 256}}
}

// gridSpec is the study a grid-write op submits. With KS the engine is a
// small share of the op and the bootstrap never runs.
func gridSpec(n int) relperf.StudySpec {
	return relperf.StudySpec{Workload: "tableI", LoopN: n, Measurements: 30, Reps: 10, Comparator: "ks"}
}

// loopSpan bounds the loop_n values a run draws from; op indices below it
// get distinct values, so no op of a run hits a result an earlier op cached.
const loopSpan = 1 << 20

// inputs is a seed's op sequence.
type inputs struct{ off uint64 }

func newInputs(seed uint64) inputs {
	return inputs{off: rand.New(rand.NewPCG(seed, 0x6c6f6f70)).Uint64N(loopSpan)} // "loop"
}

// loopN is the Table-I loop count of op i.
func (in inputs) loopN(i int64) int { return 1000 + int((in.off+uint64(i))%loopSpan) }

// checkBlob checks a served result: it must decode and re-encode to the
// same bytes.
func checkBlob(blob []byte) error {
	res, err := relperf.UnmarshalResultWire(blob)
	if err != nil {
		return fmt.Errorf("%w: result does not decode: %v", errMismatch, err)
	}
	again, err := res.MarshalWire()
	if err != nil {
		return fmt.Errorf("%w: result does not re-encode: %v", errMismatch, err)
	}
	if !bytes.Equal(again, blob) {
		return fmt.Errorf("%w: result does not re-encode to the same bytes", errMismatch)
	}
	return nil
}

// recompute runs spec single-node in process at one worker, seeded as a
// suite keyed by suiteSeed would seed it, and returns the canonical result
// bytes: the reference every served or scheduled result must equal.
func recompute(spec relperf.StudySpec, suiteSeed uint64) ([]byte, error) {
	cfg, err := spec.Config()
	if err != nil {
		return nil, err
	}
	fp, err := relperf.Fingerprint(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Seed, err = relperf.StudySeed(suiteSeed, fp); err != nil {
		return nil, err
	}
	cfg.Workers = 1
	st, err := relperf.NewStudy(cfg)
	if err != nil {
		return nil, err
	}
	res, err := st.Run()
	if err != nil {
		return nil, err
	}
	return res.MarshalWire()
}

// checkRecomputed recomputes a seeded sample of k of the window's ops
// single-node and compares the bytes, by digest: the determinism contract
// says they must be identical. An op that differs is marked failed.
func checkRecomputed(w *window, k int, in inputs, spec func(int) relperf.StudySpec, suiteSeed uint64) error {
	for _, op := range w.sample(suiteSeed, k) {
		want, err := recompute(spec(in.loopN(op.i)), suiteSeed)
		if err != nil {
			return fmt.Errorf("recomputing op %d: %w", op.i, err)
		}
		if sha256.Sum256(want) != op.sum {
			w.fail(op.i, fmt.Errorf("%w: op %d (%s) differs from its single-node recompute", errMismatch, op.i, op.fp))
		}
	}
	return nil
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is 100
// on every Linux architecture Go supports.
const clockTicks = 100

// procCPUSeconds returns user+system CPU seconds of a process from
// /proc/<pid>/stat.
func procCPUSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields count from the
	// closing parenthesis. utime and stime are fields 14 and 15.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	return (ut + st) / clockTicks, nil
}

// peakRSSMB returns VmHWM of a process ("self" for this one) in MB.
func peakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("malformed VmHWM line %q", line)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// selfCPUSeconds is getrusage(RUSAGE_SELF) user+system time.
func selfCPUSeconds() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), nil
}
