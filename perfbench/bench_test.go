package main

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
)

// TestChecksCatchFlippedByte flips single bytes of a result and requires the
// after-window recompute check to mark the op failed for every copy, and the
// re-encode check to refuse at least the copies that break the document.
func TestChecksCatchFlippedByte(t *testing.T) {
	in := newInputs(3)
	blob, err := recompute(gridSpec(in.loopN(0)), 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkBlob(blob); err != nil {
		t.Fatalf("unmodified result fails its check: %v", err)
	}
	recheck := func(b []byte) *window {
		t.Helper()
		w := &window{ops: []opRecord{{i: 0, sum: sha256.Sum256(b)}}}
		if err := checkRecomputed(w, 1, in, gridSpec, 3); err != nil {
			t.Fatal(err)
		}
		return w
	}
	if w := recheck(blob); w.failed() != 0 {
		t.Fatalf("unmodified result fails the recompute check: %v", w.firstErr())
	}
	structural := 0
	for pos := 0; pos < len(blob); pos += 97 {
		bad := append([]byte(nil), blob...)
		bad[pos] ^= 0x01
		if w := recheck(bad); w.failed() != 1 || !errors.Is(w.ops[0].err, errMismatch) {
			t.Fatalf("byte %d flipped: recompute check left the op as %v, want a mismatch", pos, w.ops[0].err)
		}
		if checkBlob(bad) != nil {
			structural++
		}
	}
	if structural == 0 {
		t.Fatal("the per-op check caught no flipped byte")
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestMetricNames checks every metric name's form and that BENCHMARK.json
// declares exactly the metrics the benchmark prints, with the same units.
func TestMetricNames(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ name, unit string }, want []decl) {
		if len(got) != len(want) {
			t.Errorf("%s: benchmark prints %d metrics, BENCHMARK.json declares %d", kind, len(got), len(want))
			return
		}
		for k, m := range got {
			if !metricName.MatchString(m.name) {
				t.Errorf("%s metric %q: name does not match %s", kind, m.name, metricName)
			}
			if m.name != want[k].Name || m.unit != want[k].Unit {
				t.Errorf("%s metric %d: prints %s [%s], BENCHMARK.json declares %s [%s]",
					kind, k, m.name, m.unit, want[k].Name, want[k].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not a benchmark workload", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
}

// buildRelperfd compiles the daemon the daemon workloads launch.
func buildRelperfd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "relperfd")
	out, err := exec.Command("go", "build", "-o", bin, "relperf/cmd/relperfd").CombinedOutput()
	if err != nil {
		t.Fatalf("building relperfd: %v\n%s", err, out)
	}
	return bin
}

// TestSmoke runs every workload briefly, untraced and traced, and checks the
// output contract and the layers each workload is meant to bypass.
func TestSmoke(t *testing.T) {
	bin := buildRelperfd(t)
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			cfg := config{workload: name, seed: 5, seconds: 0.4, relperfd: bin, workdir: t.TempDir()}
			res, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("untraced run: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			for _, m := range endToEnd {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit || !(got.Value > 0) {
					t.Errorf("end-to-end metric %s = %+v, want a positive value in %s", m.name, got, m.unit)
				}
			}

			cfg.trace = true
			res, err = run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("traced run: correct=%v failed=%d", res.Correct, res.Failed)
			}
			if len(res.Metrics) != len(perLayer) {
				t.Errorf("traced run printed %d metrics, want %d", len(res.Metrics), len(perLayer))
			}
			v := func(n string) float64 { return res.Metrics[n].Value }
			if v("fleet.study_ms") == 0 {
				t.Error("fleet.study_ms is 0 on a computing workload")
			}
			switch name {
			case "study-exact":
				if v("compare.calls_per_op") == 0 {
					t.Error("compare.calls_per_op is 0 on study-exact")
				}
			case "grid-write":
				if v("compare.calls_per_op") != 0 {
					t.Error("grid-write made bootstrap comparisons")
				}
				if v("grid.remote_ratio") != 1 || v("grid.retries_per_op") != 0 {
					t.Errorf("grid dispatch: remote_ratio=%v retries_per_op=%v, want 1 and 0",
						v("grid.remote_ratio"), v("grid.retries_per_op"))
				}
				if v("wal.appends_per_op") == 0 {
					t.Error("grid-write made no WAL appends")
				}
				if v("fleet.handler_us") == 0 || v("fleet.handler_allocs_per_op") == 0 {
					t.Errorf("handler probe: fleet.handler_us=%v fleet.handler_allocs_per_op=%v, want both positive",
						v("fleet.handler_us"), v("fleet.handler_allocs_per_op"))
				}
			}
			if name != "grid-write" && v("grid.attempt_ms") != 0 {
				t.Errorf("grid.attempt_ms = %v outside grid-write", v("grid.attempt_ms"))
			}
		})
	}
}
