package workload

import (
	"testing"

	"relperf/internal/compare"
	"relperf/internal/core"
)

func TestRLSVariantsList(t *testing.T) {
	vs := RLSVariants()
	if len(vs) != 3 {
		t.Fatalf("want 3 variants, got %d", len(vs))
	}
	names := map[string]bool{}
	for _, v := range vs {
		if v.Solve == nil || v.Flops == nil || v.Name == "" {
			t.Fatalf("incomplete variant %+v", v)
		}
		names[v.Name] = true
		if v.Flops(64) <= 0 {
			t.Fatalf("%s: non-positive flop estimate", v.Name)
		}
	}
	if len(names) != 3 {
		t.Fatal("duplicate variant names")
	}
}

func TestVariantFlopOrdering(t *testing.T) {
	// The QR route costs more flops than the Cholesky route; the explicit
	// inverse costs more than Cholesky too (full LU inverse + extra GEMM).
	vs := RLSVariants()
	byName := map[string]KernelVariant{}
	for _, v := range vs {
		byName[v.Name] = v
	}
	for _, s := range []int{32, 64, 128} {
		chol := byName["rls-cholesky"].Flops(s)
		qr := byName["rls-qr"].Flops(s)
		inv := byName["rls-inverse"].Flops(s)
		if qr <= chol {
			t.Fatalf("size %d: QR flops %d <= Cholesky %d", s, qr, chol)
		}
		if inv <= chol {
			t.Fatalf("size %d: inverse flops %d <= Cholesky %d", s, inv, chol)
		}
	}
}

func TestVerifyVariantsAgree(t *testing.T) {
	diff, err := VerifyVariantsAgree(24, 0.5, 7)
	if err != nil {
		t.Fatal(err)
	}
	if diff > 1e-8 {
		t.Fatalf("variants disagree by %v", diff)
	}
}

func TestMeasureKernelVariants(t *testing.T) {
	ss, err := MeasureKernelVariants(KernelStudyConfig{
		Size: 24, Iters: 2, N: 8, Warmup: 1, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ss.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(ss.Samples) != 3 {
		t.Fatalf("samples = %d", len(ss.Samples))
	}
	for _, s := range ss.Samples {
		if s.N() != 8 {
			t.Fatalf("%s: N = %d", s.Name, s.N())
		}
	}
}

func TestKernelVariantDefaults(t *testing.T) {
	var cfg KernelStudyConfig
	cfg.defaults()
	if cfg.Size != 64 || cfg.Iters != 3 || cfg.N != 30 || cfg.Warmup != 2 || cfg.Lambda != 0.5 {
		t.Fatalf("defaults = %+v", cfg)
	}
}

// TestKernelVariantClusteringShape is the §V experiment end to end on real
// measured host times: the Cholesky route must never cluster below the QR
// route, and the explicit-inverse baseline must never beat Cholesky.
func TestKernelVariantClusteringShape(t *testing.T) {
	if testing.Short() {
		t.Skip("measures real kernel executions")
	}
	ss, err := MeasureKernelVariants(KernelStudyConfig{
		Size: 48, Iters: 2, N: 20, Warmup: 2, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	data := ss.Data()
	fork := func(seed uint64) core.CompareFunc {
		cmp := compare.NewBootstrap(0).Fork(seed)
		return func(i, j int) (compare.Outcome, error) { return cmp.Compare(data[i], data[j]) }
	}
	cr, err := core.Cluster(len(data), core.ClusterOptions{Reps: 50, Seed: 17, Fork: fork})
	if err != nil {
		t.Fatal(err)
	}
	fa, err := cr.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	rank := map[string]int{}
	for i, name := range ss.Names() {
		rank[name] = fa.Rank[i]
	}
	if rank["rls-cholesky"] > rank["rls-qr"] {
		t.Fatalf("Cholesky route (C%d) clustered below QR route (C%d)",
			rank["rls-cholesky"], rank["rls-qr"])
	}
	if rank["rls-inverse"] < rank["rls-cholesky"] {
		t.Fatalf("explicit inverse (C%d) beat Cholesky (C%d)",
			rank["rls-inverse"], rank["rls-cholesky"])
	}
}
