package compare

import (
	"testing"

	"relperf/internal/xrand"
)

// sample draws n log-normal "execution times" centered at median m.
func sample(rng *xrand.Rand, n int, m, sigma float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = m * rng.LogNormal(0, sigma)
	}
	return out
}

func TestOutcomeString(t *testing.T) {
	if Better.String() != "better" || Worse.String() != "worse" || Equivalent.String() != "equivalent" {
		t.Fatal("Outcome strings wrong")
	}
	if Outcome(7).String() != "Outcome(7)" {
		t.Fatal("unknown outcome string wrong")
	}
}

func TestOutcomeFlip(t *testing.T) {
	if Better.Flip() != Worse || Worse.Flip() != Better || Equivalent.Flip() != Equivalent {
		t.Fatal("Flip wrong")
	}
}

func TestBootstrapSeparated(t *testing.T) {
	rng := xrand.New(1)
	fast := sample(rng, 50, 1.0, 0.05)
	slow := sample(rng, 50, 2.0, 0.05)
	c := NewBootstrap(2)
	got, err := c.Compare(fast, slow)
	if err != nil {
		t.Fatal(err)
	}
	if got != Better {
		t.Fatalf("fast vs slow = %v", got)
	}
	got, _ = c.Compare(slow, fast)
	if got != Worse {
		t.Fatalf("slow vs fast = %v", got)
	}
}

func TestBootstrapEquivalent(t *testing.T) {
	rng := xrand.New(3)
	a := sample(rng, 50, 1.0, 0.1)
	b := sample(rng, 50, 1.0, 0.1)
	c := NewBootstrap(4)
	got, err := c.Compare(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got != Equivalent {
		t.Fatalf("same-median samples = %v", got)
	}
}

func TestBootstrapSelfEquivalent(t *testing.T) {
	rng := xrand.New(5)
	a := sample(rng, 30, 1.0, 0.2)
	c := NewBootstrap(6)
	got, err := c.Compare(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if got != Equivalent {
		t.Fatalf("self comparison = %v", got)
	}
	r, _ := c.WinRate(a, a)
	if r < 0.4 || r > 0.6 {
		t.Fatalf("self win rate = %v, want ~0.5", r)
	}
}

func TestBootstrapAntisymmetry(t *testing.T) {
	// For strongly separated samples, Compare(a,b) must be the flip of
	// Compare(b,a). (Near the threshold stochastic flips are legitimate,
	// so only the separated case is asserted.)
	rng := xrand.New(7)
	for trial := 0; trial < 20; trial++ {
		a := sample(rng, 40, 1.0, 0.05)
		b := sample(rng, 40, 1.5, 0.05)
		c := NewBootstrap(uint64(100 + trial))
		ab, err := c.Compare(a, b)
		if err != nil {
			t.Fatal(err)
		}
		ba, _ := c.Compare(b, a)
		if ab != ba.Flip() {
			t.Fatalf("trial %d: Compare(a,b)=%v but Compare(b,a)=%v", trial, ab, ba)
		}
	}
}

func TestBootstrapStochasticNearThreshold(t *testing.T) {
	// Two distributions one noise-width apart at N=30: repeated comparison
	// of the SAME samples must sometimes say Better and sometimes
	// Equivalent — the paper's "once in every three comparisons" effect.
	// At N=30 the realized gap between two sample sets varies pair to pair,
	// so scan pairs until one lands near the decision threshold; that pair
	// must produce mixed outcomes under repeated comparison of the SAME
	// measurements.
	rng := xrand.New(9)
	c := NewBootstrap(10)
	foundMixed := false
	for trial := 0; trial < 50 && !foundMixed; trial++ {
		a := sample(rng, 30, 1.000, 0.06)
		b := sample(rng, 30, 1.015, 0.06)
		counts := map[Outcome]int{}
		for i := 0; i < 50; i++ {
			o, err := c.Compare(a, b)
			if err != nil {
				t.Fatal(err)
			}
			counts[o]++
		}
		if counts[Worse] > counts[Better] && counts[Worse] > 25 {
			t.Fatalf("direction strongly inverted: %v", counts)
		}
		if len(counts) >= 2 {
			foundMixed = true
		}
	}
	if !foundMixed {
		t.Fatal("no sample pair produced mixed outcomes; comparator not stochastic near threshold")
	}
}

func TestBootstrapEmptySample(t *testing.T) {
	c := NewBootstrap(1)
	if _, err := c.Compare(nil, []float64{1}); err != ErrBadSample {
		t.Fatal("empty a accepted")
	}
	if _, err := c.Compare([]float64{1}, nil); err != ErrBadSample {
		t.Fatal("empty b accepted")
	}
}

func TestBootstrapDefaultsApplied(t *testing.T) {
	// Zero-valued config fields fall back to defaults rather than
	// dividing by zero.
	c := &Bootstrap{}
	cFromSeed := NewBootstrapFrom(xrand.New(3))
	c.rng = cFromSeed.rng
	c.Rounds = 0
	c.Margin = 0
	c.Quantiles = nil
	a := []float64{1, 1, 1}
	b := []float64{5, 5, 5}
	o, err := c.Compare(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if o != Better {
		t.Fatalf("constant separated = %v", o)
	}
}

func TestBootstrapConstantSamples(t *testing.T) {
	c := NewBootstrap(11)
	same := []float64{2, 2, 2, 2}
	o, err := c.Compare(same, same)
	if err != nil {
		t.Fatal(err)
	}
	if o != Equivalent {
		t.Fatalf("identical constants = %v", o)
	}
	r, _ := c.WinRate(same, same)
	if r != 0.5 {
		t.Fatalf("tie win rate = %v, want exactly 0.5 via half-credit", r)
	}
}

func TestBootstrapSingleElement(t *testing.T) {
	c := NewBootstrap(12)
	o, err := c.Compare([]float64{1}, []float64{2})
	if err != nil {
		t.Fatal(err)
	}
	if o != Better {
		t.Fatalf("1 vs 2 = %v", o)
	}
}

func TestKSComparator(t *testing.T) {
	rng := xrand.New(13)
	fast := sample(rng, 100, 1.0, 0.05)
	slow := sample(rng, 100, 1.5, 0.05)
	c := KS{}
	if o, err := c.Compare(fast, slow); err != nil || o != Better {
		t.Fatalf("KS fast vs slow = %v, %v", o, err)
	}
	if o, _ := c.Compare(slow, fast); o != Worse {
		t.Fatalf("KS slow vs fast = %v", o)
	}
	if o, _ := c.Compare(fast, fast); o != Equivalent {
		t.Fatalf("KS self = %v", o)
	}
	if _, err := c.Compare(nil, fast); err != ErrBadSample {
		t.Fatal("KS empty accepted")
	}
}

func TestKSDeterministic(t *testing.T) {
	rng := xrand.New(14)
	a := sample(rng, 30, 1.0, 0.1)
	b := sample(rng, 30, 1.08, 0.1)
	c := KS{}
	first, _ := c.Compare(a, b)
	for i := 0; i < 20; i++ {
		if o, _ := c.Compare(a, b); o != first {
			t.Fatal("KS comparator must be deterministic")
		}
	}
}

func TestMannWhitneyComparator(t *testing.T) {
	rng := xrand.New(15)
	fast := sample(rng, 60, 1.0, 0.05)
	slow := sample(rng, 60, 1.4, 0.05)
	c := MannWhitney{}
	if o, err := c.Compare(fast, slow); err != nil || o != Better {
		t.Fatalf("MW fast vs slow = %v, %v", o, err)
	}
	if o, _ := c.Compare(slow, fast); o != Worse {
		t.Fatalf("MW slow vs fast = %v", o)
	}
	if o, _ := c.Compare(fast, fast); o != Equivalent {
		t.Fatalf("MW self = %v", o)
	}
	if _, err := c.Compare(fast, nil); err != ErrBadSample {
		t.Fatal("MW empty accepted")
	}
}

func TestMeanThresholdComparator(t *testing.T) {
	c := MeanThreshold{RelTol: 0.05}
	a := []float64{1, 1, 1}
	b := []float64{1.01, 1.01, 1.01}
	if o, err := c.Compare(a, b); err != nil || o != Equivalent {
		t.Fatalf("1%% apart = %v, %v", o, err)
	}
	slow := []float64{2, 2, 2}
	if o, _ := c.Compare(a, slow); o != Better {
		t.Fatalf("2x apart = %v", o)
	}
	if o, _ := c.Compare(slow, a); o != Worse {
		t.Fatalf("2x apart flipped = %v", o)
	}
	if _, err := c.Compare(nil, a); err != ErrBadSample {
		t.Fatal("mean empty accepted")
	}
}

func TestFuncAdapter(t *testing.T) {
	called := false
	f := Func(func(a, b []float64) (Outcome, error) {
		called = true
		return Better, nil
	})
	o, err := f.Compare(nil, nil)
	if err != nil || o != Better || !called {
		t.Fatal("Func adapter broken")
	}
	// A Func forks to itself: the fork calls the same function.
	called = false
	if o, err := f.Fork(9).Compare(nil, nil); err != nil || o != Better || !called {
		t.Fatal("Func fork does not call the wrapped function")
	}
}

func TestComparatorsAgreeOnObviousCases(t *testing.T) {
	// All comparators must agree when distributions are far apart.
	rng := xrand.New(16)
	fast := sample(rng, 50, 1.0, 0.03)
	slow := sample(rng, 50, 3.0, 0.03)
	comparators := []Comparator{NewBootstrap(17), KS{}, MannWhitney{}, MeanThreshold{}}
	for i, c := range comparators {
		o, err := c.Compare(fast, slow)
		if err != nil {
			t.Fatalf("comparator %d: %v", i, err)
		}
		if o != Better {
			t.Fatalf("comparator %d says %v for obvious case", i, o)
		}
	}
}

func BenchmarkBootstrapCompareN30(b *testing.B) {
	rng := xrand.New(1)
	x := sample(rng, 30, 1.0, 0.05)
	y := sample(rng, 30, 1.05, 0.05)
	c := NewBootstrap(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Compare(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBootstrapCompareN500(b *testing.B) {
	rng := xrand.New(1)
	x := sample(rng, 500, 1.0, 0.05)
	y := sample(rng, 500, 1.05, 0.05)
	c := NewBootstrap(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Compare(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func TestBootstrapCompareZeroAllocs(t *testing.T) {
	rng := xrand.New(17)
	a := sample(rng, 30, 1.0, 0.1)
	b := sample(rng, 30, 1.2, 0.1)
	c := NewBootstrap(18)
	// Warm the scratch buffers once, then Compare must not allocate.
	if _, err := c.Compare(a, b); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := c.Compare(a, b); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Compare allocates %v times per op after warm-up, want 0", allocs)
	}
}

func TestBootstrapForkDeterministic(t *testing.T) {
	rng := xrand.New(19)
	a := sample(rng, 30, 1.0, 0.1)
	b := sample(rng, 30, 1.05, 0.1)
	proto := NewBootstrap(0)
	proto.Rounds = 40
	// Equal fork seeds reproduce the exact win-rate sequence; the parent
	// is untouched by fork usage.
	f1 := proto.Fork(7).(*Bootstrap)
	f2 := proto.Fork(7).(*Bootstrap)
	if f1.Rounds != proto.Rounds {
		t.Fatal("fork did not inherit parameters")
	}
	for i := 0; i < 5; i++ {
		r1, err := f1.WinRate(a, b)
		if err != nil {
			t.Fatal(err)
		}
		r2, _ := f2.WinRate(a, b)
		if r1 != r2 {
			t.Fatalf("fork streams diverge at call %d: %v vs %v", i, r1, r2)
		}
	}
	// Different seeds give different streams.
	r1, _ := proto.Fork(1).(*Bootstrap).WinRate(a, b)
	r3, _ := proto.Fork(2).(*Bootstrap).WinRate(a, b)
	if r1 == r3 {
		t.Fatal("distinct fork seeds produced identical win rates (suspicious)")
	}
}

func TestDeterministicForkersReturnSelf(t *testing.T) {
	for _, c := range []Forker{KS{}, MannWhitney{}, MeanThreshold{}} {
		if c.Fork(123) != c.(Comparator) {
			t.Fatalf("%T fork is not itself", c)
		}
	}
}
