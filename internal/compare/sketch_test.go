package compare

import (
	"testing"

	"relperf/internal/stats"
	"relperf/internal/xrand"
)

// sketchOf streams n draws of m·LogNormal(0, sigma) into a fresh sketch.
func sketchOf(t *testing.T, k, n int, seed uint64, m, sigma float64) *stats.Sketch {
	t.Helper()
	sk, err := stats.NewSketch(k, seed)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(seed)
	for i := 0; i < n; i++ {
		sk.Add(m * rng.LogNormal(0, sigma))
	}
	return sk
}

func TestSketchComparatorSeparated(t *testing.T) {
	fast := sketchOf(t, 256, 5000, 1, 1.0, 0.05)
	slow := sketchOf(t, 256, 5000, 2, 2.0, 0.05)
	var c SketchComparator
	got, err := c.CompareSketches(fast, slow)
	if err != nil {
		t.Fatal(err)
	}
	if got != Better {
		t.Fatalf("fast vs slow = %v", got)
	}
	if got, _ = c.CompareSketches(slow, fast); got != Worse {
		t.Fatalf("slow vs fast = %v", got)
	}
}

func TestSketchComparatorEquivalent(t *testing.T) {
	a := sketchOf(t, 256, 5000, 3, 1.0, 0.1)
	b := sketchOf(t, 256, 5000, 4, 1.0, 0.1)
	var c SketchComparator
	got, err := c.CompareSketches(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got != Equivalent {
		t.Fatalf("same distribution = %v", got)
	}
}

func TestSketchComparatorSelf(t *testing.T) {
	a := sketchOf(t, 128, 2000, 5, 1.0, 0.2)
	var c SketchComparator
	got, err := c.CompareSketches(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if got != Equivalent {
		t.Fatalf("self-compare = %v, ties must land in the band", got)
	}
}

func TestSketchComparatorBadInput(t *testing.T) {
	a := sketchOf(t, 128, 100, 6, 1.0, 0.1)
	empty, _ := stats.NewSketch(128, 0)
	var c SketchComparator
	cases := []struct{ a, b *stats.Sketch }{
		{nil, a}, {a, nil}, {empty, a}, {a, empty},
	}
	for i, tc := range cases {
		if _, err := c.CompareSketches(tc.a, tc.b); err != ErrBadSample {
			t.Errorf("case %d: err = %v, want ErrBadSample", i, err)
		}
	}
	if _, err := c.Compare(nil, []float64{1}); err != ErrBadSample {
		t.Errorf("empty raw sample: err = %v, want ErrBadSample", err)
	}
}

// TestSketchComparatorMatchesExact checks that Compare (the Comparator
// interface over raw samples) and CompareSketches agree when the sketch is
// still exact (n <= k): both are the same quantile vote then.
func TestSketchComparatorMatchesExact(t *testing.T) {
	rng := xrand.New(7)
	a := sample(rng, 200, 1.0, 0.3)
	b := sample(rng, 200, 1.3, 0.3)
	ska, _ := stats.NewSketch(256, 1)
	skb, _ := stats.NewSketch(256, 2)
	for _, v := range a {
		ska.Add(v)
	}
	for _, v := range b {
		skb.Add(v)
	}
	var c SketchComparator
	exact, err := c.Compare(a, b)
	if err != nil {
		t.Fatal(err)
	}
	sketched, err := c.CompareSketches(ska, skb)
	if err != nil {
		t.Fatal(err)
	}
	if exact != sketched {
		t.Fatalf("exact vote %v != sketch vote %v for n <= k", exact, sketched)
	}
}

func TestSketchComparatorFork(t *testing.T) {
	c := SketchComparator{Quantiles: []float64{0.5}, Margin: 0.1}
	f, ok := c.Fork(42).(SketchComparator)
	if !ok {
		t.Fatal("Fork changed comparator type")
	}
	if len(f.Quantiles) != 1 || f.Quantiles[0] != 0.5 || f.Margin != 0.1 {
		t.Fatalf("Fork altered configuration: %+v", f)
	}
}

func TestSketchComparatorDeterministic(t *testing.T) {
	a := sketchOf(t, 256, 3000, 8, 1.0, 0.4)
	b := sketchOf(t, 256, 3000, 9, 1.1, 0.4)
	var c SketchComparator
	first, err := c.CompareSketches(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		got, err := c.CompareSketches(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if got != first {
			t.Fatalf("repeat %d: outcome drifted from %v to %v", i, first, got)
		}
	}
}
