package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"turbo/internal/tensor"
)

func TestConfuseCounts(t *testing.T) {
	scores := []float64{0.9, 0.8, 0.2, 0.1}
	labels := []bool{true, false, true, false}
	c := Confuse(scores, labels, 0.5)
	if c.TP != 1 || c.FP != 1 || c.FN != 1 || c.TN != 1 {
		t.Fatalf("confusion %+v", c)
	}
}

func TestPrecisionRecallEdgeCases(t *testing.T) {
	var c Confusion
	if c.Precision() != 0 || c.Recall() != 0 || c.F1() != 0 || c.Accuracy() != 0 {
		t.Fatal("empty confusion should be all zeros")
	}
	c = Confusion{TP: 5, FP: 0, FN: 0, TN: 5}
	if c.Precision() != 1 || c.Recall() != 1 || c.F1() != 1 {
		t.Fatal("perfect classifier metrics wrong")
	}
}

func TestFBetaWeighting(t *testing.T) {
	c := Confusion{TP: 50, FP: 50, FN: 0} // P=0.5, R=1
	f1 := c.F1()
	f2 := c.F2()
	want1 := 2 * 0.5 * 1 / (0.5 + 1)
	want2 := 5 * 0.5 * 1 / (4*0.5 + 1)
	if math.Abs(f1-want1) > 1e-12 || math.Abs(f2-want2) > 1e-12 {
		t.Fatalf("f1=%v f2=%v want %v %v", f1, f2, want1, want2)
	}
	if f2 <= f1 {
		t.Fatal("F2 must exceed F1 when recall > precision")
	}
}

func TestAUCPerfectWorstRandom(t *testing.T) {
	labels := []bool{true, true, false, false}
	if auc := AUC([]float64{0.9, 0.8, 0.2, 0.1}, labels); auc != 1 {
		t.Fatalf("perfect AUC %v", auc)
	}
	if auc := AUC([]float64{0.1, 0.2, 0.8, 0.9}, labels); auc != 0 {
		t.Fatalf("inverted AUC %v", auc)
	}
	if auc := AUC([]float64{0.5, 0.5, 0.5, 0.5}, labels); auc != 0.5 {
		t.Fatalf("constant-score AUC %v (ties should average)", auc)
	}
}

func TestAUCSingleClass(t *testing.T) {
	if auc := AUC([]float64{0.1, 0.9}, []bool{true, true}); auc != 0.5 {
		t.Fatalf("single-class AUC %v", auc)
	}
}

func TestAUCKnownMixedValue(t *testing.T) {
	// pos scores {0.8, 0.4}, neg scores {0.6, 0.2}:
	// pairs won: (0.8>0.6),(0.8>0.2),(0.4>0.2) = 3 of 4 → 0.75.
	auc := AUC([]float64{0.8, 0.6, 0.4, 0.2}, []bool{true, false, true, false})
	if math.Abs(auc-0.75) > 1e-12 {
		t.Fatalf("AUC %v want 0.75", auc)
	}
}

// TestAUCMonotoneInvariance: AUC is a rank statistic, so any strictly
// increasing transform of the scores must not change it.
func TestAUCMonotoneInvariance(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed | 1)
		n := 3 + rng.Intn(30)
		scores := make([]float64, n)
		trans := make([]float64, n)
		labels := make([]bool, n)
		for i := range scores {
			scores[i] = rng.NormFloat64()
			trans[i] = math.Exp(scores[i]) + 5 // strictly increasing
			labels[i] = rng.Float64() < 0.4
		}
		return math.Abs(AUC(scores, labels)-AUC(trans, labels)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestEvaluateReport(t *testing.T) {
	r := Evaluate([]float64{0.9, 0.1}, []bool{true, false}, 0.5)
	if r.Precision != 1 || r.Recall != 1 || r.AUC != 1 {
		t.Fatalf("report %+v", r)
	}
	if r.String() == "" {
		t.Fatal("empty report string")
	}
}

func TestMeanAndVariance(t *testing.T) {
	rs := []Report{{AUC: 0.8}, {AUC: 0.9}}
	if m := Mean(rs); math.Abs(m.AUC-0.85) > 1e-12 {
		t.Fatalf("mean AUC %v", m.AUC)
	}
	v := AUCVariance(rs)
	if math.Abs(v-0.005) > 1e-12 {
		t.Fatalf("variance %v want 0.005", v)
	}
	if AUCVariance(rs[:1]) != 0 {
		t.Fatal("single-run variance should be 0")
	}
	if Mean(nil).AUC != 0 {
		t.Fatal("empty mean should be zero")
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	xs := []float64{1, 3}
	if Variance(xs) != 2 {
		t.Fatalf("variance %v", Variance(xs))
	}
	if math.Abs(StdDev(xs)-math.Sqrt2) > 1e-12 {
		t.Fatalf("stddev %v", StdDev(xs))
	}
	if Variance([]float64{5}) != 0 {
		t.Fatal("single-element variance should be 0")
	}
}

func TestConfuseLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Confuse([]float64{1}, []bool{true, false}, 0.5)
}

func TestRecallAtPrecision(t *testing.T) {
	// Scores descending: 0.9(+) 0.8(+) 0.7(-) 0.6(+) 0.5(-).
	scores := []float64{0.9, 0.8, 0.7, 0.6, 0.5}
	labels := []bool{true, true, false, true, false}
	// At the top-2 cut precision is 1.0, recall 2/3; at top-4 precision
	// is 0.75, recall 1.0.
	if got := RecallAtPrecision(scores, labels, 1.0); math.Abs(got-2.0/3.0) > 1e-12 {
		t.Fatalf("recall@p1.0 = %v, want 2/3", got)
	}
	if got := RecallAtPrecision(scores, labels, 0.75); got != 1.0 {
		t.Fatalf("recall@p0.75 = %v, want 1", got)
	}
	// Unreachable floor: no threshold has precision > 1.
	if got := RecallAtPrecision([]float64{0.9, 0.1}, []bool{false, true}, 0.9); got != 0 {
		t.Fatalf("recall at unreachable floor = %v, want 0", got)
	}
	// Ties are kept together: both 0.5s enter the cut at once.
	if got := RecallAtPrecision([]float64{0.5, 0.5}, []bool{true, false}, 0.6); got != 0 {
		t.Fatalf("tied cut reported recall %v at precision 0.5 < 0.6", got)
	}
	// Degenerate inputs.
	if got := RecallAtPrecision(nil, nil, 0.5); got != 0 {
		t.Fatalf("empty input recall %v", got)
	}
}
