// Package metrics implements the evaluation metrics of §VI (precision,
// recall, F-beta, ROC AUC, run variance). Serving latencies and counters
// live in internal/telemetry.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Confusion is a binary confusion matrix at a fixed threshold.
type Confusion struct {
	TP, FP, TN, FN int
}

// Confuse thresholds scores at thresh and counts outcomes against labels.
func Confuse(scores []float64, labels []bool, thresh float64) Confusion {
	if len(scores) != len(labels) {
		panic("metrics: scores/labels length mismatch")
	}
	var c Confusion
	for i, s := range scores {
		pred := s >= thresh
		switch {
		case pred && labels[i]:
			c.TP++
		case pred && !labels[i]:
			c.FP++
		case !pred && labels[i]:
			c.FN++
		default:
			c.TN++
		}
	}
	return c
}

// Precision returns TP/(TP+FP), or 0 when nothing was predicted positive.
func (c Confusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall returns TP/(TP+FN), or 0 when there are no positives.
func (c Confusion) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// FBeta returns the weighted harmonic mean of precision and recall;
// beta=1 is F1, beta=2 weighs recall twice as much as precision (the F2
// of Table III).
func (c Confusion) FBeta(beta float64) float64 {
	p, r := c.Precision(), c.Recall()
	if p == 0 && r == 0 {
		return 0
	}
	b2 := beta * beta
	return (1 + b2) * p * r / (b2*p + r)
}

// F1 is FBeta(1).
func (c Confusion) F1() float64 { return c.FBeta(1) }

// F2 is FBeta(2).
func (c Confusion) F2() float64 { return c.FBeta(2) }

// Accuracy returns (TP+TN)/total.
func (c Confusion) Accuracy() float64 {
	total := c.TP + c.FP + c.TN + c.FN
	if total == 0 {
		return 0
	}
	return float64(c.TP+c.TN) / float64(total)
}

// AUC computes the area under the ROC curve via the rank statistic
// (equivalent to the Mann–Whitney U), handling score ties by assigning
// average ranks. It returns 0.5 when either class is empty.
func AUC(scores []float64, labels []bool) float64 {
	if len(scores) != len(labels) {
		panic("metrics: scores/labels length mismatch")
	}
	n := len(scores)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return scores[idx[a]] < scores[idx[b]] })
	var rankSumPos float64
	var nPos, nNeg int
	for i := 0; i < n; {
		j := i
		for j < n && scores[idx[j]] == scores[idx[i]] {
			j++
		}
		avgRank := float64(i+j+1) / 2 // average of 1-based ranks i+1..j
		for k := i; k < j; k++ {
			if labels[idx[k]] {
				rankSumPos += avgRank
				nPos++
			} else {
				nNeg++
			}
		}
		i = j
	}
	if nPos == 0 || nNeg == 0 {
		return 0.5
	}
	u := rankSumPos - float64(nPos)*float64(nPos+1)/2
	return u / (float64(nPos) * float64(nNeg))
}

// RecallAtPrecision returns the highest recall achievable by any score
// threshold whose precision is at least floor — the model-gate quality
// criterion for deposit-free leasing, where a precision floor bounds how
// many legitimate users may be challenged. Thresholds are evaluated at
// distinct score boundaries (ties are kept together). Returns 0 when no
// threshold reaches the floor or either class is empty.
func RecallAtPrecision(scores []float64, labels []bool, floor float64) float64 {
	if len(scores) != len(labels) {
		panic("metrics: scores/labels length mismatch")
	}
	n := len(scores)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })
	var nPos int
	for _, l := range labels {
		if l {
			nPos++
		}
	}
	if nPos == 0 {
		return 0
	}
	var best float64
	var tp, fp int
	for i := 0; i < n; {
		j := i
		for j < n && scores[idx[j]] == scores[idx[i]] {
			j++
		}
		for k := i; k < j; k++ {
			if labels[idx[k]] {
				tp++
			} else {
				fp++
			}
		}
		if prec := float64(tp) / float64(tp+fp); prec >= floor {
			if rec := float64(tp) / float64(nPos); rec > best {
				best = rec
			}
		}
		i = j
	}
	return best
}

// Report bundles the Table III columns for one method run.
type Report struct {
	Precision float64
	Recall    float64
	F1        float64
	F2        float64
	AUC       float64
}

// Evaluate computes a Report at the given threshold.
func Evaluate(scores []float64, labels []bool, thresh float64) Report {
	c := Confuse(scores, labels, thresh)
	return Report{
		Precision: c.Precision(),
		Recall:    c.Recall(),
		F1:        c.F1(),
		F2:        c.F2(),
		AUC:       AUC(scores, labels),
	}
}

// String renders the report as Table III percentages.
func (r Report) String() string {
	return fmt.Sprintf("P=%.2f%% R=%.2f%% F1=%.2f%% F2=%.2f%% AUC=%.2f%%",
		100*r.Precision, 100*r.Recall, 100*r.F1, 100*r.F2, 100*r.AUC)
}

// Mean averages reports element-wise.
func Mean(rs []Report) Report {
	var m Report
	if len(rs) == 0 {
		return m
	}
	for _, r := range rs {
		m.Precision += r.Precision
		m.Recall += r.Recall
		m.F1 += r.F1
		m.F2 += r.F2
		m.AUC += r.AUC
	}
	n := float64(len(rs))
	m.Precision /= n
	m.Recall /= n
	m.F1 /= n
	m.F2 /= n
	m.AUC /= n
	return m
}

// AUCVariance returns the variance of the AUC across runs, the Table III
// "Variance" column (reported ×10⁴ like the paper's percent-space values).
func AUCVariance(rs []Report) float64 {
	if len(rs) < 2 {
		return 0
	}
	var mean float64
	for _, r := range rs {
		mean += r.AUC
	}
	mean /= float64(len(rs))
	var v float64
	for _, r := range rs {
		d := r.AUC - mean
		v += d * d
	}
	return v / float64(len(rs)-1)
}

// Variance returns the sample variance of xs.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	var mean float64
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	var v float64
	for _, x := range xs {
		d := x - mean
		v += d * d
	}
	return v / float64(len(xs)-1)
}

// StdDev returns the sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }
