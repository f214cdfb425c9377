package eval

import (
	"fmt"
	"strings"
	"time"

	"turbo/internal/core"
	"turbo/internal/datagen"
	"turbo/internal/telemetry"
	"turbo/internal/tensor"
)

// ABTestResult reports the §VI-E online A/B simulation: the test group is
// "Turbo on top of the front risk system", the baseline group is the
// front risk system alone, and the headline number is the relative drop
// in fraud ratio among applications that pass.
type ABTestResult struct {
	Applications  int
	FrontRejected int // rejected by the front scorecard (both groups)

	BaselineFraudRatio float64
	TestFraudRatio     float64
	FraudRatioDrop     float64 // 1 − test/baseline

	Blocked         int
	OnlinePrecision float64
	OnlineRecall    float64

	Latency telemetry.Summary
}

// String renders the result like §VI-E.
func (r ABTestResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Online A/B test — %d live applications (%d rejected by front system)\n",
		r.Applications, r.FrontRejected)
	fmt.Fprintf(&b, "baseline fraud ratio %.2f%%, test group %.2f%% → drop %.2f%%\n",
		100*r.BaselineFraudRatio, 100*r.TestFraudRatio, 100*r.FraudRatioDrop)
	fmt.Fprintf(&b, "Turbo blocked %d applications: online precision %.1f%%, recall %.1f%%\n",
		r.Blocked, 100*r.OnlinePrecision, 100*r.OnlineRecall)
	fmt.Fprintf(&b, "audit latency: %v\n", r.Latency)
	return b.String()
}

// RunABTest trains HAG on a historical world, then replays a fresh live
// world through a full core.System (ingest → scheduled BN jobs → audit
// at application time + 24 h) with the deployment threshold of 0.85.
func RunABTest(histCfg datagen.Config, h Hyper, seed uint64) ABTestResult {
	h = h.withDefaults()
	hist := Assemble(histCfg, AssembleOptions{SplitSeed: seed})
	model, _ := TrainHAG(hist, HAGFull, h, seed)

	// A live month with a different seed: same world dynamics, new users.
	liveCfg := histCfg
	liveCfg.Seed = histCfg.Seed*7919 + 17
	liveCfg.Users = histCfg.Users / 4
	live := datagen.Generate(liveCfg)

	sys, err := core.New(core.Config{Threshold: 0.85}, live.Start)
	if err != nil {
		panic(err)
	}
	sys.SetModel(model, hist.Norm.Apply)
	sys.IngestBatch(live.Logs)
	for i := range live.Users {
		u := &live.Users[i]
		if err := sys.RegisterApplication(u.ID, u.Features()); err != nil {
			panic(err)
		}
	}
	sys.Advance(live.End.Add(48 * time.Hour))

	// Front risk system: a conservative scorecard trained on history; it
	// rejects overtly risky applications in both groups.
	front := trainFrontScorecard(hist)

	var res ABTestResult
	var passBase, fraudBase, passTest, fraudTest int
	var tp, fp, fn int
	for i := range live.Users {
		u := &live.Users[i]
		res.Applications++
		if front(hist.Norm.Apply(rawVector(sys, u))) >= 0.9 {
			res.FrontRejected++
			continue
		}
		passBase++
		if u.Fraud {
			fraudBase++
		}
		pred, err := sys.Audit(u.ID, u.AppTime.Add(24*time.Hour))
		if err != nil {
			panic(err)
		}
		if pred.Fraud {
			res.Blocked++
			if u.Fraud {
				tp++
			} else {
				fp++
			}
			continue // blocked by Turbo: not in the test group
		}
		if u.Fraud {
			fn++
		}
		passTest++
		if u.Fraud {
			fraudTest++
		}
	}
	if passBase > 0 {
		res.BaselineFraudRatio = float64(fraudBase) / float64(passBase)
	}
	if passTest > 0 {
		res.TestFraudRatio = float64(fraudTest) / float64(passTest)
	}
	if res.BaselineFraudRatio > 0 {
		res.FraudRatioDrop = 1 - res.TestFraudRatio/res.BaselineFraudRatio
	}
	if tp+fp > 0 {
		res.OnlinePrecision = float64(tp) / float64(tp+fp)
	}
	if tp+fn > 0 {
		res.OnlineRecall = float64(tp) / float64(tp+fn)
	}
	res.Latency = sys.PredictionServer().LatencySummaries()["total"]
	return res
}

// rawVector fetches the live system's raw feature vector for a user.
func rawVector(sys *core.System, u *datagen.User) []float64 {
	vec, err := sys.Features().Vector(u.ID, u.AppTime.Add(24*time.Hour))
	if err != nil {
		panic(err)
	}
	return vec
}

// trainFrontScorecard fits the stand-in for Jimi's original rule-based
// risk system: an unbalanced logistic scorecard over history features.
func trainFrontScorecard(hist *Assembled) func(vec []float64) float64 {
	lr := &logisticScore{}
	lr.fit(hist)
	return lr.score
}

// logisticScore is a minimal logistic scorer over standardized features.
type logisticScore struct {
	w []float64
	b float64
}

func (l *logisticScore) fit(a *Assembled) {
	x := a.FeatureRows(a.TrainIdx)
	y := a.LabelsAt(a.TrainIdx)
	l.w = make([]float64, x.Cols)
	for epoch := 0; epoch < 200; epoch++ {
		gw := make([]float64, x.Cols)
		gb := 0.0
		for i := 0; i < x.Rows; i++ {
			row := x.Row(i)
			p := tensor.SigmoidScalar(l.b + tensor.Dot(l.w, row))
			d := p - y[i]
			for j, v := range row {
				gw[j] += d * v
			}
			gb += d
		}
		n := float64(x.Rows)
		for j := range l.w {
			l.w[j] -= 0.1 * gw[j] / n
		}
		l.b -= 0.1 * gb / n
	}
}

func (l *logisticScore) score(vec []float64) float64 {
	return tensor.SigmoidScalar(l.b + tensor.Dot(l.w, vec))
}
