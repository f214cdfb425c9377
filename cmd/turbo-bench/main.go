// Command turbo-bench regenerates the paper's tables and figures (see
// DESIGN.md §4 for the experiment index). Each artifact prints in a
// paper-like text layout; absolute numbers come from the synthetic
// substitute dataset, so the shapes — orderings, relative gaps,
// crossovers — are what should be compared against the paper.
//
// Usage:
//
//	turbo-bench -table 3            # Table III method comparison
//	turbo-bench -table all -quick   # all tables on the tiny dataset
//	turbo-bench -figure 4d          # Fig. 4d homophily series
//	turbo-bench -figure 8b          # scalability study
//	turbo-bench -table latency      # §V cache optimization
//	turbo-bench -table ab           # §VI-E online A/B simulation
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"turbo/internal/behavior"
	"turbo/internal/datagen"
	"turbo/internal/eval"
	"turbo/internal/graph"
	"turbo/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("turbo-bench: ")

	table := flag.String("table", "", "table to regenerate: 2, 3, 4, 5, latency, ab, all")
	figure := flag.String("figure", "", "figure to regenerate: 4ab, 4c, 4d, 4e, 4h, 4i, 5, 7, 8a, 8b, 9, all")
	quick := flag.Bool("quick", false, "use the tiny dataset and fewer epochs (fast sanity pass)")
	seeds := flag.Int("seeds", 3, "number of seeds for averaged tables")
	flag.Parse()

	if *table == "" && *figure == "" {
		flag.Usage()
		os.Exit(2)
	}

	cfg := datagen.Default()
	h := eval.DefaultHyper()
	h.Epochs = 80
	if *quick {
		cfg = datagen.Tiny()
		h.Epochs = 40
	}

	runSeeds := make([]uint64, *seeds)
	for i := range runSeeds {
		runSeeds[i] = uint64(i + 1)
	}

	var a *eval.Assembled
	assemble := func() *eval.Assembled {
		if a == nil {
			start := time.Now()
			a = eval.Assemble(cfg, eval.AssembleOptions{})
			log.Printf("assembled %q in %v: %d nodes, %d edges, %d positives",
				cfg.Name, time.Since(start), a.Graph.NumNodes(), a.Graph.NumEdges(), a.Data.Positives())
		}
		return a
	}

	switch *table {
	case "":
	case "2":
		runTable2(cfg, *quick)
	case "3":
		fmt.Println(eval.Table3(assemble(), h, runSeeds))
	case "4":
		runTable4(*quick, h, runSeeds)
	case "5":
		fmt.Println(eval.Table5(assemble(), h, runSeeds))
	case "latency":
		fmt.Println(eval.RunLatencyStudy(cfg, eval.LatencyOptions{Hyper: h}))
	case "ab":
		fmt.Println(eval.RunABTest(cfg, h, 1))
	case "all":
		runTable2(cfg, *quick)
		fmt.Println(eval.Table3(assemble(), h, runSeeds))
		runTable4(*quick, h, runSeeds)
		fmt.Println(eval.Table5(assemble(), h, runSeeds))
		fmt.Println(eval.RunLatencyStudy(cfg, eval.LatencyOptions{Hyper: h}))
		fmt.Println(eval.RunABTest(cfg, h, 1))
	default:
		log.Fatalf("unknown table %q", *table)
	}

	switch *figure {
	case "":
	case "4ab":
		runFigure4ab(assemble())
	case "4c":
		runFigure4c(assemble())
	case "4d":
		fmt.Print(renderHomophily(assemble(), -1))
	case "4e":
		for _, t := range []behavior.Type{behavior.DeviceID, behavior.IPv4, behavior.GPS100} {
			fmt.Print(renderHomophily(assemble(), int(t)))
		}
	case "4h":
		s := assemble().StructuralDifference(3, 200, false)
		fmt.Print(eval.RenderSeries("Figure 4h — mean degree of n-hop neighbors", s.Normal, s.Fraud))
	case "4i":
		s := assemble().StructuralDifference(3, 200, true)
		fmt.Print(eval.RenderSeries("Figure 4i — mean weighted degree of n-hop neighbors", s.Normal, s.Fraud))
	case "5":
		runFigure5(assemble())
	case "7":
		fmt.Print(eval.RenderFigure7(eval.Figure7(assemble(), h, 1)))
	case "8a":
		runFigure8a(assemble(), h)
	case "8b":
		scales := []int{1, 2, 4}
		if *quick {
			scales = []int{1, 2}
		}
		fmt.Print(eval.RenderScalability(eval.RunScalability(cfg, scales, h, 1)))
	case "9":
		cs := eval.RunCaseStudy(assemble(), h, 1, 6)
		fmt.Print(cs.String())
	case "all":
		runFigure4ab(assemble())
		runFigure4c(assemble())
		fmt.Print(renderHomophily(assemble(), -1))
		for _, t := range []behavior.Type{behavior.DeviceID, behavior.IPv4, behavior.GPS100} {
			fmt.Print(renderHomophily(assemble(), int(t)))
		}
		sh := assemble().StructuralDifference(3, 200, false)
		fmt.Print(eval.RenderSeries("Figure 4h — mean degree of n-hop neighbors", sh.Normal, sh.Fraud))
		si := assemble().StructuralDifference(3, 200, true)
		fmt.Print(eval.RenderSeries("Figure 4i — mean weighted degree of n-hop neighbors", si.Normal, si.Fraud))
		runFigure5(assemble())
		fmt.Print(eval.RenderFigure7(eval.Figure7(assemble(), h, 1)))
		runFigure8a(assemble(), h)
		fmt.Print(eval.RenderScalability(eval.RunScalability(cfg, []int{1, 2, 4}, h, 1)))
		cs := eval.RunCaseStudy(assemble(), h, 1, 6)
		fmt.Print(cs.String())
	default:
		log.Fatalf("unknown figure %q", *figure)
	}
}

func runTable2(cfg datagen.Config, quick bool) {
	fmt.Println("Table II — dataset statistics")
	d1 := eval.Assemble(cfg, eval.AssembleOptions{})
	st1 := d1.Graph.Stats()
	fmt.Printf("%-8s #node=%d #positive=%d #edge=%d #type=%d\n",
		cfg.Name, st1.Nodes, d1.Data.Positives(), st1.Edges, countNonZero(st1.EdgesByType))
	d2cfg := datagen.D2(cfg.Users * 2)
	if quick {
		d2cfg = datagen.D2(cfg.Users)
	}
	d2 := eval.Assemble(d2cfg, eval.AssembleOptions{})
	st2 := d2.Graph.Stats()
	fmt.Printf("%-8s #node=%d #positive=%d #edge=%d #type=%d\n\n",
		d2cfg.Name, st2.Nodes, d2.Data.Positives(), st2.Edges, countNonZero(st2.EdgesByType))
}

func runTable4(quick bool, h eval.Hyper, seeds []uint64) {
	scale := 4000
	if quick {
		scale = 600
	}
	a2 := eval.Assemble(datagen.D2(scale), eval.AssembleOptions{})
	fmt.Println(eval.Table4(a2, h, seeds))
}

func countNonZero(xs []int) int {
	n := 0
	for _, x := range xs {
		if x > 0 {
			n++
		}
	}
	return n
}

func runFigure4ab(a *eval.Assembled) {
	normal, fraud := a.BurstConcentration(36 * time.Hour)
	fmt.Println("Figure 4a/4b — time-burst summary: share of logs within ±36h of application")
	fmt.Printf("normal users: %.1f%%   fraudsters: %.1f%%\n\n", 100*normal, 100*fraud)
}

func runFigure4c(a *eval.Assembled) {
	normal, fraud := a.TemporalAggregation(14, 20000)
	fmt.Println("Figure 4c — temporal aggregation: share of same-behavior pairs within 3 days")
	fmt.Printf("%-10s %10s %10s\n", "type", "normal", "fraud")
	for t := range normal {
		if normal[t].Total == 0 && fraud[t].Total == 0 {
			continue
		}
		fmt.Printf("%-10s %9.1f%% %9.1f%%\n", behavior.Type(t),
			100*normal[t].ShortIntervalShare(3), 100*fraud[t].ShortIntervalShare(3))
	}
	fmt.Println()
}

func renderHomophily(a *eval.Assembled, onlyType int) string {
	s := a.Homophily(3, 200, onlyType)
	title := "Figure 4d — fraud ratio of n-hop neighbors (all edge types)"
	if onlyType >= 0 {
		title = fmt.Sprintf("Figure 4e–g — fraud ratio of n-hop neighbors (%s edges)", behavior.Type(onlyType))
	}
	return eval.RenderSeries(title, s.Normal, s.Fraud)
}

func runFigure5(a *eval.Assembled) {
	// Pick a connected fraud node and render its 2-hop neighborhood.
	target := a.Nodes[0]
	for i := range a.Bools {
		if a.Bools[i] && a.Graph.Degree(a.Nodes[i]) >= 3 {
			target = a.Nodes[i]
			break
		}
	}
	sg := a.Graph.Sample(target, graph.SampleOptions{Hops: 2, MaxNeighbors: 5})
	fmt.Println("Figure 5/6 — DOT visualization of a case subgraph (render with graphviz):")
	err := sg.WriteDOT(os.Stdout, "bn-case", func(n graph.NodeID) int {
		if a.Bools[int(n)] {
			return 1
		}
		return 0
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
}

// runFigure8a prints the per-module response-time digest over a stream
// of audit requests (Fig. 8a).
func runFigure8a(a *eval.Assembled, h eval.Hyper) {
	model, _ := eval.TrainHAG(a, eval.HAGFull, h, 1)
	series := eval.RunResponseTimeStudy(a, model, 200, 1)
	fmt.Println("Figure 8a — response time of the three online modules (200 requests)")
	fmt.Printf("%-9s %12s %12s %12s\n", "module", "mean", "p50", "p99")
	for _, m := range []struct {
		name string
		ds   []time.Duration
	}{
		{"sampling", series.Sample},
		{"features", series.Feature},
		{"predict", series.Predict},
		{"total", series.Total},
	} {
		h := telemetry.NewLogHistogram()
		for _, d := range m.ds {
			h.Observe(d)
		}
		fmt.Printf("%-9s %12v %12v %12v\n", m.name, h.Mean(), h.Quantile(0.50), h.Quantile(0.99))
	}
	fmt.Println()
}
