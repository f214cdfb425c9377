package eval

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"turbo/internal/baselines"
	"turbo/internal/datagen"
	"turbo/internal/gnn"
	"turbo/internal/graph"
	"turbo/internal/nn"
)

// paramHash is the SHA-256 of every parameter's name, shape and float64
// bits, in Parameters() order.
func paramHash(m nn.Module) string {
	h := sha256.New()
	var buf [8]byte
	for _, p := range m.Parameters() {
		h.Write([]byte(p.Name))
		binary.LittleEndian.PutUint64(buf[:], uint64(p.Value.Rows)<<32|uint64(p.Value.Cols))
		h.Write(buf[:])
		for _, v := range p.Value.Data {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// trainGolden pins the bits of every trained parameter of each training
// path: a change to the tape, its kernels or a trainer that moves one
// bit of one weight fails here, whatever it does to the metrics.
// Recorded with the scalar-loop backward GEMMs and a tape that allocated
// every buffer afresh.
var trainGolden = map[string]string{
	"HAG":            "bc8daef63598904cae3d756a83a0461963dab2d676d617b83c6ed40de7706fa9",
	"HAG-SAO(-)":     "f87b23b8fdbfdb14c588a9d26587588e7b52527b2e3b029e23339de18f590c1e",
	"HAG-CFO(-)":     "16a0d478e2ce59b4c022b8ab882349744e2fd898b702da67e4c84178c766d2f1",
	"HAG-neither":    "d4d5ad1d3871afb99e61c7dc9b87c8d6b33084e2d1117c88bf9ba4f63c37a6d5",
	"GCN":            "2fd425bac29236d048ae5cac46d03ddc7c6f88dd4593e8f27bbd18344b85dc0e",
	"G-SAGE":         "d8b2b57677b4b28e2ea234cd980945eea4ad0d94c5dd559d1cf697fea84d7617",
	"GAT":            "9cf1b2d7e0f35828581bf817d5f5e290e0bc856dfc64b477398ddefcadbcdb51",
	"DNN":            "9ace4760335803cebc78360304d539ffd90d456be8cd8673221265619ff4f044",
	"bench-HAG-full": "fb956c387718aa23f290d9942a6dc144781feb19e8d77c995ad02825d6a36ef8",
	"inductive-HAG":  "066e14baf8c9fe6b04bf6dca9274cb246206699f0177afe3336371fa392b66e9",
}

// goldenTrainRuns trains every model of trainGolden and returns its
// parameter hash.
func goldenTrainRuns(t *testing.T) map[string]string {
	a := getTiny(t)
	h := DefaultHyper()
	h.Epochs = 3
	got := make(map[string]string)
	for v, name := range map[HAGVariant]string{HAGFull: "HAG", HAGNoSAO: "HAG-SAO(-)", HAGNoCFO: "HAG-CFO(-)", HAGNeither: "HAG-neither"} {
		m, _ := TrainHAG(a, v, h, 1)
		got[name] = paramHash(m)
	}
	for _, kind := range []GNNKind{KindGCN, KindSAGE, KindGAT} {
		hh := h.withDefaults()
		b := a.FullBatch()
		m := NewGNN(kind, hh.gnnConfig(b.X.Cols, 1))
		gnn.Train(m, b, a.TrainIdx, a.Labels, hh.trainConfig(1))
		got[m.Name()] = paramHash(m)
	}
	dnn := &baselines.DNN{Epochs: 3, Balance: true, Dropout: 0.1}
	dnn.Fit(a.FeatureRows(a.TrainIdx), a.LabelsAt(a.TrainIdx))
	got["DNN"] = paramHash(dnn)

	// The benchmark's training call (benchmark/world.go train) at seed 3.
	cfg := datagen.Tiny()
	cfg.Seed = 3
	bh := DefaultHyper()
	bh.Epochs = 20
	bm, _ := TrainHAG(Assemble(cfg, AssembleOptions{}), HAGFull, bh, 3)
	got["bench-HAG-full"] = paramHash(bm)

	// One epoch of neighbour-sampled minibatches.
	im := NewHAG(HAGFull, h.withDefaults().hagConfig(a.X.Cols, a.Graph.NumEdgeTypes(), 1))
	feats := func(n graph.NodeID) []float64 { return a.X.Row(int(n)) }
	nodes := make([]graph.NodeID, len(a.TrainIdx))
	labels := make([]float64, len(a.TrainIdx))
	for k, i := range a.TrainIdx {
		nodes[k], labels[k] = a.Nodes[i], a.Labels[i]
	}
	tc := h.withDefaults().trainConfig(1)
	tc.Epochs = 1
	gnn.TrainInductive(im, a.Graph, feats, nodes, labels, gnn.InductiveConfig{TrainConfig: tc, BatchSize: 64})
	got["inductive-HAG"] = paramHash(im)
	return got
}

// TestTrainGolden checks every trained parameter bit for bit against
// the recorded hashes at GOMAXPROCS 1 and 2. scripts/ci.sh reruns it
// under TURBO_NOSIMD=1, where the same bits must come out.
func TestTrainGolden(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		got := goldenTrainRuns(t)
		for name, want := range trainGolden {
			if got[name] != want {
				t.Errorf("GOMAXPROCS=%d %s: parameter hash %s, want %s", procs, name, got[name], want)
			}
		}
	}
}
