package eval

import (
	"testing"

	"turbo/internal/datagen"
	"turbo/internal/gnn"
)

// BenchmarkTrainEpoch times full-batch HAG training per epoch: one
// gnn.Train of b.N epochs, so ns/op, B/op and allocs/op are per epoch,
// with the first step's set-up spread over the run. D1-small
// (datagen.Default, 4,000 nodes) is skipped under -short.
func BenchmarkTrainEpoch(b *testing.B) {
	for _, c := range []struct {
		name string
		cfg  func() datagen.Config
	}{{"Tiny", datagen.Tiny}, {"D1-small", datagen.Default}} {
		b.Run(c.name, func(b *testing.B) {
			if c.name != "Tiny" && testing.Short() {
				b.Skip("D1-small assembly takes seconds")
			}
			a := Assemble(c.cfg(), AssembleOptions{})
			h := DefaultHyper().withDefaults()
			batch := a.FullBatch()
			m := NewHAG(HAGFull, h.hagConfig(batch.X.Cols, a.Graph.NumEdgeTypes(), 1))
			tc := h.trainConfig(1)
			tc.Epochs = b.N
			b.ReportAllocs()
			b.ResetTimer()
			gnn.Train(m, batch, a.TrainIdx, a.Labels, tc)
		})
	}
}
