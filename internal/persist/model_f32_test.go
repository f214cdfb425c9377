package persist

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"turbo/internal/gnn"
	"turbo/internal/hag"
	"turbo/internal/tensor"
)

// TestModelStoreF32Roundtrip pins the load-time quantization: the f32
// weights a loaded model serves (Parameter.Value32, quantized lazily from
// the reloaded float64 weights) are bitwise the float32 casts of the
// saved float64 weights, for every model kind.
func TestModelStoreF32Roundtrip(t *testing.T) {
	dir := t.TempDir()
	store := newTestStore(t, dir)
	cfg := gnn.Config{InDim: 4, Hidden: []int{6, 4}, MLPHidden: 3, Seed: 9}
	models := []gnn.Model{
		gnn.NewGCN(cfg),
		gnn.NewGraphSAGE(cfg),
		gnn.NewGAT(cfg),
		hag.New(hag.Config{InDim: 4, NumEdgeTypes: 2, Hidden: []int{6, 4}, AttHidden: 3, Seed: 9}),
	}
	for _, m := range models {
		want := make(map[string]*tensor.Matrix32)
		for _, p := range m.Parameters() {
			want[p.Name] = tensor.Quantize(p.Value)
		}
		if _, err := store.Save(m, Extras{}); err != nil {
			t.Fatalf("%T save: %v", m, err)
		}
		lm, err := store.LoadLatest()
		if err != nil {
			t.Fatalf("%T load: %v", m, err)
		}
		for _, p := range lm.Model.Parameters() {
			w, ok := want[p.Name]
			if !ok {
				t.Fatalf("%T: unexpected parameter %s", m, p.Name)
			}
			got := p.Value32()
			for i := range w.Data {
				if got.Data[i] != w.Data[i] {
					t.Fatalf("%T %s[%d]: loaded f32 %v != quantized original %v", m, p.Name, i, got.Data[i], w.Data[i])
				}
			}
		}
	}
}

// TestModelStoreF32ScoresMatch pins end-to-end serving equivalence: a
// saved-and-reloaded model's f32 scores equal the original model's f32
// scores exactly (both quantize the identical float64 weights).
func TestModelStoreF32ScoresMatch(t *testing.T) {
	dir := t.TempDir()
	store := newTestStore(t, dir)
	m := hag.New(hag.Config{InDim: 4, NumEdgeTypes: 2, Hidden: []int{6, 4}, AttHidden: 3, Seed: 11})
	b := testBatch(t, 2, 4)
	want, ok := gnn.Score32(m, b)
	if !ok {
		t.Fatal("HAG lacks the f32 path")
	}
	if _, err := store.Save(m, Extras{}); err != nil {
		t.Fatal(err)
	}
	lm, err := store.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	got, ok := gnn.Score32(lm.Model, b)
	if !ok {
		t.Fatal("loaded model lacks the f32 path")
	}
	if got != want {
		t.Fatalf("f32 score changed across save/load: %v vs %v", got, want)
	}
}

// legacyBlob is artifactBlob as artifacts were written when they also
// persisted every parameter's float32 quantization, flat in Parameters()
// order.
type legacyBlob struct {
	Kind       string
	ConfigJSON []byte
	NormMean   []float64
	NormStd    []float64
	HasLR      bool
	LRWeights  []float64
	LRBias     float64
	Weights    []byte
	WeightsF32 []float32
}

// TestModelStoreLoadsLegacyF32Artifact rewrites a saved artifact in the
// older layout that carried WeightsF32, and checks that it still loads
// (gob skips the field the current blob lacks) and scores bitwise what
// the original model scores, at float64 and at float32.
func TestModelStoreLoadsLegacyF32Artifact(t *testing.T) {
	dir := t.TempDir()
	store := newTestStore(t, dir)
	m := hag.New(hag.Config{InDim: 4, NumEdgeTypes: 2, Hidden: []int{6, 4}, AttHidden: 3, Seed: 13})
	b := testBatch(t, 2, 4)
	man, err := store.Save(m, Extras{NormMean: []float64{1, 2, 3, 4}, NormStd: []float64{1, 1, 2, 2}})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, modelName(man.Version))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var cur artifactBlob
	if err := gob.NewDecoder(bytes.NewReader(raw[len(modelMagic)+4:])).Decode(&cur); err != nil {
		t.Fatal(err)
	}
	old := legacyBlob{
		Kind: cur.Kind, ConfigJSON: cur.ConfigJSON, NormMean: cur.NormMean, NormStd: cur.NormStd,
		HasLR: cur.HasLR, LRWeights: cur.LRWeights, LRBias: cur.LRBias, Weights: cur.Weights,
	}
	for _, p := range m.Parameters() {
		old.WeightsF32 = append(old.WeightsF32, tensor.Quantize(p.Value).Data...)
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&old); err != nil {
		t.Fatal(err)
	}
	buf := append([]byte(modelMagic), binary.LittleEndian.AppendUint32(nil, crc32.Checksum(payload.Bytes(), castagnoli))...)
	if err := os.WriteFile(path, append(buf, payload.Bytes()...), 0o644); err != nil {
		t.Fatal(err)
	}

	lm, err := store.LoadLatest()
	if err != nil {
		t.Fatalf("legacy artifact: %v", err)
	}
	if got, want := gnn.Score(lm.Model, b), gnn.Score(m, b); got != want {
		t.Fatalf("legacy artifact f64 score %v, original %v", got, want)
	}
	want32, _ := gnn.Score32(m, b)
	if got32, ok := gnn.Score32(lm.Model, b); !ok || got32 != want32 {
		t.Fatalf("legacy artifact f32 score %v (ok %v), original %v", got32, ok, want32)
	}
	if !slices.Equal(lm.NormMean, cur.NormMean) || !slices.Equal(lm.NormStd, cur.NormStd) {
		t.Fatalf("legacy artifact extras %v/%v, saved %v/%v", lm.NormMean, lm.NormStd, cur.NormMean, cur.NormStd)
	}
}
