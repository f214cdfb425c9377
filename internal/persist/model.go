package persist

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"turbo/internal/baselines"
	"turbo/internal/gnn"
	"turbo/internal/hag"
	"turbo/internal/nn"
)

// ErrNoArtifact is returned by LoadLatest when the model directory holds
// no usable artifact.
var ErrNoArtifact = errors.New("persist: no model artifact")

// Artifact lifecycle statuses recorded in the manifest. An empty status
// (artifacts written before the lifecycle gate existed) is treated as
// accepted.
const (
	// StatusAccepted marks an artifact that passed the quality gate and
	// is eligible for serving.
	StatusAccepted = "accepted"
	// StatusQuarantined marks a gate-rejected candidate, kept on disk for
	// forensics but never auto-loaded.
	StatusQuarantined = "quarantined"
	// StatusRolledBack marks an accepted artifact the rollback monitor
	// (or an operator) later withdrew; never auto-loaded again.
	StatusRolledBack = "rolled_back"
)

// Manifest is the human-readable sidecar written next to every model
// artifact (model-NNNNNN.json). It carries enough to audit a deployment
// without parsing the binary blob.
type Manifest struct {
	Version   int       `json:"version"`
	Kind      string    `json:"kind"` // hag, gcn, graphsage, gat
	CreatedAt time.Time `json:"created_at"`
	// Params is the total float64 parameter count; InDim the input
	// feature dimension the model expects.
	Params int `json:"params"`
	InDim  int `json:"in_dim"`
	// Checksum is the CRC32C (hex) of the blob payload; Bytes its size.
	Checksum string `json:"checksum"`
	Bytes    int64  `json:"bytes"`
	// Status is the lifecycle state ("" from pre-lifecycle artifacts is
	// accepted); Reasons records why a quarantined candidate was rejected
	// or why an artifact was rolled back.
	Status  string   `json:"status,omitempty"`
	Reasons []string `json:"reasons,omitempty"`
}

// Loadable reports whether this artifact may be served: only accepted
// (or pre-lifecycle, status-less) artifacts qualify.
func (m Manifest) Loadable() bool {
	return m.Status == "" || m.Status == StatusAccepted
}

// Extras are the serving-path companions persisted alongside the model
// weights: the feature normalizer's statistics and the LR fallback used
// by the degradation ladder.
type Extras struct {
	NormMean []float64
	NormStd  []float64
	Fallback *baselines.LogisticRegression
}

// LoadedModel is one artifact restored from disk.
type LoadedModel struct {
	Model    gnn.Model
	Manifest Manifest
	NormMean []float64
	NormStd  []float64
	// Fallback is non-nil when the artifact carried LR weights.
	Fallback *baselines.LogisticRegression
}

// artifactBlob is the gob-encoded payload of a model artifact. Weights
// holds nn.SaveState bytes (gob of name+shape-tagged float64 matrices),
// so a reload is an exact float64 round-trip: scores after load are
// bitwise identical to scores before save, at float64 and at float32,
// whose weights quantize lazily from the reloaded float64 ones
// (nn.Parameter.Value32). Older artifacts also carry a WeightsF32 field
// with those same float32 values; gob skips fields the receiver lacks.
type artifactBlob struct {
	Kind       string
	ConfigJSON []byte
	NormMean   []float64
	NormStd    []float64
	HasLR      bool
	LRWeights  []float64
	LRBias     float64
	Weights    []byte
}

const (
	modelMagic  = "TBMODEL1"
	modelSuffix = ".bin"
)

// ModelStore reads and writes versioned model artifacts under one
// directory. Versions are monotonically increasing integers; the newest
// valid artifact wins at load time.
type ModelStore struct {
	dir  string
	logf func(string, ...any)
}

// NewModelStore opens (creating if needed) an artifact directory.
func NewModelStore(dir string, logf func(string, ...any)) (*ModelStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: model dir: %w", err)
	}
	if logf == nil {
		logf = log.Printf
	}
	return &ModelStore{dir: dir, logf: logf}, nil
}

func modelName(v int) string { return fmt.Sprintf("model-%06d%s", v, modelSuffix) }

// versions returns the on-disk artifact versions, ascending.
func (s *ModelStore) versions() []int {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil
	}
	var vs []int
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, "model-") || !strings.HasSuffix(name, modelSuffix) {
			continue
		}
		v, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "model-"), modelSuffix))
		if err != nil {
			continue
		}
		vs = append(vs, v)
	}
	sort.Ints(vs)
	return vs
}

// modelKind names a model's artifact kind, and modelConfigJSON captures
// its architecture; both must round-trip through buildModel.
func modelKind(m gnn.Model) (kind string, cfg any, err error) {
	switch mm := m.(type) {
	case *hag.HAG:
		return "hag", mm.Config(), nil
	case *gnn.GCN:
		return "gcn", mm.Config(), nil
	case *gnn.GraphSAGE:
		return "graphsage", mm.Config(), nil
	case *gnn.GAT:
		return "gat", mm.Config(), nil
	}
	return "", nil, fmt.Errorf("persist: unsupported model type %T", m)
}

// buildModel reconstructs an empty model of the artifact's architecture.
func buildModel(kind string, configJSON []byte) (gnn.Model, error) {
	switch kind {
	case "hag":
		var c hag.Config
		if err := json.Unmarshal(configJSON, &c); err != nil {
			return nil, fmt.Errorf("persist: hag config: %w", err)
		}
		return hag.New(c), nil
	case "gcn":
		var c gnn.Config
		if err := json.Unmarshal(configJSON, &c); err != nil {
			return nil, fmt.Errorf("persist: gcn config: %w", err)
		}
		return gnn.NewGCN(c), nil
	case "graphsage":
		var c gnn.Config
		if err := json.Unmarshal(configJSON, &c); err != nil {
			return nil, fmt.Errorf("persist: graphsage config: %w", err)
		}
		return gnn.NewGraphSAGE(c), nil
	case "gat":
		var c gnn.Config
		if err := json.Unmarshal(configJSON, &c); err != nil {
			return nil, fmt.Errorf("persist: gat config: %w", err)
		}
		return gnn.NewGAT(c), nil
	}
	return nil, fmt.Errorf("persist: unknown model kind %q", kind)
}

// inDimOf extracts the input dimension for the manifest.
func inDimOf(kind string, configJSON []byte) int {
	var probe struct {
		InDim int `json:"InDim"`
	}
	json.Unmarshal(configJSON, &probe)
	return probe.InDim
}

// Save writes model (plus extras) as the next artifact version with
// StatusAccepted: an atomically renamed binary blob and a JSON manifest
// sidecar.
func (s *ModelStore) Save(model gnn.Model, ex Extras) (Manifest, error) {
	return s.SaveStatus(model, ex, StatusAccepted, nil)
}

// SaveStatus writes model as the next artifact version under an
// explicit lifecycle status — quarantined candidates are persisted for
// forensics with their rejection reasons, but LoadLatest will never
// serve them.
func (s *ModelStore) SaveStatus(model gnn.Model, ex Extras, status string, reasons []string) (Manifest, error) {
	kind, cfg, err := modelKind(model)
	if err != nil {
		return Manifest{}, err
	}
	configJSON, err := json.Marshal(cfg)
	if err != nil {
		return Manifest{}, fmt.Errorf("persist: model config: %w", err)
	}
	var weights bytes.Buffer
	if err := nn.SaveState(&weights, model); err != nil {
		return Manifest{}, fmt.Errorf("persist: model weights: %w", err)
	}
	blob := artifactBlob{
		Kind:       kind,
		ConfigJSON: configJSON,
		NormMean:   ex.NormMean,
		NormStd:    ex.NormStd,
		Weights:    weights.Bytes(),
	}
	if ex.Fallback != nil {
		blob.HasLR = true
		blob.LRWeights, blob.LRBias = ex.Fallback.Weights()
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&blob); err != nil {
		return Manifest{}, fmt.Errorf("persist: model encode: %w", err)
	}
	sum := crc32.Checksum(payload.Bytes(), castagnoli)
	buf := make([]byte, 0, len(modelMagic)+4+payload.Len())
	buf = append(buf, modelMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, sum)
	buf = append(buf, payload.Bytes()...)

	vs := s.versions()
	version := 1
	if len(vs) > 0 {
		version = vs[len(vs)-1] + 1
	}
	params := 0
	for _, p := range model.Parameters() {
		params += len(p.Value.Data)
	}
	man := Manifest{
		Version:   version,
		Kind:      kind,
		CreatedAt: time.Now().UTC(),
		Params:    params,
		InDim:     inDimOf(kind, configJSON),
		Checksum:  fmt.Sprintf("%08x", sum),
		Bytes:     int64(len(buf)),
		Status:    status,
		Reasons:   reasons,
	}

	final := filepath.Join(s.dir, modelName(version))
	tmp, err := os.CreateTemp(s.dir, "model-*.tmp")
	if err != nil {
		return Manifest{}, fmt.Errorf("persist: model temp: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		return Manifest{}, fmt.Errorf("persist: model write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return Manifest{}, fmt.Errorf("persist: model fsync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return Manifest{}, err
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		return Manifest{}, fmt.Errorf("persist: model rename: %w", err)
	}
	if err := s.writeManifest(man); err != nil {
		return Manifest{}, err
	}
	return man, nil
}

func (s *ModelStore) manifestPath(version int) string {
	return filepath.Join(s.dir, fmt.Sprintf("model-%06d.json", version))
}

// writeManifest atomically (re)writes version's sidecar manifest.
func (s *ModelStore) writeManifest(man Manifest) error {
	manJSON, err := json.MarshalIndent(&man, "", "  ")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(s.dir, "manifest-*.tmp")
	if err != nil {
		return fmt.Errorf("persist: manifest temp: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(append(manJSON, '\n')); err != nil {
		tmp.Close()
		return fmt.Errorf("persist: manifest write: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), s.manifestPath(man.Version)); err != nil {
		return fmt.Errorf("persist: manifest rename: %w", err)
	}
	return nil
}

// manifest reads version's sidecar, synthesizing a minimal manifest
// when the sidecar is missing or unreadable (legacy artifacts).
func (s *ModelStore) manifest(version int) Manifest {
	man := Manifest{Version: version}
	if mb, err := os.ReadFile(s.manifestPath(version)); err == nil {
		var parsed Manifest
		if json.Unmarshal(mb, &parsed) == nil {
			man = parsed
			man.Version = version
		}
	}
	return man
}

// List returns every on-disk artifact's manifest, ascending by version
// — the deployment lineage served by GET /admin/models.
func (s *ModelStore) List() []Manifest {
	vs := s.versions()
	mans := make([]Manifest, 0, len(vs))
	for _, v := range vs {
		mans = append(mans, s.manifest(v))
	}
	return mans
}

// SetStatus rewrites version's manifest with a new lifecycle status,
// appending reasons to any already recorded. Marking a live artifact
// rolled_back is what keeps a restart from reloading it.
func (s *ModelStore) SetStatus(version int, status string, reasons ...string) error {
	if _, err := os.Stat(filepath.Join(s.dir, modelName(version))); err != nil {
		return fmt.Errorf("persist: set status v%d: %w", version, err)
	}
	man := s.manifest(version)
	man.Status = status
	man.Reasons = append(man.Reasons, reasons...)
	return s.writeManifest(man)
}

// load reads and validates one artifact version.
func (s *ModelStore) load(version int) (*LoadedModel, error) {
	path := filepath.Join(s.dir, modelName(version))
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("persist: model read: %w", err)
	}
	if len(b) < len(modelMagic)+4 || string(b[:len(modelMagic)]) != modelMagic {
		return nil, fmt.Errorf("persist: %s: bad artifact header", filepath.Base(path))
	}
	want := binary.LittleEndian.Uint32(b[len(modelMagic):])
	payload := b[len(modelMagic)+4:]
	if crc32.Checksum(payload, castagnoli) != want {
		return nil, fmt.Errorf("persist: %s: artifact checksum mismatch", filepath.Base(path))
	}
	var blob artifactBlob
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&blob); err != nil {
		return nil, fmt.Errorf("persist: %s: artifact decode: %w", filepath.Base(path), err)
	}
	model, err := buildModel(blob.Kind, blob.ConfigJSON)
	if err != nil {
		return nil, err
	}
	if err := nn.LoadState(bytes.NewReader(blob.Weights), model); err != nil {
		return nil, fmt.Errorf("persist: %s: %w", filepath.Base(path), err)
	}
	lm := &LoadedModel{
		Model:    model,
		NormMean: blob.NormMean,
		NormStd:  blob.NormStd,
		Manifest: Manifest{
			Version:  version,
			Kind:     blob.Kind,
			Checksum: fmt.Sprintf("%08x", want),
			Bytes:    int64(len(b)),
		},
	}
	// Prefer the sidecar manifest when it parses (creation time, params).
	manPath := filepath.Join(s.dir, fmt.Sprintf("model-%06d.json", version))
	if mb, err := os.ReadFile(manPath); err == nil {
		var man Manifest
		if json.Unmarshal(mb, &man) == nil {
			lm.Manifest = man
		}
	}
	if blob.HasLR {
		lr := &baselines.LogisticRegression{}
		lr.SetWeights(blob.LRWeights, blob.LRBias)
		lm.Fallback = lr
	}
	return lm, nil
}

// LoadLatest restores the newest valid accepted artifact, falling back
// to older versions when a file is corrupt or the artifact is
// quarantined/rolled back (each skip is logged). ErrNoArtifact when
// nothing loads.
func (s *ModelStore) LoadLatest() (*LoadedModel, error) {
	return s.loadNewestAccepted(int(^uint(0) >> 1)) // max int
}

// LoadPreviousAccepted restores the newest accepted artifact strictly
// older than the given version — the rollback target after version
// regressed. ErrNoArtifact when no older accepted artifact exists.
func (s *ModelStore) LoadPreviousAccepted(before int) (*LoadedModel, error) {
	return s.loadNewestAccepted(before)
}

func (s *ModelStore) loadNewestAccepted(before int) (*LoadedModel, error) {
	vs := s.versions()
	for i := len(vs) - 1; i >= 0; i-- {
		v := vs[i]
		if v >= before {
			continue
		}
		if man := s.manifest(v); !man.Loadable() {
			s.logf("persist: skipping model artifact v%d: status %s", v, man.Status)
			continue
		}
		lm, err := s.load(v)
		if err != nil {
			s.logf("persist: skipping model artifact v%d: %v", v, err)
			continue
		}
		return lm, nil
	}
	return nil, ErrNoArtifact
}
