// Package nn provides the neural-network building blocks shared by every
// learned model in the repository: persistent parameters, linear layers,
// multi-layer perceptrons, and the Adam/SGD optimizers.
//
// Parameters live outside any autodiff tape; each forward pass attaches
// them to a fresh tape via Parameter.Node, and gradients accumulate into
// Parameter.Grad until an optimizer step consumes and zeroes them.
package nn

import (
	"fmt"
	"sync/atomic"

	"turbo/internal/autodiff"
	"turbo/internal/tensor"
)

// Parameter is a trainable matrix with a persistent gradient buffer.
type Parameter struct {
	Name  string
	Value *tensor.Matrix
	Grad  *tensor.Matrix

	// v32 caches the float32 quantization of Value for the opt-in f32
	// serving path. Anything that mutates Value (optimizer steps,
	// LoadState) must call InvalidateQuant. Unexported, so gob-based
	// serialization never sees it.
	v32 atomic.Pointer[tensor.Matrix32]
}

// NewParameter allocates a parameter around an initialized value.
func NewParameter(name string, value *tensor.Matrix) *Parameter {
	return &Parameter{Name: name, Value: value, Grad: tensor.New(value.Rows, value.Cols)}
}

// Node attaches the parameter to a tape as a gradient leaf.
func (p *Parameter) Node(t *autodiff.Tape) *autodiff.Node {
	return t.Leaf(p.Value, p.Grad)
}

// ZeroGrad clears the accumulated gradient.
func (p *Parameter) ZeroGrad() { p.Grad.Zero() }

// Value32 returns the float32 quantization of Value, computing and
// caching it on first use. The cached matrix must be treated as
// read-only; it is replaced wholesale on invalidation. Safe for
// concurrent readers.
func (p *Parameter) Value32() *tensor.Matrix32 {
	if q := p.v32.Load(); q != nil {
		return q
	}
	q := tensor.Quantize(p.Value)
	p.v32.Store(q)
	return q
}

// InvalidateQuant drops the cached float32 value after Value changed.
func (p *Parameter) InvalidateQuant() { p.v32.Store(nil) }

// Module is anything exposing trainable parameters.
type Module interface {
	Parameters() []*Parameter
}

// ZeroGrads clears the gradients of all parameters in a module.
func ZeroGrads(m Module) {
	for _, p := range m.Parameters() {
		p.ZeroGrad()
	}
}

// ParamCount returns the total number of scalar parameters in a module.
func ParamCount(m Module) int {
	var n int
	for _, p := range m.Parameters() {
		n += len(p.Value.Data)
	}
	return n
}

// Linear is a fully connected layer y = xW + b.
type Linear struct {
	W *Parameter
	B *Parameter
}

// NewLinear creates a Glorot-initialized in×out linear layer.
func NewLinear(name string, in, out int, rng *tensor.RNG) *Linear {
	return &Linear{
		W: NewParameter(name+".W", tensor.GlorotUniform(in, out, rng)),
		B: NewParameter(name+".B", tensor.New(1, out)),
	}
}

// Forward applies the layer on the tape.
func (l *Linear) Forward(t *autodiff.Tape, x *autodiff.Node) *autodiff.Node {
	return t.AddRowVector(t.MatMul(x, l.W.Node(t)), l.B.Node(t))
}

// Infer applies the layer without a tape: y = xW + b into a fresh
// matrix. The arithmetic matches Forward exactly (same MatMul kernel,
// same add order), so inference reproduces training-mode values bitwise.
func (l *Linear) Infer(x *tensor.Matrix) *tensor.Matrix {
	return x.MatMul(l.W.Value).AddRowVectorInPlace(l.B.Value)
}

// Parameters implements Module.
func (l *Linear) Parameters() []*Parameter { return []*Parameter{l.W, l.B} }

// Activation names the supported nonlinearities.
type Activation int

// Supported activations.
const (
	ActNone Activation = iota
	ActReLU
	ActTanh
	ActSigmoid
)

// Apply applies the activation on the tape.
func (a Activation) Apply(t *autodiff.Tape, x *autodiff.Node) *autodiff.Node {
	switch a {
	case ActReLU:
		return t.ReLU(x)
	case ActTanh:
		return t.Tanh(x)
	case ActSigmoid:
		return t.Sigmoid(x)
	default:
		return x
	}
}

// ApplyInPlace applies the activation to m in place, tape-free, using
// the same element formulas as the tape ops.
func (a Activation) ApplyInPlace(m *tensor.Matrix) *tensor.Matrix { return Activate(a, m) }

// Activate is ApplyInPlace at either precision. At float32, tanh and
// sigmoid use the fast approximations, so it is tolerance-equivalent
// (not bitwise) to the float64 form.
func Activate[F tensor.Float](a Activation, m *tensor.Mat[F]) *tensor.Mat[F] {
	switch a {
	case ActReLU:
		return tensor.ReLUInPlace(m)
	case ActTanh:
		return tensor.TanhInPlace(m)
	case ActSigmoid:
		return tensor.SigmoidInPlace(m)
	default:
		return m
	}
}

// MLP is a stack of linear layers with a shared hidden activation and a
// linear (no-activation) output layer.
type MLP struct {
	Layers []*Linear
	Hidden Activation
}

// NewMLP builds an MLP with the given layer sizes, e.g. [in, 128, 64, 1].
func NewMLP(name string, sizes []int, hidden Activation, rng *tensor.RNG) *MLP {
	if len(sizes) < 2 {
		panic("nn: MLP needs at least input and output sizes")
	}
	m := &MLP{Hidden: hidden}
	for i := 0; i+1 < len(sizes); i++ {
		m.Layers = append(m.Layers, NewLinear(fmt.Sprintf("%s.l%d", name, i), sizes[i], sizes[i+1], rng))
	}
	return m
}

// Forward runs the MLP on the tape.
func (m *MLP) Forward(t *autodiff.Tape, x *autodiff.Node) *autodiff.Node {
	h := x
	for i, l := range m.Layers {
		h = l.Forward(t, h)
		if i+1 < len(m.Layers) {
			h = m.Hidden.Apply(t, h)
		}
	}
	return h
}

// Infer runs the MLP without a tape, mirroring Forward's op order.
func (m *MLP) Infer(x *tensor.Matrix) *tensor.Matrix {
	h := x
	for i, l := range m.Layers {
		h = l.Infer(h)
		if i+1 < len(m.Layers) {
			h = m.Hidden.ApplyInPlace(h)
		}
	}
	return h
}

// Parameters implements Module.
func (m *MLP) Parameters() []*Parameter {
	var ps []*Parameter
	for _, l := range m.Layers {
		ps = append(ps, l.Parameters()...)
	}
	return ps
}
