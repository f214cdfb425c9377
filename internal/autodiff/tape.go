// Package autodiff implements reverse-mode automatic differentiation over
// dense matrices. Every model in this repository (HAG, GCN, GraphSAGE,
// GAT, DNN, LR) is expressed as a computation over *Node values recorded
// on a *Tape; calling Tape.Backward propagates exact gradients back to
// every parameter leaf.
//
// The design is a classic dynamic tape: each operation appends a node with
// a backward closure, and Backward runs the closures in reverse order of
// creation. Nodes that cannot reach a gradient-requiring leaf skip
// gradient allocation entirely.
package autodiff

import (
	"fmt"

	"turbo/internal/tensor"
)

// Node is one value in the recorded computation graph.
type Node struct {
	Value *tensor.Matrix
	Grad  *tensor.Matrix

	tape         *Tape
	requiresGrad bool
	backward     func()
}

// Tape records operations so Backward can replay them in reverse.
//
// Buffer ownership: every op's Value, every gradient Backward creates
// and the backward products' scratch come from buffers the tape owns.
// Reset rewinds them instead of dropping them, so a training loop that
// records the same graph every step, the same shapes in the same order,
// reuses the previous step's buffers and allocates nothing for them.
// After Reset, the Nodes, Values and Grads recorded before it are
// invalid: the next step overwrites them. What the caller passed in
// stays the caller's and stays valid: the values given to Const, Param
// and Leaf and the grad buffers given to Leaf. A tape that is never
// reset hands out fresh buffers, so its values live as long as the
// caller keeps them.
type Tape struct {
	nodes []*Node
	// bufs are the matrices the tape has handed out, in request order;
	// the current step has claimed bufs[:next].
	bufs []*tensor.Matrix
	next int
	// scratch holds the backward products of one op at a time.
	scratch [2]*tensor.Matrix
}

// NewTape returns an empty tape.
func NewTape() *Tape { return &Tape{} }

// Reset rewinds the tape for the next step, keeping its buffers for
// reuse (see Tape for what stays valid). Parameter leaves
// must be re-registered (via Param or Leaf) after a reset.
func (t *Tape) Reset() {
	t.nodes = t.nodes[:0]
	t.next = 0
}

// Len returns the number of recorded nodes, useful in tests.
func (t *Tape) Len() int { return len(t.nodes) }

func (t *Tape) node(v, grad *tensor.Matrix, requiresGrad bool) *Node {
	n := &Node{Value: v, Grad: grad, tape: t, requiresGrad: requiresGrad}
	t.nodes = append(t.nodes, n)
	return n
}

// buf returns a rows×cols matrix the tape owns until the next Reset:
// the one the previous step's request at this position used, when its
// backing is large enough, else a new one. zero clears it, for the
// kernels and gradients that accumulate into it; every other caller
// writes each element.
func (t *Tape) buf(rows, cols int, zero bool) *tensor.Matrix {
	if t.next == len(t.bufs) {
		t.bufs = append(t.bufs, nil)
	}
	m := fit(t.bufs[t.next], rows, cols, zero)
	t.bufs[t.next] = m
	t.next++
	return m
}

// scratchBuf returns backward scratch slot i as a rows×cols matrix,
// valid until the next request for slot i.
func (t *Tape) scratchBuf(i, rows, cols int, zero bool) *tensor.Matrix {
	t.scratch[i] = fit(t.scratch[i], rows, cols, zero)
	return t.scratch[i]
}

// fit reshapes m to rows×cols, cleared when zero, if its backing is
// large enough, and otherwise returns a new zeroed matrix.
func fit(m *tensor.Matrix, rows, cols int, zero bool) *tensor.Matrix {
	if n := rows * cols; m != nil && cap(m.Data) >= n {
		m.Rows, m.Cols, m.Data = rows, cols, m.Data[:n]
		if zero {
			clear(m.Data)
		}
		return m
	}
	return tensor.New(rows, cols)
}

// Const records a value that does not require gradients.
func (t *Tape) Const(v *tensor.Matrix) *Node {
	return t.node(v, nil, false)
}

// Param records a trainable leaf. Its Grad is a tape buffer, allocated
// lazily by Backward and accumulated across Backward calls until the
// next Reset.
func (t *Tape) Param(v *tensor.Matrix) *Node {
	return t.node(v, nil, true)
}

// Leaf records a gradient-requiring node whose gradient accumulates into
// the caller-owned buffer grad. This is how persistent model parameters
// are attached to the tape each forward pass: the tape is reset or
// discarded after Backward but the gradient lands in the parameter's
// own buffer.
func (t *Tape) Leaf(v, grad *tensor.Matrix) *Node {
	if !v.SameShape(grad) {
		panic("autodiff: Leaf value/grad shape mismatch")
	}
	return t.node(v, grad, true)
}

func (n *Node) ensureGrad() *tensor.Matrix {
	if n.Grad == nil {
		n.Grad = n.tape.buf(n.Value.Rows, n.Value.Cols, true)
	}
	return n.Grad
}

// Shape returns (rows, cols) of the node's value.
func (n *Node) Shape() (int, int) { return n.Value.Rows, n.Value.Cols }

// Scalar returns the single element of a 1×1 node.
func (n *Node) Scalar() float64 {
	if n.Value.Rows != 1 || n.Value.Cols != 1 {
		panic(fmt.Sprintf("autodiff: Scalar on %dx%d node", n.Value.Rows, n.Value.Cols))
	}
	return n.Value.Data[0]
}

// Backward seeds the given output node with gradient 1 and propagates
// gradients to every reachable leaf. The output must be scalar (1×1)
// unless an explicit seed is supplied via BackwardWithSeed.
func (t *Tape) Backward(out *Node) {
	if out.Value.Rows != 1 || out.Value.Cols != 1 {
		panic("autodiff: Backward requires a scalar output; use BackwardWithSeed")
	}
	seed := t.buf(1, 1, false)
	seed.Data[0] = 1
	t.BackwardWithSeed(out, seed)
}

// BackwardWithSeed propagates gradients starting from an arbitrary seed
// gradient of the same shape as out's value.
func (t *Tape) BackwardWithSeed(out *Node, seed *tensor.Matrix) {
	if !out.Value.SameShape(seed) {
		panic("autodiff: seed shape mismatch")
	}
	out.ensureGrad().AddInPlace(seed)
	for i := len(t.nodes) - 1; i >= 0; i-- {
		n := t.nodes[i]
		if n.backward != nil && n.Grad != nil {
			n.backward()
		}
	}
}

// ZeroGrads clears the gradients of the provided parameter nodes.
func ZeroGrads(params []*Node) {
	for _, p := range params {
		if p.Grad != nil {
			p.Grad.Zero()
		}
	}
}
