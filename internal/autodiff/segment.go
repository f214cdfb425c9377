package autodiff

import "math"

// LeakyReLU records c = x if x > 0 else slope·x, used by GAT attention.
func (t *Tape) LeakyReLU(a *Node, slope float64) *Node {
	v := t.buf(a.Value.Rows, a.Value.Cols, false)
	for i, x := range a.Value.Data {
		if x > 0 {
			v.Data[i] = x
		} else {
			v.Data[i] = slope * x
		}
	}
	var out *Node
	out = t.op(v, func() {
		if !a.requiresGrad {
			return
		}
		g := a.ensureGrad()
		for i, x := range a.Value.Data {
			d := slope
			if x > 0 {
				d = 1
			}
			g.Data[i] += d * out.Grad.Data[i]
		}
	}, a)
	return out
}

// SegmentSoftmax records a softmax over groups of rows of an E×1 score
// vector: segments[k] lists the row indices belonging to group k (e.g.
// the incoming edges of one destination node in GAT edge attention).
// Rows not covered by any segment pass through as zeros.
func (t *Tape) SegmentSoftmax(a *Node, segments [][]int) *Node {
	if a.Value.Cols != 1 {
		panic("autodiff: SegmentSoftmax wants an E×1 score vector")
	}
	v := t.buf(a.Value.Rows, 1, true)
	for _, seg := range segments {
		mx := math.Inf(-1)
		for _, i := range seg {
			if x := a.Value.Data[i]; x > mx {
				mx = x
			}
		}
		var sum float64
		for _, i := range seg {
			e := math.Exp(a.Value.Data[i] - mx)
			v.Data[i] = e
			sum += e
		}
		if sum == 0 {
			continue
		}
		for _, i := range seg {
			v.Data[i] /= sum
		}
	}
	var out *Node
	out = t.op(v, func() {
		if !a.requiresGrad {
			return
		}
		g := a.ensureGrad()
		for _, seg := range segments {
			var dot float64
			for _, i := range seg {
				dot += out.Grad.Data[i] * out.Value.Data[i]
			}
			for _, i := range seg {
				s := out.Value.Data[i]
				g.Data[i] += s * (out.Grad.Data[i] - dot)
			}
		}
	}, a)
	return out
}
