package nn

import "math"

// Adam is the Adam optimizer (Kingma & Ba) with optional weight decay,
// matching the paper's training setup (fixed learning rate 0.001).
type Adam struct {
	LR          float64
	Beta1       float64
	Beta2       float64
	Eps         float64
	WeightDecay float64

	step int
}

// NewAdam returns Adam with the standard hyperparameters and the given
// learning rate.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Step applies one update to every parameter using its accumulated
// gradient, then leaves gradients untouched (callers ZeroGrad explicitly,
// mirroring the PyTorch idiom).
func (a *Adam) Step(params []*Param) {
	a.step++
	c1 := 1 - math.Pow(a.Beta1, float64(a.step))
	c2 := 1 - math.Pow(a.Beta2, float64(a.step))
	for _, p := range params {
		w, g, m, v := p.W.Data, p.G.Data, p.M.Data, p.V.Data
		for i := range w {
			grad := float64(g[i])
			// The float64 conversions round each product before its sum,
			// so arm64 computes the same update as amd64 (no FMA).
			if a.WeightDecay != 0 {
				grad += float64(a.WeightDecay * float64(w[i]))
			}
			mi := float64(a.Beta1*float64(m[i])) + float64((1-a.Beta1)*grad)
			vi := float64(a.Beta2*float64(v[i])) + float64((1-a.Beta2)*grad*grad)
			m[i] = float32(mi)
			v[i] = float32(vi)
			mhat := mi / c1
			vhat := vi / c2
			w[i] -= float32(a.LR * mhat / (math.Sqrt(vhat) + a.Eps))
		}
	}
}

// StepCount returns the number of updates applied so far.
func (a *Adam) StepCount() int { return a.step }

// SetStepCount overwrites the update counter. Checkpoint restore uses this
// so the bias-correction terms of resumed steps match the uninterrupted
// run exactly (the moment estimates themselves live in each Param).
func (a *Adam) SetStepCount(n int) { a.step = n }
