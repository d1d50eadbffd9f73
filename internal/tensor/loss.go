package tensor

import "math"

// SoftmaxCrossEntropy computes the mean cross-entropy loss of logits
// against integer labels and writes the gradient d(loss)/d(logits) into
// grad (same shape as logits, may be nil to skip). Rows with label < 0 are
// ignored (masked), matching the sparse-label datasets where only a small
// fraction of vertices is supervised.
//
// The implementation is the numerically stable fused kernel: shift by the
// row max before exponentiation; gradient is (softmax − onehot)/batch.
func SoftmaxCrossEntropy(logits *Matrix, labels []int32, grad *Matrix) float64 {
	if len(labels) != logits.Rows {
		panic("tensor: label count mismatch")
	}
	if grad != nil && !grad.SameShape(logits) {
		panic("tensor: grad shape mismatch")
	}
	counted := 0
	for _, l := range labels {
		if l >= 0 {
			counted++
		}
	}
	if counted == 0 {
		if grad != nil {
			grad.Zero()
		}
		return 0
	}
	inv := 1.0 / float64(counted)
	var loss float64
	for i := 0; i < logits.Rows; i++ {
		row := logits.Row(i)
		label := labels[i]
		var grow []float32
		if grad != nil {
			grow = grad.Row(i)
		}
		if label < 0 {
			if grow != nil {
				for j := range grow {
					grow[j] = 0
				}
			}
			continue
		}
		maxv := row[0]
		for _, v := range row[1:] {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		for _, v := range row {
			sum += math.Exp(float64(v - maxv))
		}
		logSum := math.Log(sum)
		loss += float64(inv * (logSum - float64(row[label]-maxv))) // rounded: no FMA on arm64
		if grow != nil {
			for j, v := range row {
				p := math.Exp(float64(v-maxv)) / sum
				g := p
				if int32(j) == label {
					g -= 1
				}
				grow[j] = float32(g * inv)
			}
		}
	}
	return loss
}

// ArgmaxRow returns the index of the largest value in row (first winner on
// ties). Allocation-free; shared by every accuracy path.
func ArgmaxRow(row []float32) int {
	best := 0
	for j, v := range row {
		if v > row[best] {
			best = j
		}
	}
	return best
}

// Accuracy returns the fraction of rows whose argmax matches the label,
// ignoring rows with label < 0. Returns 0 when nothing is labeled. The
// argmax is computed inline (no intermediate slice) because this runs once
// per minibatch on the steady-state training path.
func Accuracy(logits *Matrix, labels []int32) float64 {
	correct, counted := 0, 0
	for i, l := range labels {
		if l < 0 {
			continue
		}
		counted++
		if int32(ArgmaxRow(logits.Row(i))) == l {
			correct++
		}
	}
	if counted == 0 {
		return 0
	}
	return float64(correct) / float64(counted)
}
