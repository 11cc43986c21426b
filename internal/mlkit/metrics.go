package mlkit

import "sort"

// Confusion is a k×k confusion matrix; Confusion[actual][predicted].
type Confusion struct {
	K     int
	Cells [][]int
}

// NewConfusion builds an empty k-class matrix.
func NewConfusion(k int) *Confusion {
	cells := make([][]int, k)
	for i := range cells {
		cells[i] = make([]int, k)
	}
	return &Confusion{K: k, Cells: cells}
}

// Add records one (actual, predicted) observation.
func (c *Confusion) Add(actual, predicted int) {
	if actual < 0 || actual >= c.K || predicted < 0 || predicted >= c.K {
		return
	}
	c.Cells[actual][predicted]++
}

// Total returns the number of recorded observations.
func (c *Confusion) Total() int {
	t := 0
	for _, row := range c.Cells {
		for _, v := range row {
			t += v
		}
	}
	return t
}

// Accuracy is the overall fraction correct — the weighted TP rate the
// paper quotes (82.9%).
func (c *Confusion) Accuracy() float64 {
	t := c.Total()
	if t == 0 {
		return 0
	}
	correct := 0
	for i := 0; i < c.K; i++ {
		correct += c.Cells[i][i]
	}
	return float64(correct) / float64(t)
}

// classStats computes one-vs-rest tp/fp/fn/tn for class k.
func (c *Confusion) classStats(k int) (tp, fp, fn, tn int) {
	for a := 0; a < c.K; a++ {
		for p := 0; p < c.K; p++ {
			v := c.Cells[a][p]
			switch {
			case a == k && p == k:
				tp += v
			case a != k && p == k:
				fp += v
			case a == k && p != k:
				fn += v
			default:
				tn += v
			}
		}
	}
	return
}

// support returns the number of actual instances of class k.
func (c *Confusion) support(k int) int {
	s := 0
	for p := 0; p < c.K; p++ {
		s += c.Cells[k][p]
	}
	return s
}

// PrecisionByClass returns per-class precision.
func (c *Confusion) PrecisionByClass() []float64 {
	out := make([]float64, c.K)
	for k := 0; k < c.K; k++ {
		tp, fp, _, _ := c.classStats(k)
		if tp+fp > 0 {
			out[k] = float64(tp) / float64(tp+fp)
		}
	}
	return out
}

// RecallByClass returns per-class recall (TP rate).
func (c *Confusion) RecallByClass() []float64 {
	out := make([]float64, c.K)
	for k := 0; k < c.K; k++ {
		tp, _, fn, _ := c.classStats(k)
		if tp+fn > 0 {
			out[k] = float64(tp) / float64(tp+fn)
		}
	}
	return out
}

// FPRateByClass returns per-class one-vs-rest false-positive rates.
func (c *Confusion) FPRateByClass() []float64 {
	out := make([]float64, c.K)
	for k := 0; k < c.K; k++ {
		_, fp, _, tn := c.classStats(k)
		if fp+tn > 0 {
			out[k] = float64(fp) / float64(fp+tn)
		}
	}
	return out
}

// weightedAverage weights per-class values by class support, the Weka
// convention the paper's §5.4 numbers follow.
func (c *Confusion) weightedAverage(vals []float64) float64 {
	total := c.Total()
	if total == 0 {
		return 0
	}
	sum := 0.0
	for k, v := range vals {
		sum += v * float64(c.support(k))
	}
	return sum / float64(total)
}

// WeightedPrecision returns support-weighted precision.
func (c *Confusion) WeightedPrecision() float64 {
	return c.weightedAverage(c.PrecisionByClass())
}

// WeightedRecall returns support-weighted recall (= the weighted TP rate).
func (c *Confusion) WeightedRecall() float64 {
	return c.weightedAverage(c.RecallByClass())
}

// WeightedFPRate returns support-weighted FP rate.
func (c *Confusion) WeightedFPRate() float64 {
	return c.weightedAverage(c.FPRateByClass())
}

// AUCROC computes the one-vs-rest area under the ROC curve for class k
// from per-instance scores (probability of class k) and actual labels,
// via the Mann–Whitney U statistic with tie correction.
func AUCROC(scores []float64, labels []int, k int) float64 {
	type sl struct {
		s   float64
		pos bool
	}
	items := make([]sl, 0, len(scores))
	nPos, nNeg := 0, 0
	for i, s := range scores {
		pos := labels[i] == k
		if pos {
			nPos++
		} else {
			nNeg++
		}
		items = append(items, sl{s, pos})
	}
	if nPos == 0 || nNeg == 0 {
		return 0.5
	}
	sort.Slice(items, func(i, j int) bool { return items[i].s < items[j].s })
	// Average ranks with tie handling.
	rankSumPos := 0.0
	i := 0
	for i < len(items) {
		j := i
		for j < len(items) && items[j].s == items[i].s {
			j++
		}
		avgRank := float64(i+j+1) / 2 // ranks are 1-based: (i+1 + j) / 2
		for t := i; t < j; t++ {
			if items[t].pos {
				rankSumPos += avgRank
			}
		}
		i = j
	}
	u := rankSumPos - float64(nPos)*float64(nPos+1)/2
	return u / (float64(nPos) * float64(nNeg))
}

// WeightedAUCROC averages one-vs-rest AUCs weighted by class support,
// given per-instance full probability vectors.
func WeightedAUCROC(probs [][]float64, labels []int, classes int) float64 {
	if len(probs) == 0 {
		return 0.5
	}
	support := make([]int, classes)
	for _, l := range labels {
		if l >= 0 && l < classes {
			support[l]++
		}
	}
	scores := make([]float64, len(probs))
	total, sum := 0, 0.0
	for k := 0; k < classes; k++ {
		if support[k] == 0 {
			continue
		}
		for i, p := range probs {
			scores[i] = p[k]
		}
		sum += AUCROC(scores, labels, k) * float64(support[k])
		total += support[k]
	}
	if total == 0 {
		return 0.5
	}
	return sum / float64(total)
}

// Report bundles the §5.4 headline metrics.
type Report struct {
	Accuracy  float64 // weighted TP rate
	FPRate    float64
	Precision float64
	Recall    float64
	AUCROC    float64
	Confusion *Confusion
}

func assembleReport(cm *Confusion, probs [][]float64, y []int, classes int) Report {
	return Report{
		Accuracy:  cm.Accuracy(),
		FPRate:    cm.WeightedFPRate(),
		Precision: cm.WeightedPrecision(),
		Recall:    cm.WeightedRecall(),
		AUCROC:    WeightedAUCROC(probs, y, classes),
		Confusion: cm,
	}
}
