package mlkit

import (
	"math"
	"testing"

	"yourandvalue/internal/stats"
)

// rmse scores a regression tree on a labelled set.
func rmse(t *RegressionTree, X [][]float64, y []float64) float64 {
	sse := 0.0
	for i, x := range X {
		d := t.Predict(x) - y[i]
		sse += d * d
	}
	return math.Sqrt(sse / float64(len(X)))
}

func TestRegressionTreeLearnsStep(t *testing.T) {
	rng := stats.NewRand(1)
	var X [][]float64
	var y []float64
	for i := 0; i < 600; i++ {
		a := rng.Float64()
		X = append(X, []float64{a, rng.Float64()})
		v := 1.0
		if a > 0.5 {
			v = 5.0
		}
		y = append(y, v+rng.Normal(0, 0.1))
	}
	tree, err := TrainRegressionTree(X, y, TreeConfig{MaxDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	if e := rmse(tree, X, y); e > 0.2 {
		t.Errorf("step-function RMSE %.3f", e)
	}
	if v := tree.Predict([]float64{0.9, 0.5}); v < 4 || v > 6 {
		t.Errorf("Predict(high) = %v", v)
	}
	if v := tree.Predict([]float64{0.1, 0.5}); v < 0.5 || v > 1.5 {
		t.Errorf("Predict(low) = %v", v)
	}
}

func TestRegressionTreeValidation(t *testing.T) {
	if _, err := TrainRegressionTree(nil, nil, TreeConfig{}); err != ErrBadTrainingData {
		t.Error("empty accepted")
	}
	if _, err := TrainRegressionTree([][]float64{{1}, {2, 3}}, []float64{1, 2}, TreeConfig{}); err != ErrBadTrainingData {
		t.Error("ragged accepted")
	}
}

func TestRegressionTreeConstantTarget(t *testing.T) {
	X := [][]float64{{1}, {2}, {3}}
	y := []float64{7, 7, 7}
	tree, err := TrainRegressionTree(X, y, TreeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Predict([]float64{99}) != 7 {
		t.Error("constant target should yield a single leaf")
	}
}

// TestRegressionHighErrorOnHeavyTail reproduces the §5.4 observation: on
// heavy-tailed (log-normal) prices with limited features, regression
// yields high error relative to the class-then-representative approach.
func TestRegressionHighErrorOnHeavyTail(t *testing.T) {
	rng := stats.NewRand(3)
	var X [][]float64
	var prices []float64
	for i := 0; i < 2000; i++ {
		f := float64(rng.Intn(3)) // weak categorical feature
		X = append(X, []float64{f})
		// price = structural × heavy noise
		prices = append(prices, (0.5+f)*rng.LogNormal(0, 1.0))
	}
	tree, err := TrainRegressionTree(X, prices, TreeConfig{MaxDepth: 6})
	if err != nil {
		t.Fatal(err)
	}
	med, _ := stats.Median(prices)
	// RMSE of the regression should be large relative to the median price
	// — the "high variability → low performance" effect.
	if e := rmse(tree, X, prices); e < med {
		t.Errorf("expected high regression error on heavy tail: RMSE %.3f vs median %.3f", e, med)
	}
}
