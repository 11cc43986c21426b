package yourandvalue

import (
	"context"
	"fmt"
	"sort"

	"yourandvalue/internal/analyzer"
	"yourandvalue/internal/campaign"
	"yourandvalue/internal/core"
	"yourandvalue/internal/iab"
	"yourandvalue/internal/mlkit"
	"yourandvalue/internal/nurl"
	"yourandvalue/internal/stats"
)

// Section51 runs the dimensionality-reduction bootstrap: full Table 4
// feature space vs the selected S subset, with the precision/recall loss
// the paper bounds at <2% and <6%.
func (s *Study) Section51(sampleCap int) (*Table, error) {
	pme := core.NewPME(s.Config.Seed + 10)
	pme.ForestSize = min(s.Config.ForestSize, 20)
	red, err := pme.ReduceDimensions(s.Analysis, sampleCap)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "Section 5.1",
		Title:  "Dimensionality reduction: full feature space F vs selected subset S",
		Header: []string{"model", "features", "precision", "recall", "AUC-ROC"},
	}
	t.AddRow("full F", fmt.Sprint(red.FullDim),
		FormatPct(red.FullReport.Precision), FormatPct(red.FullReport.Recall),
		fmt.Sprintf("%.3f", red.FullReport.AUCROC))
	t.AddRow("reduced S", fmt.Sprint(red.ReducedDim),
		FormatPct(red.ReducedReport.Precision), FormatPct(red.ReducedReport.Recall),
		fmt.Sprintf("%.3f", red.ReducedReport.AUCROC))
	t.AddRow("loss", "-",
		FormatPct(red.PrecisionLoss), FormatPct(red.RecallLoss), "-")

	groups := make([]string, 0, len(red.GroupImportance))
	for g := range red.GroupImportance {
		groups = append(groups, g)
	}
	sort.Slice(groups, func(i, j int) bool {
		return red.GroupImportance[groups[i]] > red.GroupImportance[groups[j]]
	})
	for _, g := range groups {
		t.Notes = append(t.Notes, fmt.Sprintf("group %-5s importance %s",
			g, FormatPct(red.GroupImportance[g])))
	}
	t.Notes = append(t.Notes, "paper: precision loss <2%, recall loss <6% after 288→8-feature reduction")
	return t, nil
}

// Table5Section52 reports the campaign-planning arithmetic: the 144-setup
// grid and the §5.2 margin-of-error/sample-size numbers, evaluated on the
// observed campaign price moments.
func (s *Study) Table5Section52() *Table {
	t := &Table{
		ID:     "Table 5 / §5.2",
		Title:  "Campaign grid and sample-size planning",
		Header: []string{"quantity", "value"},
	}
	grid := campaign.Grid(nil)
	t.AddRow("experimental setups", fmt.Sprint(len(grid)))

	prices := append(s.A1.Prices(), s.A2.Prices()...)
	mean, _ := stats.Mean(prices)
	std, _ := stats.StdDev(prices)
	t.AddRow("campaign price mean (CPM)", FormatCPM(mean))
	t.AddRow("campaign price std (CPM)", FormatCPM(std))

	if d, err := stats.MarginOfError(std, len(grid), 0.95); err == nil {
		t.AddRow("95% CI margin with 144 setups (CPM)", FormatCPM(d))
	}
	if n, err := stats.SampleSizeForMean(std, 0.35, 0.95); err == nil {
		t.AddRow("setups needed for ±0.35 CPM", fmt.Sprint(n))
	}
	// Within-setup spread drives the per-campaign impression minimum.
	if n, err := campaign.PlanImpressions(0.694, 0.1, 0.95); err == nil {
		t.AddRow("min impressions per campaign (±0.1 CPM, paper spread)", fmt.Sprint(n))
	}
	t.AddRow("A1 spend (USD)", fmt.Sprintf("%.2f", s.A1.SpentUSD))
	t.AddRow("A2 spend (USD)", fmt.Sprintf("%.2f", s.A2.SpentUSD))
	t.AddRow("A1 win rate", FormatPct(s.A1.WinRate()))
	t.Notes = append(t.Notes,
		"paper: m=1.84 sd=2.15 CPM → ±0.35 CPM at 95% CI with 144 setups; ≥185 imps per campaign for ±0.1")
	return t
}

// Figure15 compares per-IAB CPM across the three sources: the 2-month
// MoPub slice of D, the cleartext campaign (A2), and the encrypted
// campaign (A1).
func (s *Study) Figure15() *Table {
	t := &Table{
		ID:     "Figure 15",
		Title:  "CPM per IAB category: dataset vs probing campaigns",
		Header: []string{"IAB", "D-MoPub median", "A2 clr median", "A1 enc median"},
	}
	dPrices := map[iab.Category][]float64{}
	for _, imp := range s.Analysis.Impressions {
		if imp.Notification.ADX != "MoPub" || imp.Notification.Kind != nurl.Cleartext {
			continue
		}
		if imp.Month != 7 && imp.Month != 8 {
			continue
		}
		dPrices[imp.Category] = append(dPrices[imp.Category], imp.Notification.PriceCPM)
	}
	a1 := map[iab.Category][]float64{}
	for _, r := range s.A1.Records {
		a1[r.Category] = append(a1[r.Category], r.ChargeCPM)
	}
	a2 := map[iab.Category][]float64{}
	for _, r := range s.A2.Records {
		a2[r.Category] = append(a2[r.Category], r.ChargeCPM)
	}
	var common []iab.Category
	for c := range a1 {
		if len(a2[c]) > 0 && len(dPrices[c]) > 0 {
			common = append(common, c)
		}
	}
	sort.Slice(common, func(i, j int) bool { return common[i] < common[j] })
	higher := 0
	for _, c := range common {
		md, _ := stats.Median(dPrices[c])
		m2, _ := stats.Median(a2[c])
		m1, _ := stats.Median(a1[c])
		if m1 > m2 {
			higher++
		}
		t.AddRow(c.String(), FormatCPM(md), FormatCPM(m2), FormatCPM(m1))
	}
	if len(common) > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"encrypted median above cleartext in %d/%d common categories (paper: always higher)",
			higher, len(common)))
	}
	return t
}

// Section54 reports the encrypted-price classifier's cross-validated
// metrics — the paper's headline TP=82.9%, FP=6.8%, Precision=83.5%,
// Recall=82.9%, AUC-ROC=0.964.
func (s *Study) Section54() *Table {
	m := s.Model.Metrics
	t := &Table{
		ID:     "Section 5.4",
		Title:  "Encrypted-price classifier (10-fold CV on A1 ground truth)",
		Header: []string{"metric", "measured", "paper"},
	}
	t.AddRow("classes", fmt.Sprint(m.Classes), "4")
	t.AddRow("training records", fmt.Sprint(m.TrainSize), "632,667")
	t.AddRow("TP rate / accuracy", FormatPct(m.Accuracy), "82.9%")
	t.AddRow("FP rate", FormatPct(m.FPRate), "6.8%")
	t.AddRow("precision", FormatPct(m.Precision), "83.5%")
	t.AddRow("recall", FormatPct(m.Recall), "82.9%")
	t.AddRow("AUC-ROC", fmt.Sprintf("%.3f", m.AUCROC), "0.964")
	t.AddRow("time-shift coefficient", fmt.Sprintf("%.3f", s.Model.TimeShift), "(2015→2016)")
	return t
}

// trainValidated trains a model and waits for its cross-validation,
// returning the model with its §5.4 metrics filled in.
func trainValidated(pme *core.PME, records []campaign.Record, cfg core.TrainConfig) (*core.Model, error) {
	m, err := pme.Train(records, cfg)
	if err != nil {
		return nil, err
	}
	if m.Metrics, err = m.CV.Wait(context.Background()); err != nil {
		return nil, err
	}
	return m, nil
}

// AblationClasses retrains the §5.4 classifier with different price-class
// counts; the paper found 4 optimal against 5–10.
func (s *Study) AblationClasses(ks []int) (*Table, error) {
	t := &Table{
		ID:     "Ablation: classes",
		Title:  "Price-class count vs classifier quality",
		Header: []string{"classes", "accuracy", "chance", "lift", "AUC-ROC"},
	}
	for _, k := range ks {
		pme := core.NewPME(s.Config.Seed + 20)
		pme.Classes = k
		pme.ForestSize = min(s.Config.ForestSize, 20)
		pme.CVFolds, pme.CVRuns = 5, 1
		m, err := trainValidated(pme, s.A1.Records, core.TrainConfig{})
		if err != nil {
			return nil, err
		}
		chance := 1.0 / float64(k)
		t.AddRow(fmt.Sprint(k), FormatPct(m.Metrics.Accuracy), FormatPct(chance),
			fmt.Sprintf("%.2fx", m.Metrics.Accuracy/chance),
			fmt.Sprintf("%.3f", m.Metrics.AUCROC))
	}
	t.Notes = append(t.Notes, "paper: 4 classes outperformed 5-10 for price estimation")
	return t, nil
}

// AblationPublisher reproduces the §5.4 overfitting caution: publisher
// identity raises apparent CV accuracy but does not generalize.
func (s *Study) AblationPublisher() (*Table, error) {
	t := &Table{
		ID:     "Ablation: publisher feature",
		Title:  "Exact-publisher identity vs IAB-only features",
		Header: []string{"variant", "features", "CV accuracy", "AUC-ROC"},
	}
	pme := core.NewPME(s.Config.Seed + 21)
	pme.ForestSize = min(s.Config.ForestSize, 16)
	pme.CVFolds, pme.CVRuns = 5, 1
	without, err := trainValidated(pme, s.A1.Records, core.TrainConfig{})
	if err != nil {
		return nil, err
	}
	with, err := trainValidated(pme, s.A1.Records, core.TrainConfig{WithPublishers: true})
	if err != nil {
		return nil, err
	}
	t.AddRow("IAB only (shipped)", fmt.Sprint(without.Features.Dim()),
		FormatPct(without.Metrics.Accuracy), fmt.Sprintf("%.3f", without.Metrics.AUCROC))
	t.AddRow("+publisher (overfits)", fmt.Sprint(with.Features.Dim()),
		FormatPct(with.Metrics.Accuracy), fmt.Sprintf("%.3f", with.Metrics.AUCROC))
	t.Notes = append(t.Notes,
		"paper: 82.9% → 95% with publisher, rejected as overfitting (campaign publishers ⊂ web)")
	return t, nil
}

// AblationModelFamily compares the RF against a single CART tree and the
// regression-to-the-mean strawman (§5.4 notes plain regressions performed
// poorly).
func (s *Study) AblationModelFamily() (*Table, error) {
	t := &Table{
		ID:     "Ablation: model family",
		Title:  "Estimator family vs per-impression error on campaign holdout",
		Header: []string{"model", "median abs err (CPM)", "mean abs err (CPM)"},
	}
	records := s.A1.Records
	if len(records) < 100 {
		return nil, core.ErrNoTrainingData
	}
	// Deterministic interleaved 80/20 split: records arrive grouped by
	// setup, so stratify by taking every fifth record as test.
	var train, test []campaign.Record
	for i, r := range records {
		if i%5 == 4 {
			test = append(test, r)
		} else {
			train = append(train, r)
		}
	}

	pme := core.NewPME(s.Config.Seed + 22)
	pme.ForestSize = min(s.Config.ForestSize, 20)
	pme.CVFolds, pme.CVRuns = 5, 1
	model, err := pme.Train(train, core.TrainConfig{})
	if err != nil {
		return nil, err
	}
	model.CV.Stop() // the ablation reads only held-out errors
	trainPrices := make([]float64, len(train))
	trainX := make([][]float64, len(train))
	for i, r := range train {
		trainPrices[i] = r.ChargeCPM
		trainX[i] = model.Features.FromRecord(r)
	}
	meanPrice, _ := stats.Mean(trainPrices)
	// The §5.4 regression attempt, as a real CART regression tree over the
	// same S features.
	regTree, err := mlkit.TrainRegressionTree(trainX, trainPrices, mlkit.TreeConfig{
		MaxDepth: 12, MinLeaf: 5, Seed: s.Config.Seed + 23,
	})
	if err != nil {
		return nil, err
	}

	abs := func(v float64) float64 {
		if v < 0 {
			return -v
		}
		return v
	}
	var errForest, errTree, errReg, errMean []float64
	for _, r := range test {
		x := model.Features.FromRecord(r)
		errForest = append(errForest, abs(model.EstimateCPM(x)-r.ChargeCPM))
		errTree = append(errTree, abs(model.EstimateCPMTree(x)-r.ChargeCPM))
		errReg = append(errReg, abs(regTree.Predict(x)-r.ChargeCPM))
		errMean = append(errMean, abs(meanPrice-r.ChargeCPM))
	}
	for _, row := range []struct {
		name string
		errs []float64
	}{
		{"random forest (shipped)", errForest},
		{"single CART tree (client)", errTree},
		{"CART regression tree", errReg},
		{"mean-price regression", errMean},
	} {
		med, _ := stats.Median(row.errs)
		mean, _ := stats.Mean(row.errs)
		t.AddRow(row.name, FormatCPM(med), FormatCPM(mean))
	}
	t.Notes = append(t.Notes, "paper: regression had high error; classification over 4 classes shipped")
	return t, nil
}

// Figure16 compares the encrypted and cleartext price distributions across
// datasets and time periods.
func (s *Study) Figure16() *Table {
	t := &Table{
		ID:     "Figure 16",
		Title:  "Price distributions: encrypted vs cleartext across periods",
		Header: []string{"series", "n", "p25", "median", "p75", "p95"},
	}
	series := []struct {
		name   string
		prices []float64
	}{
		{"A1-encrypted'16", s.A1.Prices()},
		{"A2-mopub'16", s.A2.Prices()},
		{"D-cleartext'15", s.pricesWhere(nil)},
		{"D-mopub'15", s.pricesWhere(func(i analyzer.Impression) bool {
			return i.Notification.ADX == "MoPub"
		})},
		{"D-mopub'15(2m)", s.pricesWhere(func(i analyzer.Impression) bool {
			return i.Notification.ADX == "MoPub" && (i.Month == 7 || i.Month == 8)
		})},
	}
	medians := map[string]float64{}
	for _, sr := range series {
		sum, err := stats.Summarize(sr.prices)
		if err != nil {
			t.AddRow(sr.name, "0", "-", "-", "-", "-")
			continue
		}
		medians[sr.name] = sum.P50
		t.AddRow(sr.name, fmt.Sprint(sum.N), FormatCPM(sum.P25),
			FormatCPM(sum.P50), FormatCPM(sum.P75), FormatCPM(sum.P95))
	}
	if medians["A2-mopub'16"] > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"encrypted/cleartext median ratio (A1/A2) = %.2f (paper ≈1.7)",
			medians["A1-encrypted'16"]/medians["A2-mopub'16"]))
	}
	if medians["D-mopub'15"] > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"2016/2015 cleartext shift (A2 / D-mopub) = %.2f (the §6.2 time correction)",
			medians["A2-mopub'16"]/medians["D-mopub'15"]))
	}
	// KS test: A1 vs A2 distributions genuinely differ.
	if ks, err := stats.KolmogorovSmirnov(s.A1.Prices(), s.A2.Prices()); err == nil {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"KS A1-vs-A2: D=%.3f p=%.2g (paper: distributions 'distinctly different')", ks.D, ks.P))
	}
	return t
}
