package yourandvalue

import (
	"strconv"
	"strings"
	"sync"
	"testing"

	"yourandvalue/internal/detect"
)

// The study fixture is shared: Run at quick scale once.
var (
	studyOnce sync.Once
	study     *Study
	studyErr  error
)

func quickStudy(tb testing.TB) *Study {
	tb.Helper()
	studyOnce.Do(func() {
		study, studyErr = Run(QuickConfig())
	})
	if studyErr != nil {
		tb.Fatal(studyErr)
	}
	return study
}

// TestStudyDeterminism: identical seeds must reproduce identical studies
// end to end, including every derived figure.
func TestStudyDeterminism(t *testing.T) {
	cfg := QuickConfig()
	cfg.Scale = 0.02
	cfg.CampaignImpressionsPerSetup = 15
	cfg.ForestSize = 8
	cfg.CVFolds, cfg.CVRuns = 3, 1
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Trace.Requests) != len(b.Trace.Requests) {
		t.Fatal("traces differ")
	}
	for _, pair := range [][2]string{
		{a.Figure2().String(), b.Figure2().String()},
		{a.Figure17().String(), b.Figure17().String()},
		{a.Section54().String(), b.Section54().String()},
		{a.BaselineComparison().String(), b.BaselineComparison().String()},
	} {
		if pair[0] != pair[1] {
			t.Fatalf("figures differ under same seed:\n%s\nvs\n%s", pair[0], pair[1])
		}
	}
}

func TestRunValidatesConfig(t *testing.T) {
	if _, err := Run(Config{Scale: 0}); err == nil {
		t.Error("zero scale accepted")
	}
	if _, err := Run(Config{Scale: 2, CampaignImpressionsPerSetup: 10}); err == nil {
		t.Error("scale > 1 accepted")
	}
	cfg := QuickConfig()
	cfg.CampaignImpressionsPerSetup = 0
	if _, err := Run(cfg); err == nil {
		t.Error("zero campaign target accepted")
	}
}

func TestStudyArtifacts(t *testing.T) {
	s := quickStudy(t)
	if s.Trace == nil || s.Analysis == nil || s.A1 == nil || s.A2 == nil ||
		s.Model == nil || s.Baseline == nil || len(s.Costs) == 0 {
		t.Fatal("incomplete study")
	}
	if len(s.Analysis.Impressions) != s.Trace.RTBCount() {
		t.Errorf("analyzer found %d of %d impressions",
			len(s.Analysis.Impressions), s.Trace.RTBCount())
	}
	if len(s.A1.Records) == 0 || len(s.A2.Records) == 0 {
		t.Fatal("campaigns empty")
	}
	if s.Model.Metrics.Accuracy <= 0.25 {
		t.Errorf("model no better than chance: %v", s.Model.Metrics.Accuracy)
	}
}

// parsePct reads a "12.3%" cell.
func parsePct(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
	if err != nil {
		t.Fatalf("cannot parse pct %q: %v", cell, err)
	}
	return v / 100
}

// parseCPM reads a numeric cell.
func parseCPM(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatalf("cannot parse cpm %q: %v", cell, err)
	}
	return v
}

func TestTable1Parses(t *testing.T) {
	s := quickStudy(t)
	tab := s.Table1()
	if len(tab.Rows) != 3 {
		t.Fatalf("rows: %d", len(tab.Rows))
	}
	if tab.Rows[0][2] != "cleartext" || tab.Rows[0][3] != "0.950" {
		t.Errorf("row A: %v", tab.Rows[0])
	}
	if tab.Rows[1][2] != "encrypted" || tab.Rows[1][1] != "Rubicon" {
		t.Errorf("row B: %v", tab.Rows[1])
	}
	if tab.Rows[2][2] != "encrypted" || tab.Rows[2][4] != "300x250" {
		t.Errorf("row C: %v", tab.Rows[2])
	}
}

func TestFigure2Shape(t *testing.T) {
	s := quickStudy(t)
	tab := s.Figure2()
	if len(tab.Rows) != 12 {
		t.Fatalf("rows: %d", len(tab.Rows))
	}
	first := parsePct(t, tab.Rows[0][1])
	last := parsePct(t, tab.Rows[11][1])
	if last <= first {
		t.Errorf("encrypted pair share should rise: %.3f → %.3f", first, last)
	}
	prev := -1.0
	for _, row := range tab.Rows {
		v := parsePct(t, row[1])
		if v < prev-1e-9 {
			t.Error("share not monotone")
		}
		prev = v
	}
}

func TestFigure3Shape(t *testing.T) {
	s := quickStudy(t)
	tab := s.Figure3()
	if len(tab.Rows) < 5 {
		t.Fatalf("rows: %d", len(tab.Rows))
	}
	// MoPub must rank first by RTB share and carry an outsized share of
	// cleartext prices.
	if tab.Rows[0][0] != "MoPub" {
		t.Errorf("top entity = %s", tab.Rows[0][0])
	}
	rtbShare := parsePct(t, tab.Rows[0][1])
	clrShare := parsePct(t, tab.Rows[0][2])
	if clrShare <= rtbShare {
		t.Errorf("MoPub cleartext share %.3f should exceed its RTB share %.3f",
			clrShare, rtbShare)
	}
	// Cumulative column must be monotone and end near 100%.
	last := parsePct(t, tab.Rows[len(tab.Rows)-1][3])
	if last < 0.99 {
		t.Errorf("cumulative cleartext ends at %.3f", last)
	}
}

func TestTable3Counts(t *testing.T) {
	s := quickStudy(t)
	tab := s.Table3()
	if len(tab.Rows) != 5 {
		t.Fatalf("rows: %d", len(tab.Rows))
	}
	if tab.Rows[1][1] == "0" || tab.Rows[1][2] == "0" || tab.Rows[1][3] == "0" {
		t.Error("impression counts empty")
	}
}

func TestFigure5CityShape(t *testing.T) {
	s := quickStudy(t)
	tab := s.Figure5()
	if len(tab.Rows) != 10 {
		t.Fatalf("rows: %d", len(tab.Rows))
	}
	// Madrid (row 0) spread (p95/p5) should exceed Torello's (row 9) when
	// both have data; medians lower in the metro.
	if tab.Rows[0][0] != "Madrid" || tab.Rows[9][0] != "Torello" {
		t.Fatal("city order wrong")
	}
}

func TestFigure6MorningElevated(t *testing.T) {
	s := quickStudy(t)
	tab := s.Figure6()
	if len(tab.Rows) != 6 {
		t.Fatalf("rows: %d", len(tab.Rows))
	}
	morning := parseCPM(t, tab.Rows[2][4]) // 08:00-11:00 median
	night := parseCPM(t, tab.Rows[5][4])   // 20:00-23:00 median
	if morning <= night {
		t.Errorf("morning median %.3f should exceed evening %.3f", morning, night)
	}
}

func TestFigure8AndroidLead(t *testing.T) {
	s := quickStudy(t)
	tab := s.Figure8()
	androidTotal, iosTotal := 0.0, 0.0
	for _, row := range tab.Rows {
		if row[1] == "-" {
			continue
		}
		androidTotal += parsePct(t, row[1])
		iosTotal += parsePct(t, row[2])
	}
	// At quick scale (~80 users) heavy-tailed per-user activity makes the
	// ratio noisy; require the ordering here and check ≈2x at full scale
	// (see EXPERIMENTS.md).
	if androidTotal <= iosTotal {
		t.Errorf("Android share %.2f should exceed iOS %.2f", androidTotal, iosTotal)
	}
}

func TestFigure9Normalized(t *testing.T) {
	s := quickStudy(t)
	tab := s.Figure9()
	if len(tab.Rows) != 2 {
		t.Fatalf("rows: %d", len(tab.Rows))
	}
	a := parseCPM(t, tab.Rows[0][3])
	i := parseCPM(t, tab.Rows[1][3])
	// Normalized per user the two platforms should be comparable (within 2x).
	if a > 2*i || i > 2*a {
		t.Errorf("normalized imps/user: android %.1f vs ios %.1f", a, i)
	}
}

func TestFigure10IOSPremium(t *testing.T) {
	s := quickStudy(t)
	tab := s.Figure10()
	android := parseCPM(t, tab.Rows[0][4])
	ios := parseCPM(t, tab.Rows[1][4])
	if ios <= android {
		t.Errorf("iOS median %.3f should exceed Android %.3f", ios, android)
	}
}

func TestFigure11IABSpread(t *testing.T) {
	s := quickStudy(t)
	tab := s.Figure11()
	medians := map[string]float64{}
	for _, row := range tab.Rows {
		medians[row[0]] = parseCPM(t, row[4])
	}
	biz, hasBiz := medians["IAB3"]
	sci, hasSci := medians["IAB15"]
	if hasBiz && hasSci && biz < 5*sci {
		t.Errorf("IAB3 median %.3f should be ≫ IAB15 %.3f", biz, sci)
	}
	if len(medians) < 8 {
		t.Errorf("only %d IABs present", len(medians))
	}
}

func TestFigure12Takeover(t *testing.T) {
	s := quickStudy(t)
	tab := s.Figure12()
	if len(tab.Rows) != 12 {
		t.Fatalf("rows: %d", len(tab.Rows))
	}
	janBanner := parsePct(t, tab.Rows[0][1])
	janMPU := parsePct(t, tab.Rows[0][2])
	decBanner := parsePct(t, tab.Rows[11][1])
	decMPU := parsePct(t, tab.Rows[11][2])
	if janBanner <= janMPU {
		t.Errorf("January: banner %.3f vs MPU %.3f", janBanner, janMPU)
	}
	if decMPU <= decBanner {
		t.Errorf("December: MPU %.3f vs banner %.3f", decMPU, decBanner)
	}
}

func TestFigure13NotByArea(t *testing.T) {
	s := quickStudy(t)
	tab := s.Figure13()
	medians := map[string]float64{}
	for _, row := range tab.Rows {
		if row[4] != "-" {
			medians[row[0]] = parseCPM(t, row[4])
		}
	}
	// MPU must out-price the larger banner formats when present.
	if mpu, ok := medians["300x250"]; ok {
		if banner, ok2 := medians["320x50"]; ok2 && mpu <= banner {
			t.Errorf("MPU %.3f should exceed 320x50 %.3f", mpu, banner)
		}
	}
}

func TestFigure14RevenueConcentration(t *testing.T) {
	s := quickStudy(t)
	tab := s.Figure14()
	shares := map[string]float64{}
	for _, row := range tab.Rows {
		shares[row[0]] = parsePct(t, row[3])
	}
	if shares["300x250"] < 0.25 {
		t.Errorf("MPU revenue share %.3f too small (paper 64.3%% of Turn)", shares["300x250"])
	}
}

func TestSection44AppPremium(t *testing.T) {
	s := quickStudy(t)
	tab := s.Section44()
	app := parseCPM(t, tab.Rows[0][2])
	web := parseCPM(t, tab.Rows[1][2])
	if app/web < 1.8 {
		t.Errorf("app/web mean ratio %.2f, want ≈2.6", app/web)
	}
}

func TestFigure15EncryptedPremium(t *testing.T) {
	s := quickStudy(t)
	tab := s.Figure15()
	if len(tab.Rows) < 4 {
		t.Fatalf("common IABs: %d", len(tab.Rows))
	}
	higher := 0
	for _, row := range tab.Rows {
		if parseCPM(t, row[3]) > parseCPM(t, row[2]) {
			higher++
		}
	}
	if float64(higher) < 0.7*float64(len(tab.Rows)) {
		t.Errorf("A1 median above A2 in only %d/%d IABs", higher, len(tab.Rows))
	}
}

func TestSection54Metrics(t *testing.T) {
	s := quickStudy(t)
	tab := s.Section54()
	if len(tab.Rows) != 8 {
		t.Fatalf("rows: %d", len(tab.Rows))
	}
	acc := parsePct(t, tab.Rows[2][1])
	if acc < 0.50 {
		t.Errorf("accuracy %.3f", acc)
	}
}

func TestFigure16Ratios(t *testing.T) {
	s := quickStudy(t)
	tab := s.Figure16()
	if len(tab.Rows) != 5 {
		t.Fatalf("rows: %d", len(tab.Rows))
	}
	a1 := parseCPM(t, tab.Rows[0][3])
	a2 := parseCPM(t, tab.Rows[1][3])
	d15 := parseCPM(t, tab.Rows[3][3]) // D-mopub'15 median
	if a1 <= a2 {
		t.Errorf("A1 median %.3f should exceed A2 %.3f", a1, a2)
	}
	if a2 <= d15 {
		t.Errorf("2016 cleartext %.3f should exceed 2015 %.3f (time shift)", a2, d15)
	}
}

func TestFigure17Headlines(t *testing.T) {
	s := quickStudy(t)
	tab := s.Figure17()
	if len(tab.Rows) < 7 {
		t.Fatalf("rows: %d", len(tab.Rows))
	}
	// Total column strictly nondecreasing down the percentiles.
	prev := -1.0
	for _, row := range tab.Rows {
		if row[4] == "" {
			continue
		}
		v := parseCPM(t, row[4])
		if v < prev {
			t.Error("total percentiles not monotone")
		}
		prev = v
	}
	// Corrected cleartext ≥ raw cleartext at every percentile.
	for _, row := range tab.Rows {
		if row[1] == "" {
			continue
		}
		if parseCPM(t, row[2]) < parseCPM(t, row[1]) {
			t.Error("time correction should not lower cleartext")
		}
	}
}

func TestFigure18Regions(t *testing.T) {
	s := quickStudy(t)
	tab := s.Figure18()
	if len(tab.Rows) != 4 {
		t.Fatalf("rows: %d", len(tab.Rows))
	}
	clrDom := parsePct(t, tab.Rows[1][2])
	encDom := parsePct(t, tab.Rows[2][2])
	if clrDom <= encDom {
		t.Errorf("cleartext-dominant %.3f should exceed encrypted-dominant %.3f (paper ~75%%)",
			clrDom, encDom)
	}
}

func TestFigure19PerImpression(t *testing.T) {
	s := quickStudy(t)
	tab := s.Figure19()
	mc := parseCPM(t, tab.Rows[0][1])
	me := parseCPM(t, tab.Rows[1][1])
	if me <= mc {
		t.Errorf("encrypted per-impression median %.3f should exceed cleartext %.3f", me, mc)
	}
}

// encryptedVectors encodes the S vector of every encrypted impression
// detected in the first maxRequests requests of s's trace, for the
// study's model.
func encryptedVectors(s *Study, maxRequests int) [][]float64 {
	reqs := s.Trace.Requests
	if len(reqs) > maxRequests {
		reqs = reqs[:maxRequests]
	}
	eng := detect.NewEngine(detect.Config{Directory: s.Trace.Catalog.Directory()})
	var vecs [][]float64
	for _, r := range reqs {
		em := eng.Step(r.Detect())
		if em.Detected && em.Impression.Encrypted() {
			vec := make([]float64, s.Model.Features.Dim())
			s.Model.Features.EncodeImpressionInto(vec, em.Impression)
			vecs = append(vecs, vec)
		}
	}
	return vecs
}

// TestFlatBatchOnStudyModel checks the lockstep batch walk against the
// single-row walk on the study model's real encrypted-impression
// vectors: on every 8-row window (the size of a small estimate request)
// and on the whole set at once.
func TestFlatBatchOnStudyModel(t *testing.T) {
	s := quickStudy(t)
	vecs := encryptedVectors(s, 30000)
	if len(vecs) < 8 {
		t.Fatalf("%d encrypted vectors, want at least 8", len(vecs))
	}
	flat := s.Model.FlatForest()
	want := make([]int, len(vecs))
	for i, x := range vecs {
		want[i] = flat.Predict(x)
	}
	got := make([]int, len(vecs))
	flat.PredictInto(got, vecs)
	for i := range vecs {
		if got[i] != want[i] {
			t.Fatalf("whole set, row %d of %d: PredictInto %d, Predict %d", i, len(vecs), got[i], want[i])
		}
	}
	for w := 0; w+8 <= len(vecs); w++ {
		flat.PredictInto(got[:8], vecs[w:w+8])
		for i, c := range got[:8] {
			if c != want[w+i] {
				t.Fatalf("window at %d, row %d: PredictInto %d, Predict %d", w, i, c, want[w+i])
			}
		}
	}
}

func TestSection63Validation(t *testing.T) {
	s := quickStudy(t)
	tab := s.Section63()
	found := false
	for _, row := range tab.Rows {
		if row[0] == "same order of magnitude as ARPU" {
			found = true
			if row[1] != "true" {
				t.Errorf("validation failed: %v", tab.Rows)
			}
		}
	}
	if !found {
		t.Fatal("validation row missing")
	}
}

func TestBaselineComparison(t *testing.T) {
	s := quickStudy(t)
	tab := s.BaselineComparison()
	if len(tab.Rows) != 3 {
		t.Fatalf("rows: %d", len(tab.Rows))
	}
	ourErr := parseCPM(t, tab.Rows[1][2])
	baseErr := parseCPM(t, tab.Rows[2][2])
	// Per-impression, the feature-conditioned model must land closer to
	// the true encrypted median than the cleartext-equivalence estimate.
	if ourErr >= baseErr {
		t.Errorf("model median error %.3f not better than baseline %.3f", ourErr, baseErr)
	}
	// And the baseline's total must underestimate the true total (the
	// paper's core finding about the [62] assumption).
	truthTotal := parseCPM(t, tab.Rows[0][3])
	baseTotal := parseCPM(t, tab.Rows[2][3])
	if baseTotal >= truthTotal {
		t.Errorf("baseline total %.0f should underestimate truth %.0f", baseTotal, truthTotal)
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		ID:     "X",
		Title:  "demo",
		Header: []string{"a", "bb"},
		Notes:  []string{"note1"},
	}
	tab.AddRow("1", "2")
	tab.AddRowf("r", 1.5, 0.001)
	out := tab.String()
	for _, want := range []string{"== X — demo ==", "a", "bb", "note1", "1.500"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestFormatters(t *testing.T) {
	cases := map[float64]string{
		0: "0", 0.005: "0.0050", 1.5: "1.500", 55.5: "55.5", 2500: "2500",
	}
	for v, want := range cases {
		if got := FormatCPM(v); got != want {
			t.Errorf("FormatCPM(%v) = %q, want %q", v, got, want)
		}
	}
	if FormatPct(0.125) != "12.5%" {
		t.Error("FormatPct")
	}
}

func TestAblations(t *testing.T) {
	s := quickStudy(t)
	classes, err := s.AblationClasses([]int{2, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(classes.Rows) != 3 {
		t.Fatal("class ablation rows")
	}
	// Fewer classes → higher raw accuracy, but check the lift over chance
	// is substantial everywhere.
	for _, row := range classes.Rows {
		acc := parsePct(t, row[1])
		chance := parsePct(t, row[2])
		if acc < 1.5*chance {
			t.Errorf("classes=%s accuracy %.3f barely above chance %.3f", row[0], acc, chance)
		}
	}

	fam, err := s.AblationModelFamily()
	if err != nil {
		t.Fatal(err)
	}
	if len(fam.Rows) != 4 {
		t.Fatalf("family rows: %d", len(fam.Rows))
	}
	// Compare on mean absolute error (column 2): YourAdValue accumulates
	// sums, so tail errors matter and a constant central predictor must
	// not win.
	forestErr := parseCPM(t, fam.Rows[0][2])
	meanErr := parseCPM(t, fam.Rows[3][2])
	if forestErr >= meanErr {
		t.Errorf("forest mean error %.3f not better than mean-regression %.3f",
			forestErr, meanErr)
	}
	// The real regression tree must also beat the constant predictor —
	// and the classification pipeline should be at least competitive with
	// it (the paper's reason for shipping classification).
	regErr := parseCPM(t, fam.Rows[2][2])
	if regErr >= meanErr {
		t.Errorf("regression tree %.3f not better than constant mean %.3f", regErr, meanErr)
	}
}

func TestAllTables(t *testing.T) {
	s := quickStudy(t)
	tables, err := s.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) < 24 {
		t.Fatalf("All() returned %d tables", len(tables))
	}
	seen := map[string]bool{}
	for _, tab := range tables {
		if tab.ID == "" || len(tab.Header) == 0 {
			t.Fatalf("malformed table %+v", tab)
		}
		if seen[tab.ID] {
			t.Fatalf("duplicate table %s", tab.ID)
		}
		seen[tab.ID] = true
		if out := tab.String(); len(out) == 0 {
			t.Fatal("empty rendering")
		}
	}
	for _, id := range []string{"Figure 2", "Figure 17", "Section 5.4", "Table 3", "Baseline"} {
		if !seen[id] {
			t.Errorf("missing table %s", id)
		}
	}
}
