package yourandvalue

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (DESIGN.md maps each benchmark to its experiment) and
// measures the hot paths of the library. Each figure benchmark logs the
// produced rows once, so `go test -bench . -benchmem` doubles as the
// experiment reproduction run recorded in EXPERIMENTS.md.

import (
	"context"
	"testing"

	"yourandvalue/internal/analyzer"
	"yourandvalue/internal/baseline"
	"yourandvalue/internal/campaign"
	"yourandvalue/internal/core"
	"yourandvalue/internal/detect"
	"yourandvalue/internal/geoip"
	"yourandvalue/internal/mlkit"
	"yourandvalue/internal/nurl"
	"yourandvalue/internal/priceenc"
	"yourandvalue/internal/rtb"
	"yourandvalue/internal/trafficclass"
	"yourandvalue/internal/useragent"
	"yourandvalue/internal/weblog"
)

// benchTable runs a table generator under the benchmark clock and logs the
// result once.
func benchTable(b *testing.B, gen func() *Table) {
	b.Helper()
	var tbl *Table
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl = gen()
	}
	b.StopTimer()
	if tbl != nil {
		b.Logf("\n%s", tbl.String())
	}
}

func BenchmarkTable1NURLParsing(b *testing.B) {
	s := quickStudy(b)
	benchTable(b, s.Table1)
}

func BenchmarkFigure2EncryptedPairsOverTime(b *testing.B) {
	s := quickStudy(b)
	benchTable(b, s.Figure2)
}

func BenchmarkFigure3CleartextVsRTBShare(b *testing.B) {
	s := quickStudy(b)
	benchTable(b, s.Figure3)
}

func BenchmarkTable3DatasetSummary(b *testing.B) {
	s := quickStudy(b)
	benchTable(b, s.Table3)
}

func BenchmarkFigure5PricePerCity(b *testing.B) {
	s := quickStudy(b)
	benchTable(b, s.Figure5)
}

func BenchmarkFigure6PriceByTimeOfDay(b *testing.B) {
	s := quickStudy(b)
	benchTable(b, s.Figure6)
}

func BenchmarkFigure7PriceByDayOfWeek(b *testing.B) {
	s := quickStudy(b)
	benchTable(b, s.Figure7)
}

func BenchmarkFigure8RTBShareByOS(b *testing.B) {
	s := quickStudy(b)
	benchTable(b, s.Figure8)
}

func BenchmarkFigure9NormalizedRTBShare(b *testing.B) {
	s := quickStudy(b)
	benchTable(b, s.Figure9)
}

func BenchmarkFigure10PricePerOS(b *testing.B) {
	s := quickStudy(b)
	benchTable(b, s.Figure10)
}

func BenchmarkFigure11CostPerIAB(b *testing.B) {
	s := quickStudy(b)
	benchTable(b, s.Figure11)
}

func BenchmarkFigure12SlotPopularity(b *testing.B) {
	s := quickStudy(b)
	benchTable(b, s.Figure12)
}

func BenchmarkFigure13PricePerSlot(b *testing.B) {
	s := quickStudy(b)
	benchTable(b, s.Figure13)
}

func BenchmarkFigure14RevenuePerSlot(b *testing.B) {
	s := quickStudy(b)
	benchTable(b, s.Figure14)
}

func BenchmarkSection44AppVsWeb(b *testing.B) {
	s := quickStudy(b)
	benchTable(b, s.Section44)
}

func BenchmarkSection51DimensionalityReduction(b *testing.B) {
	s := quickStudy(b)
	var tbl *Table
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := s.Section51(1200)
		if err != nil {
			b.Fatal(err)
		}
		tbl = t
	}
	b.StopTimer()
	b.Logf("\n%s", tbl.String())
}

func BenchmarkTable5CampaignPlanning(b *testing.B) {
	s := quickStudy(b)
	benchTable(b, s.Table5Section52)
}

func BenchmarkFigure15CampaignVsDataset(b *testing.B) {
	s := quickStudy(b)
	benchTable(b, s.Figure15)
}

func BenchmarkSection54ClassifierAccuracy(b *testing.B) {
	s := quickStudy(b)
	benchTable(b, s.Section54)
}

func BenchmarkFigure16EncVsClrDistributions(b *testing.B) {
	s := quickStudy(b)
	benchTable(b, s.Figure16)
}

func BenchmarkFigure17CumulativeUserCost(b *testing.B) {
	s := quickStudy(b)
	benchTable(b, s.Figure17)
}

func BenchmarkFigure18TotalClrVsEnc(b *testing.B) {
	s := quickStudy(b)
	benchTable(b, s.Figure18)
}

func BenchmarkFigure19AvgPricePerImpression(b *testing.B) {
	s := quickStudy(b)
	benchTable(b, s.Figure19)
}

func BenchmarkSection63Validation(b *testing.B) {
	s := quickStudy(b)
	benchTable(b, s.Section63)
}

func BenchmarkBaselineVsYourAdValue(b *testing.B) {
	s := quickStudy(b)
	benchTable(b, s.BaselineComparison)
}

// --- Ablation benchmarks (DESIGN.md "Ablations") ---

func BenchmarkAblationClasses(b *testing.B) {
	s := quickStudy(b)
	var tbl *Table
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := s.AblationClasses([]int{2, 4, 8})
		if err != nil {
			b.Fatal(err)
		}
		tbl = t
	}
	b.StopTimer()
	b.Logf("\n%s", tbl.String())
}

func BenchmarkAblationModelFamily(b *testing.B) {
	s := quickStudy(b)
	var tbl *Table
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := s.AblationModelFamily()
		if err != nil {
			b.Fatal(err)
		}
		tbl = t
	}
	b.StopTimer()
	b.Logf("\n%s", tbl.String())
}

func BenchmarkAblationPublisherOverfit(b *testing.B) {
	s := quickStudy(b)
	var tbl *Table
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := s.AblationPublisher()
		if err != nil {
			b.Fatal(err)
		}
		tbl = t
	}
	b.StopTimer()
	b.Logf("\n%s", tbl.String())
}

// --- Pipeline vs sequential seed path ---

// benchConfig is a full study small enough to iterate under the
// benchmark clock.
func benchConfig() Config {
	return Config{
		Seed: 7, Scale: 0.03, CampaignImpressionsPerSetup: 40,
		ForestSize: 8, CVFolds: 3, CVRuns: 1,
	}
}

// runSequentialSeedPath replicates the shape of the seed repository's
// one-shot Run body: stages strictly in sequence, campaigns one after
// the other, cost estimation unsharded. (Auction demand now flows
// through per-campaign probe sessions everywhere, so the draws differ
// from the historical seed output; the stage structure and workload are
// what this baseline preserves.) It is the sequential path the staged
// pipeline must not regress against.
func runSequentialSeedPath(cfg Config) (*Study, error) {
	eco := rtb.NewEcosystem(rtb.EcosystemConfig{Seed: cfg.Seed + 1})
	wcfg := weblog.DefaultConfig().Scaled(cfg.Scale)
	wcfg.Seed = cfg.Seed
	wcfg.Ecosystem = eco
	trace := weblog.Generate(wcfg)

	res := analyzer.New(trace.Catalog.Directory()).Analyze(trace.Requests)

	eng := campaign.NewEngine(eco)
	a1, err := eng.Run(campaign.A1Config(trace.Catalog, cfg.CampaignImpressionsPerSetup, cfg.Seed+2))
	if err != nil {
		return nil, err
	}
	a2, err := eng.Run(campaign.A2Config(trace.Catalog, cfg.CampaignImpressionsPerSetup, cfg.Seed+3))
	if err != nil {
		return nil, err
	}

	pme := core.NewPME(cfg.Seed + 4)
	pme.ForestSize = cfg.ForestSize
	pme.CVFolds, pme.CVRuns = cfg.CVFolds, cfg.CVRuns
	model, err := pme.Train(a1.Records, core.TrainConfig{
		CleartextReference2015: res.CleartextPrices(func(i analyzer.Impression) bool {
			return i.Notification.ADX == campaign.CleartextADX
		}),
		CleartextCampaign: a2.Records,
	})
	if err != nil {
		return nil, err
	}
	return &Study{
		Config: cfg, Ecosystem: eco, Trace: trace, Analysis: res,
		A1: a1, A2: a2, Model: model,
		Costs:    core.BatchEstimate(res, model),
		Baseline: baseline.New(res),
	}, nil
}

func BenchmarkStudySequentialSeedPath(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := runSequentialSeedPath(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStudyPipelineStaged(b *testing.B) {
	p, err := NewPipeline(WithConfig(benchConfig()))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := p.Execute(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// pointerVote is the pre-flat forest walk BenchmarkDetectEngine keeps as
// its baseline: every tree's *Node chase, then the majority vote (ties
// to the lower class) in a caller-owned tally.
func pointerVote(f *mlkit.Forest, votes []int, x []float64) int {
	clear(votes)
	for _, t := range f.Trees {
		votes[t.Predict(x)]++
	}
	best := 0
	for c, v := range votes {
		if v > votes[best] {
			best = c
		}
	}
	return best
}

// --- Shared detection engine vs the pre-refactor string path ---

// BenchmarkDetectEngine pits the shared internal/detect engine (interned
// symbols, cached sub-lookups, allocation-free nURL parse, scratch-buffer
// encode) against the pre-refactor string path it replaced: uncached
// classification, net/url parsing, per-impression UA/geo lookups and a
// freshly allocated S vector per estimate. Run with -benchmem; the B/op
// gap is the refactor's headline.
func BenchmarkDetectEngine(b *testing.B) {
	s := quickStudy(b)
	reqs := s.Trace.Requests
	if len(reqs) > 30000 {
		reqs = reqs[:30000]
	}
	dir := s.Trace.Catalog.Directory()
	model := s.Model

	b.Run("engine", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng := detect.NewEngine(detect.Config{Directory: dir})
			vec := make([]float64, model.Features.Dim())
			for _, r := range reqs {
				em := eng.Step(r.Detect())
				if em.Detected && em.Impression.Encrypted() {
					model.Features.EncodeImpressionInto(vec, em.Impression)
					model.EstimateCPM(vec)
				}
			}
		}
		b.ReportMetric(float64(len(reqs)), "requests/op")
	})

	b.Run("legacy-strings", func(b *testing.B) {
		registry := nurl.Default()
		classifier := trafficclass.DefaultClassifier()
		geo := geoip.Default()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			lastPage := make(map[int]string)
			for _, r := range reqs {
				switch classifier.Classify(r.Host) {
				case trafficclass.Rest:
					lastPage[r.UserID] = r.Host
				case trafficclass.Advertising:
					n, ok := registry.ParseReference(r.URL)
					if !ok {
						continue
					}
					pub := lastPage[r.UserID]
					if pub == "" {
						pub = n.Publisher
					}
					imp := analyzer.Impression{
						Time: r.Time, Month: int(r.Time.Month()), UserID: r.UserID,
						Notification: n,
						City:         geo.LookupString(r.ClientIP),
						Device:       useragent.Parse(r.UserAgent),
						Publisher:    pub,
						Category:     dir.Lookup(pub),
					}
					if imp.Encrypted() {
						model.EstimateCPM(model.Features.FromImpression(imp))
					}
				}
			}
		}
		b.ReportMetric(float64(len(reqs)), "requests/op")
	})

	// The estimate leg in isolation: same encoded vectors, four walks.
	// "pointer" is the pre-flat baseline (heap-scattered *Node chase per
	// tree), "flat" the SoA walk EstimateCPM now routes through,
	// "flat-batch" the tree-major batch walk the server paths use, and
	// "flat-window8" that walk on 8-row windows, the shape of one
	// estimate-small request.
	b.Run("estimate", func(b *testing.B) {
		vecs := encryptedVectors(s, len(reqs))
		if len(vecs) == 0 {
			b.Fatal("no encrypted impressions in the bench trace")
		}
		forest, binner := model.Forest, model.Binner
		flat := model.FlatForest()
		sink := 0.0

		b.Run("pointer", func(b *testing.B) {
			b.ReportAllocs()
			votes := make([]int, forest.Classes)
			for i := 0; i < b.N; i++ {
				sink += binner.Representative(pointerVote(forest, votes, vecs[i%len(vecs)]))
			}
			_ = sink
		})
		b.Run("flat", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sink += model.EstimateCPM(vecs[i%len(vecs)])
			}
			_ = sink
		})
		b.Run("flat-batch", func(b *testing.B) {
			cls := make([]int, len(vecs))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				flat.PredictInto(cls, vecs)
			}
			b.StopTimer()
			for _, c := range cls {
				sink += binner.Representative(c)
			}
			_ = sink
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(vecs)), "ns/vec")
		})
		b.Run("flat-window8", func(b *testing.B) {
			const window = 8
			cls := make([]int, window)
			windows := len(vecs) / window
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w := i % windows * window
				flat.PredictInto(cls, vecs[w:w+window])
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*window), "ns/vec")
		})
	})
}

// --- Hot-path micro-benchmarks ---

func BenchmarkNURLParse(b *testing.B) {
	reg := nurl.Default()
	raw := "http://cpp.imp.mpx.mopub.com/imp?ad_domain=amazon.es&ads_creative_id=ID&" +
		"bid_price=0.99&bidder_name=dsp&charge_price=0.95&currency=USD&mopub_id=ID&pub_name=p"
	b.Run("span", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok := reg.Parse(raw); !ok {
				b.Fatal("parse failed")
			}
		}
	})
	b.Run("neturl-reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok := reg.ParseReference(raw); !ok {
				b.Fatal("parse failed")
			}
		}
	})
}

func BenchmarkNURLParseMiss(b *testing.B) {
	reg := nurl.Default()
	raw := "http://elpais.es/politica/articulo-largo.html?utm_source=x&utm_medium=y"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := reg.Parse(raw); ok {
			b.Fatal("false positive")
		}
	}
}

func BenchmarkPriceEncrypt(b *testing.B) {
	s := priceenc.MustNew([]byte("bench-enc-key-0123456789abcdef00"),
		[]byte("bench-sig-key-0123456789abcdef00"))
	iv := make([]byte, priceenc.IVSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Encrypt(1.84, iv); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPriceDecrypt(b *testing.B) {
	s := priceenc.MustNew([]byte("bench-enc-key-0123456789abcdef00"),
		[]byte("bench-sig-key-0123456789abcdef00"))
	iv := make([]byte, priceenc.IVSize)
	tok, err := s.Encrypt(1.84, iv)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Decrypt(tok); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAuction(b *testing.B) {
	eco := rtb.NewEcosystem(rtb.EcosystemConfig{Seed: 9})
	ctx := rtb.Context{
		City: 1, OS: 1, Device: 1, Origin: 1,
		Publisher: "bench.example", Category: 12,
		Slot: rtb.Slot300x250, UserValue: 1,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eco.Serve(ctx, 6)
	}
}

func BenchmarkModelEstimate(b *testing.B) {
	s := quickStudy(b)
	imp := s.Analysis.Impressions[0]
	x := s.Model.Features.FromImpression(imp)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Model.EstimateCPM(x)
	}
}

func BenchmarkFeatureVector(b *testing.B) {
	s := quickStudy(b)
	imp := s.Analysis.Impressions[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Model.Features.FromImpression(imp)
	}
}

func BenchmarkClientProcess(b *testing.B) {
	s := quickStudy(b)
	client := core.NewClient(s.Model, s.Trace.Catalog.Directory())
	reqs := s.Trace.Requests
	if len(reqs) > 10000 {
		reqs = reqs[:10000]
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		client.Process(reqs[i%len(reqs)])
	}
}

func BenchmarkAnalyzerFull(b *testing.B) {
	cfg := weblog.DefaultConfig().Scaled(0.01)
	cfg.Seed = 3
	trace := weblog.Generate(cfg)
	an := analyzer.New(trace.Catalog.Directory())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		an.Analyze(trace.Requests)
	}
	b.StopTimer()
	b.ReportMetric(float64(len(trace.Requests)), "requests/op")
}

func BenchmarkTraceGeneration(b *testing.B) {
	cfg := weblog.DefaultConfig().Scaled(0.01)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		weblog.Generate(cfg)
	}
}

func BenchmarkCampaignRun(b *testing.B) {
	eco := rtb.NewEcosystem(rtb.EcosystemConfig{Seed: 21})
	cat := weblog.NewCatalog(100, 50)
	eng := campaign.NewEngine(eco)
	setups := campaign.Grid(campaign.EncryptedADXs)[:12]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(campaign.Config{
			Setups: setups, ImpressionsPerSetup: 20,
			MaxBidCPM: 25, Catalog: cat, Seed: int64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPMETrain(b *testing.B) {
	s := quickStudy(b)
	records := s.A1.Records
	if len(records) > 2000 {
		records = records[:2000]
	}
	pme := core.NewPME(5)
	pme.ForestSize = 10
	pme.CVFolds, pme.CVRuns = 5, 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pme.Train(records, core.TrainConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}
