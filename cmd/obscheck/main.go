// Command obscheck is the CI probe for a running pme server's
// observability surface. It polls GET /readyz until the server reports
// ready (the bootstrap pipeline has published a model), then scrapes
// GET /metrics, runs the exposition through the strict obs parser, and
// asserts the families a healthy server must export — so a boot that
// serves garbage telemetry fails the build even though the process is
// up and answering 200s.
//
// Usage:
//
//	obscheck [-base http://127.0.0.1:8700] [-timeout 5m]
//	         [-require pme_model_version,go_goroutines]
//
// Exit codes: 0 checks passed, 1 a check failed or the server never
// became ready.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"yourandvalue/internal/obs"
)

// defaultRequired is the family set every served pme process exports:
// model lifecycle, pool, per-route request series, and the runtime
// collector. Retrain series are also always registered (the retrainer
// starts with the server), so their absence means lost
// instrumentation.
var defaultRequired = []string{
	"pme_model_version",
	"pme_model_publishes_total",
	"pme_pool_depth",
	"pme_http_requests_total",
	"pme_http_request_duration_seconds",
	"go_goroutines",
	"process_uptime_seconds",
}

func main() {
	base := flag.String("base", "http://127.0.0.1:8700", "base URL of the pme server")
	timeout := flag.Duration("timeout", 5*time.Minute, "how long to wait for /readyz before giving up")
	require := flag.String("require", "", "comma-separated metric families that must be present (adds to the built-in set)")
	flag.Parse()

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	if err := waitReady(ctx, *base); err != nil {
		fail("server never became ready: %v", err)
	}
	fmt.Printf("obscheck: %s/readyz is ready\n", *base)

	fams, err := scrape(ctx, *base)
	if err != nil {
		fail("%v", err)
	}
	fmt.Printf("obscheck: /metrics parsed: %d families\n", len(fams))

	required := append([]string{}, defaultRequired...)
	for _, name := range strings.Split(*require, ",") {
		if name = strings.TrimSpace(name); name != "" {
			required = append(required, name)
		}
	}
	failed := false
	for _, name := range required {
		fam, ok := obs.FindFamily(fams, name)
		if !ok {
			fmt.Fprintf(os.Stderr, "obscheck: FAIL: family %q missing from /metrics\n", name)
			failed = true
			continue
		}
		if len(fam.Samples) == 0 {
			fmt.Fprintf(os.Stderr, "obscheck: FAIL: family %q has no samples\n", name)
			failed = true
		}
	}

	// A ready server has, by definition, published at least one model.
	if fam, ok := obs.FindFamily(fams, "pme_model_version"); ok {
		if v, ok := fam.Sample(nil); !ok || v < 1 {
			fmt.Fprintln(os.Stderr, "obscheck: FAIL: ready server exports pme_model_version < 1")
			failed = true
		} else {
			fmt.Printf("obscheck: model version %d is live\n", int64(v))
		}
	}
	if failed {
		os.Exit(1)
	}
	fmt.Println("obscheck: all checks passed")
}

// waitReady polls /readyz until it answers 200. Connection refusals and
// 503s are both "not yet": the probe usually races the process bind.
func waitReady(ctx context.Context, base string) error {
	client := &http.Client{Timeout: 5 * time.Second}
	tick := time.NewTicker(500 * time.Millisecond)
	defer tick.Stop()
	var last string
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/readyz", nil)
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err == nil {
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			last = fmt.Sprintf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
		} else {
			last = err.Error()
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%w (last: %s)", ctx.Err(), last)
		case <-tick.C:
		}
	}
}

func scrape(ctx context.Context, base string) ([]obs.Family, error) {
	client := &http.Client{Timeout: 10 * time.Second}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		return nil, fmt.Errorf("GET /metrics: content type %q, want text/plain exposition", ct)
	}
	fams, err := obs.ParseText(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("/metrics exposition rejected by parser: %w", err)
	}
	return fams, nil
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "obscheck: FAIL: "+format+"\n", args...)
	os.Exit(1)
}
