// Webscale: run the full deployment loop in one process — train, start
// the collection/scoring HTTP service, replay a burst of browser traffic
// through real HTTP clients (honest users, configured users, and fraud
// browsers), and read back the service's latency and flagging counters
// from its /metrics exposition, demonstrating the §3 performance budget
// (<100 ms, ≤1 KB) end to end.
//
//	go run ./examples/webscale
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"sync"

	"polygraph"
	"polygraph/internal/browser"
	"polygraph/internal/collect"
	"polygraph/internal/core"
	"polygraph/internal/fingerprint"
	"polygraph/internal/fraud"
	"polygraph/internal/obs"
	"polygraph/internal/rng"
	"polygraph/internal/ua"
)

func main() {
	tcfg := polygraph.DefaultTrafficConfig()
	tcfg.Sessions = 30000
	traffic, err := polygraph.GenerateTraffic(tcfg)
	if err != nil {
		log.Fatal(err)
	}
	cfg := polygraph.DefaultTrainConfig()
	cfg.Reference = core.ExtractorReference{Extractor: traffic.Extractor, OS: ua.Windows10}
	model, _, err := polygraph.Train(traffic.Samples(), cfg)
	if err != nil {
		log.Fatal(err)
	}

	srv, err := polygraph.NewServer(collect.Config{Model: model})
	if err != nil {
		log.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	fmt.Printf("scoring service up at %s\n", ts.URL)

	// Show the actual script a page would embed.
	client := polygraph.NewClient(ts.URL)
	script, err := client.FetchScript(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("collection script: %d bytes of JavaScript, %d probes\n\n",
		len(script), model.Dim())

	// Replay a traffic burst over real HTTP with concurrent clients.
	const workers = 8
	const perWorker = 250
	var wg sync.WaitGroup
	var mu sync.Mutex
	flagged := 0
	tool, _ := fraud.ToolByName("GoLogin-3.3.23")
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			gen := rng.New(uint64(1000 + w))
			c := polygraph.NewClient(ts.URL)
			for i := 0; i < perWorker; i++ {
				var claimed ua.Release
				var profile browser.Profile
				switch {
				case gen.Bool(0.02): // fraud browser session
					victim := ua.Release{Vendor: ua.Chrome, Version: 110 + gen.Intn(5)}
					spoof := tool.Spoof(victim, ua.Windows10, gen)
					claimed, profile = spoof.Claimed, spoof.Profile
				default: // honest session
					claimed = ua.Release{Vendor: ua.Chrome, Version: 110 + gen.Intn(5)}
					profile = browser.Profile{Release: claimed, OS: ua.Windows10}
				}
				payload := &polygraph.Payload{
					UserAgent: ua.UserAgent(claimed, ua.Windows10),
					Values:    fingerprint.VectorToValues(traffic.Extractor.Extract(profile)),
				}
				dec, err := c.Submit(context.Background(), payload)
				if err != nil {
					log.Fatal(err)
				}
				if dec.Flagged {
					mu.Lock()
					flagged++
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()

	expo := srv.MetricsText() // the page GET /metrics serves
	received, err := obs.ParseMetric(expo, "polygraph_collections_total")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replayed %.0f sessions over HTTP: %d flagged\n", received, flagged)
	buckets := obs.ParseHistogram(expo, "polygraph_score_duration_microseconds", "endpoint")
	p99, _ := obs.QuantileBucket(buckets[collect.EndpointBinary], 0.99)
	fmt.Printf("server-side scoring: p99 ≤%gµs (budget: 100ms)\n", obs.BucketUpperMicros(p99))
	fmt.Printf("flagged sessions retained for the fraud team: %d\n", srv.Store().Len())
}
