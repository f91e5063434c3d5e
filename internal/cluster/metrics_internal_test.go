package cluster

import (
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestParseScrapeDropsDerived asserts quantile and ratio series are
// dropped at scrape time — they are recomputed from summable parts.
func TestParseScrapeDropsDerived(t *testing.T) {
	page := strings.NewReader(strings.Join([]string{
		"# TYPE edfd_cache_hits counter",
		"edfd_cache_hits 5",
		"# TYPE edfd_cache_hit_rate gauge",
		"edfd_cache_hit_rate 0.5000",
		"# TYPE edfd_propose_ns histogram",
		`edfd_propose_ns_bucket{le="1024"} 6`,
		`edfd_propose_ns_bucket{le="+Inf"} 7`,
		"edfd_propose_ns_sum 9000",
		"edfd_propose_ns_count 7",
		"# TYPE edfd_propose_ns_p50 gauge",
		"edfd_propose_ns_p50 1024",
		"# TYPE edfd_propose_ns_p99 gauge",
		"edfd_propose_ns_p99 8192",
	}, "\n"))
	samples, types, err := parseScrape(page)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, s := range samples {
		got[s.Key()] = true
	}
	for _, dropped := range []string{"edfd_cache_hit_rate", "edfd_propose_ns_p50", "edfd_propose_ns_p99"} {
		if got[dropped] {
			t.Errorf("parseScrape kept derived metric %s", dropped)
		}
	}
	for _, kept := range []string{"edfd_cache_hits", "edfd_propose_ns_count", `edfd_propose_ns_bucket{le="1024"}`} {
		if !got[kept] {
			t.Errorf("parseScrape dropped summable metric %s", kept)
		}
	}
	if types["edfd_propose_ns"] != obs.Histogram {
		t.Errorf("histogram type lost: %v", types["edfd_propose_ns"])
	}
	if fam, typ := familyOf("edfd_propose_ns_bucket", types); fam != "edfd_propose_ns" || typ != obs.Histogram {
		t.Errorf("familyOf(bucket) = %s/%s", fam, typ)
	}
	if fam, typ := familyOf("edfd_cache_hits", types); fam != "edfd_cache_hits" || typ != obs.Counter {
		t.Errorf("familyOf(counter) = %s/%s", fam, typ)
	}
}

// TestWriteFleetQuantiles rebuilds fleet p50/p99 from summed cumulative
// buckets on the merged page, for every histogram family on it.
func TestWriteFleetQuantiles(t *testing.T) {
	p, err := New(Config{Replicas: []string{"http://a", "http://b"}})
	if err != nil {
		t.Fatal(err)
	}
	// page merges one replica page per bucket list, each carrying the
	// buckets under two histogram families; a nil list is a page without
	// histograms.
	page := func(reps ...[]obs.Bucket) string {
		t.Helper()
		var scrapes []replicaScrape
		for i, bs := range reps {
			var sb strings.Builder
			ew := obs.NewExpositionWriter(&sb)
			ew.Counter("edfd_cache_hits", "Result cache hits.", 1)
			for _, fam := range []string{"edfd_propose_ns", "edfd_other_ns"} {
				if bs == nil {
					break
				}
				ew.Family(fam, obs.Histogram, "Latency.")
				for _, b := range bs {
					ew.Sample(fam+"_bucket", []obs.Label{{Name: "le", Value: obs.FormatValue(b.LE)}}, b.Count)
				}
				n := bs[len(bs)-1].Count
				ew.Sample(fam+"_bucket", []obs.Label{{Name: "le", Value: "+Inf"}}, n)
				ew.Sample(fam+"_count", nil, n)
			}
			samples, types, err := parseScrape(strings.NewReader(sb.String()))
			if err != nil {
				t.Fatal(err)
			}
			scrapes = append(scrapes, replicaScrape{replica: "http://" + string(rune('a'+i)), samples: samples, types: types})
		}
		var out strings.Builder
		p.writeMetrics(&out, scrapes)
		if err := obs.ValidateExposition(strings.NewReader(out.String())); err != nil {
			t.Fatalf("merged page invalid: %v\n%s", err, out.String())
		}
		return out.String()
	}

	// Two replicas whose sum has 90 samples <= 1024 ns and 10 more
	// <= 1048576 ns.
	out := page(
		[]obs.Bucket{{LE: 1024, Count: 50}, {LE: 1048576, Count: 55}},
		[]obs.Bucket{{LE: 1024, Count: 40}, {LE: 1048576, Count: 45}},
	)
	for _, fam := range []string{"edfd_propose_ns", "edfd_other_ns"} {
		if !strings.Contains(out, fam+"_p50 1024\n") {
			t.Errorf("fleet %s p50 wrong:\n%s", fam, out)
		}
		if !strings.Contains(out, fam+"_p99 1048576\n") {
			t.Errorf("fleet %s p99 wrong:\n%s", fam, out)
		}
	}

	// No buckets (older replicas): no quantile lines at all.
	if out = page(nil); strings.Contains(out, "_p50") || strings.Contains(out, "_p99") {
		t.Errorf("quantiles emitted without buckets:\n%s", out)
	}

	// Zero samples: quantiles pin to zero rather than inventing latency.
	if out = page([]obs.Bucket{{LE: 1024, Count: 0}}); !strings.Contains(out, "edfd_propose_ns_p50 0\n") {
		t.Errorf("zero-sample p50 wrong:\n%s", out)
	}

	// Nearest rank: of 8, 1000 and 1000 ns the median is the second
	// sample, in the 1024 bucket.
	if out = page([]obs.Bucket{{LE: 8, Count: 1}, {LE: 1024, Count: 3}}); !strings.Contains(out, "edfd_propose_ns_p50 1024\n") {
		t.Errorf("three-sample p50 wrong:\n%s", out)
	}
}
