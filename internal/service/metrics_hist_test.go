package service

import (
	"bytes"
	"encoding/json"
	"math/big"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/workload"
)

func TestBucketOf(t *testing.T) {
	cases := []struct {
		ns   int64
		want int
	}{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3},
		{1024, 10}, {1025, 11}, {1 << 32, 32}, {1 << 40, 32},
	}
	for _, c := range cases {
		if got := bucketOf(c.ns); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
}

func TestHistQuantile(t *testing.T) {
	var h latencyHist
	// 90 fast samples (<= 1024 ns), 10 slow ones (~1 ms).
	h.observe(900, 90)
	h.observe(1_000_000, 10)
	b, count, sum := h.snapshot()
	if count != 100 {
		t.Fatalf("count = %d", count)
	}
	if want := uint64(90*900 + 10*1_000_000); sum != want {
		t.Fatalf("sum = %d, want %d", sum, want)
	}
	if p50 := obs.Quantile(b[:], 0.50); p50 != 1024 {
		t.Errorf("p50 = %v, want 1024", p50)
	}
	if p99 := obs.Quantile(b[:], 0.99); p99 != 1<<20 {
		t.Errorf("p99 = %v, want %d", p99, 1<<20)
	}
	var empty latencyHist
	if eb, _, _ := empty.snapshot(); obs.Quantile(eb[:], 0.99) != 0 {
		t.Errorf("empty quantile = %v, want 0", obs.Quantile(eb[:], 0.99))
	}

	// Nearest rank: the median of 8, 1000 and 1000 ns is the second
	// sample, in the 1024 bucket, not the first (truncating 0.5·3 to 1).
	var three latencyHist
	three.observe(8, 1)
	three.observe(1000, 2)
	tb, _, _ := three.snapshot()
	if p50 := obs.Quantile(tb[:], 0.50); p50 != 1024 {
		t.Errorf("three-sample p50 = %v, want 1024", p50)
	}
}

// TestProposeLatencyMetrics drives proposals through the HTTP surface and
// asserts the histogram, quantiles and path-split counters land on
// /metrics.
func TestProposeLatencyMetrics(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	h := srv.Handler()

	post := func(path string, body any) *httptest.ResponseRecorder {
		t.Helper()
		b, _ := json.Marshal(body)
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b))
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		return rr
	}

	rr := post("/v1/sessions", SessionRequest{})
	if rr.Code != http.StatusCreated {
		t.Fatalf("open: %d %s", rr.Code, rr.Body)
	}
	var sess SessionResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &sess); err != nil {
		t.Fatal(err)
	}
	// A tiny task the incremental path accepts, then a saturating task
	// that must be decided by the analyzer or the utilization gate.
	small := workload.SporadicTask(model.Task{WCET: 1, Deadline: 100, Period: 100})
	if rr = post("/v1/sessions/"+sess.ID+"/propose", ProposeRequest{Task: small}); rr.Code != http.StatusOK {
		t.Fatalf("propose: %d %s", rr.Code, rr.Body)
	}
	var pr ProposeResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &pr); err != nil {
		t.Fatal(err)
	}
	if !pr.Admitted || pr.Escalated {
		t.Fatalf("small task should be a fast accept, got admitted=%v escalated=%v", pr.Admitted, pr.Escalated)
	}
	// Sub-unit utilization but an exact demand violation at I = 500
	// (500 + small's demand 5 > 500): the certificate cannot accept, the
	// analyzer runs and rejects.
	tight := workload.SporadicTask(model.Task{WCET: 500, Deadline: 500, Period: 1000})
	if rr = post("/v1/sessions/"+sess.ID+"/propose", ProposeRequest{Task: tight}); rr.Code != http.StatusOK {
		t.Fatalf("propose tight: %d %s", rr.Code, rr.Body)
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Admitted || !pr.Escalated {
		t.Fatalf("tight task should be an escalated rejection, got admitted=%v escalated=%v", pr.Admitted, pr.Escalated)
	}
	batch := ProposeBatchRequest{Tasks: []workload.Task{
		workload.SporadicTask(model.Task{WCET: 1, Deadline: 200, Period: 200}),
		workload.SporadicTask(model.Task{WCET: 1, Deadline: 300, Period: 300}),
	}}
	if rr = post("/v1/sessions/"+sess.ID+"/propose-batch", batch); rr.Code != http.StatusOK {
		t.Fatalf("propose-batch: %d %s", rr.Code, rr.Body)
	}

	var page bytes.Buffer
	srv.writeMetrics(&page)
	text := page.String()
	for _, want := range []string{
		"edfd_session_proposals_total 4",
		"edfd_propose_ns_count 4",
		"edfd_session_proposals_incremental_total 3",
		"edfd_session_proposals_escalated_total 1",
		"edfd_arith_promotions_total 0",
		"edfd_propose_ns_p50 ",
		"edfd_propose_ns_p99 ",
		"# TYPE edfd_propose_ns histogram",
		`edfd_propose_ns_bucket{le="1"} `,
		`edfd_propose_ns_bucket{le="4294967296"} 4`,
		`edfd_propose_ns_bucket{le="+Inf"} 4`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics page missing %q:\n%s", want, text)
		}
	}
	if err := obs.ValidateExposition(strings.NewReader(text)); err != nil {
		t.Errorf("metrics page is not valid exposition format: %v\n%s", err, text)
	}
}

// TestSessionOpenCountsPromotions opens a session whose seed no chunk
// plan can cover — 40 pairwise-coprime periods above 2^31 — and expects
// the register exits of the seed analysis and the anchor rebuild on the
// promotions counter right after the open.
func TestSessionOpenCountsPromotions(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	seed := make(model.TaskSet, 0, 40)
	for v := int64(1<<31) + 11; len(seed) < 40; v += 2 {
		if big.NewInt(v).ProbablyPrime(20) {
			seed = append(seed, model.Task{WCET: 1 << 20, Deadline: v, Period: v})
		}
	}
	b, err := json.Marshal(SessionRequest{Workload: workload.NewSporadic(seed)})
	if err != nil {
		t.Fatal(err)
	}
	rr := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/sessions", bytes.NewReader(b)))
	if rr.Code != http.StatusCreated {
		t.Fatalf("open: %d %s", rr.Code, rr.Body)
	}
	var page bytes.Buffer
	srv.writeMetrics(&page)
	for _, line := range strings.Split(page.String(), "\n") {
		if v, ok := strings.CutPrefix(line, "edfd_arith_promotions_total "); ok {
			if n, err := strconv.ParseUint(v, 10, 64); err != nil || n == 0 {
				t.Fatalf("edfd_arith_promotions_total = %q after an open no plan covers, want > 0", v)
			}
			return
		}
	}
	t.Fatalf("metrics page lacks edfd_arith_promotions_total:\n%s", page.String())
}
