// Back-compat pin: the exact JSON bodies the PR-2-era service accepted —
// no "model" discriminator anywhere — must keep parsing and must produce
// identical result semantics (verdicts, fingerprints, session behavior)
// under the workload schema. The bodies are raw strings on purpose: they
// must never be regenerated through the current marshalers.
package service_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	edf "repro"
	"repro/internal/service"
)

// postRaw sends a verbatim JSON body and decodes the reply into out.
func postRaw(t *testing.T, hs *httptest.Server, path, body string, out any) *http.Response {
	t.Helper()
	resp, err := hs.Client().Post(hs.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s: decoding reply: %v", path, err)
		}
	}
	return resp
}

// compatSet is the PR-2 README's analyze example, as the facade sees it.
var compatSet = edf.TaskSet{
	{WCET: 2, Deadline: 8, Period: 10},
	{WCET: 3, Deadline: 15, Period: 15},
	{WCET: 10, Deadline: 80, Period: 100},
}

func TestCompatAnalyzePR2Body(t *testing.T) {
	srv := service.New(service.Config{})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	const body = `{"name":"demo","tasks":[
		{"wcet":2,"deadline":8,"period":10},
		{"wcet":3,"deadline":15,"period":15},
		{"wcet":10,"deadline":80,"period":100}],
		"analyzer":"allapprox","options":{"arithmetic":"float64"}}`

	var out service.AnalyzeResponse
	if resp := postRaw(t, hs, "/v1/analyze", body, &out); resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	// "float64" is a retired option that runs the exact path.
	want := edf.AllApprox(compatSet, edf.Options{})
	if out.Result.Verdict != want.Verdict.String() || out.Result.Iterations != want.Iterations {
		t.Errorf("verdict drifted: %+v, want %s/%d", out.Result, want.Verdict, want.Iterations)
	}
	if out.Analyzer != "allapprox" || out.Name != "demo" {
		t.Errorf("request fields lost: %+v", out)
	}
	if out.Model != "sporadic" {
		t.Errorf("modelless body classified as %q", out.Model)
	}
	// The fingerprint must equal the one the facade computes today for
	// the exact request, which the engine pins byte-for-byte to the PR-2
	// encoding.
	fp, ok := edf.Fingerprint(compatSet, "allapprox", edf.Options{})
	if !ok || out.Fingerprint != fp {
		t.Errorf("fingerprint %q, want %q", out.Fingerprint, fp)
	}

	// The same body again is a cache hit on the same address.
	var again service.AnalyzeResponse
	postRaw(t, hs, "/v1/analyze", body, &again)
	if !again.Cached || again.Fingerprint != out.Fingerprint {
		t.Errorf("replay not cached: %+v", again)
	}
}

// TestCompatArithmeticFloat pins the retired float64 arithmetic on the
// wire: "float64" and "float" still parse, return the exact verdict and
// share the exact request's fingerprint and cache entry, while an
// unknown value stays a 400.
func TestCompatArithmeticFloat(t *testing.T) {
	srv := service.New(service.Config{})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	const tasks = `"tasks":[{"wcet":2,"deadline":8,"period":10},
		{"wcet":3,"deadline":4,"period":10},{"wcet":10,"deadline":80,"period":100}]`
	var exact service.AnalyzeResponse
	if resp := postRaw(t, hs, "/v1/analyze", `{`+tasks+`,"analyzer":"dynamic"}`, &exact); resp.StatusCode != 200 {
		t.Fatalf("exact request: status %d", resp.StatusCode)
	}
	want := edf.DynamicError(edf.TaskSet{
		{WCET: 2, Deadline: 8, Period: 10},
		{WCET: 3, Deadline: 4, Period: 10},
		{WCET: 10, Deadline: 80, Period: 100},
	}, edf.Options{})
	if exact.Result.Verdict != want.Verdict.String() || exact.Result.Iterations != want.Iterations {
		t.Fatalf("exact verdict %+v, want %s/%d", exact.Result, want.Verdict, want.Iterations)
	}
	for _, arith := range []string{"float64", "float", "FLOAT64"} {
		var out service.AnalyzeResponse
		body := `{` + tasks + `,"analyzer":"dynamic","options":{"arithmetic":"` + arith + `"}}`
		if resp := postRaw(t, hs, "/v1/analyze", body, &out); resp.StatusCode != 200 {
			t.Fatalf("%q: status %d", arith, resp.StatusCode)
		}
		if out.Result != exact.Result {
			t.Errorf("%q: result %+v, want the exact %+v", arith, out.Result, exact.Result)
		}
		if out.Fingerprint != exact.Fingerprint || !out.Cached {
			t.Errorf("%q: fingerprint %s cached=%v, want a hit on %s",
				arith, out.Fingerprint, out.Cached, exact.Fingerprint)
		}
	}
	body := `{` + tasks + `,"analyzer":"dynamic","options":{"arithmetic":"decimal"}}`
	if resp := postRaw(t, hs, "/v1/analyze", body, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown arithmetic: status %d, want 400", resp.StatusCode)
	}
}

func TestCompatBatchPR2Body(t *testing.T) {
	srv := service.New(service.Config{})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	const body = `{"sets":[
		{"name":"a","tasks":[{"wcet":2,"deadline":8,"period":10}]},
		{"name":"b","tasks":[{"wcet":3,"deadline":4,"period":10},
		                     {"wcet":4,"deadline":5,"period":10},
		                     {"wcet":3,"deadline":6,"period":10}]}],
		"analyzers":["devi","allapprox"],"workers":2}`

	var out service.BatchResponse
	if resp := postRaw(t, hs, "/v1/batch", body, &out); resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(out.Results) != 4 {
		t.Fatalf("got %d results, want 4", len(out.Results))
	}
	setA := edf.TaskSet{{WCET: 2, Deadline: 8, Period: 10}}
	setB := edf.TaskSet{
		{WCET: 3, Deadline: 4, Period: 10},
		{WCET: 4, Deadline: 5, Period: 10},
		{WCET: 3, Deadline: 6, Period: 10},
	}
	want := []string{
		edf.Devi(setA).Verdict.String(),
		edf.AllApprox(setA, edf.Options{}).Verdict.String(),
		edf.Devi(setB).Verdict.String(),
		edf.AllApprox(setB, edf.Options{}).Verdict.String(),
	}
	names := []string{"a", "a", "b", "b"}
	for i, jr := range out.Results {
		if jr.Err != "" {
			t.Fatalf("job %d errored: %s", i, jr.Err)
		}
		if jr.Result.Verdict != want[i] {
			t.Errorf("job %d verdict %s, want %s", i, jr.Result.Verdict, want[i])
		}
		if jr.SetName != names[i] || jr.SetIndex != i/2 {
			t.Errorf("job %d identity: %+v", i, jr)
		}
	}
}

func TestCompatSessionPR2Bodies(t *testing.T) {
	srv := service.New(service.Config{})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	// PR-2 session open: a bare sporadic seed under "tasks".
	var sess service.SessionResponse
	resp := postRaw(t, hs, "/v1/sessions",
		`{"tasks":[{"name":"seed","wcet":10,"deadline":90,"period":100}]}`, &sess)
	if resp.StatusCode != 201 || sess.Committed != 1 || sess.Analyzer != "cascade" {
		t.Fatalf("open: %d %+v", resp.StatusCode, sess)
	}
	if sess.Model != "sporadic" {
		t.Errorf("seeded session model %q", sess.Model)
	}

	// PR-2 propose: a bare task object, no model anywhere.
	var prop service.ProposeResponse
	resp = postRaw(t, hs, "/v1/sessions/"+sess.ID+"/propose",
		`{"task":{"name":"a","wcet":1,"deadline":50,"period":100}}`, &prop)
	if resp.StatusCode != 200 || !prop.Admitted || prop.Pending != 1 {
		t.Fatalf("propose: %d %+v", resp.StatusCode, prop)
	}

	var commit service.CommitResponse
	resp = postRaw(t, hs, "/v1/sessions/"+sess.ID+"/commit", `{}`, &commit)
	if resp.StatusCode != 200 || commit.Moved != 1 || commit.Committed != 2 {
		t.Fatalf("commit: %d %+v", resp.StatusCode, commit)
	}

	// PR-2 empty session open.
	resp = postRaw(t, hs, "/v1/sessions", `{}`, &sess)
	if resp.StatusCode != 201 || sess.Committed != 0 || sess.Model != "sporadic" {
		t.Fatalf("empty open: %d %+v", resp.StatusCode, sess)
	}
}
