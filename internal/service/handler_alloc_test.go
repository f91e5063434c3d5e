package service

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestAnalyzeHitAllocs bounds the allocations of edfd's handler serving
// a cached 25-task analyze, request building through httptest included:
// the decode, the fingerprint, the cache read, the trace and the reply.
// The trace's debug line must box no fields while debug logging is off.
func TestAnalyzeHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	srv := New(Config{})
	defer srv.Close()
	h := srv.Handler()
	body := requestBody(t, "analyze-25").body
	serve := func() *httptest.ResponseRecorder {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(body)))
		return rr
	}
	serve() // the miss fills the cache
	if rr := serve(); rr.Code != http.StatusOK || !strings.Contains(rr.Body.String(), `"cached":true`) {
		t.Fatalf("second analyze: %d %s, want a cache hit", rr.Code, rr.Body)
	}
	const bound = 40
	allocs := testing.AllocsPerRun(100, func() {
		if rr := serve(); rr.Code != http.StatusOK {
			t.Fatalf("analyze: %d %s", rr.Code, rr.Body)
		}
	})
	if allocs > bound {
		t.Errorf("a cached analyze allocates %.0f times, want at most %d", allocs, bound)
	}
}
