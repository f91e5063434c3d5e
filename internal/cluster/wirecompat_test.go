package cluster_test

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"

	"repro/internal/service"
)

// wireRow is one row of the request wire contract, shared with the
// service package's FuzzRequestJSON as its seed corpus.
type wireRow struct {
	Name string `json:"name"`
	// Route is "analyze" (POST /v1/analyze) or "propose" (POST
	// /v1/sessions/{id}/propose on a session opened with Session).
	Route   string `json:"route"`
	Session string `json:"session"`
	Body    string `json:"body"`
	Status  int    `json:"status"`
	// Code is the typed error code of a non-2xx answer.
	Code string `json:"code"`
	// Fingerprint is the content address of a 200 analysis.
	Fingerprint string `json:"fingerprint"`
}

// TestWireCompat pins how both daemons read request bodies: each body of
// the table goes to one edfd directly and through an edfproxy in front of
// it, and both must answer the row's status and error code, and for a
// 200 analysis the row's fingerprint. The rows cover encoding/json's
// case-insensitive and long-s-folded keys, repeated keys, nulls, number
// forms, keys a model does not read, and trailing bytes after the body.
func TestWireCompat(t *testing.T) {
	raw, err := os.ReadFile("../service/testdata/wire_compat.json")
	if err != nil {
		t.Fatal(err)
	}
	var rows []wireRow
	if err := json.Unmarshal(raw, &rows); err != nil {
		t.Fatal(err)
	}
	tc := startCluster(t, 1, service.Config{})
	daemons := []struct{ name, url string }{{"edfd", tc.sp.URLs()[0]}, {"edfproxy", tc.hs.URL}}
	for _, row := range rows {
		for _, d := range daemons {
			t.Run(row.Name+"/"+d.name, func(t *testing.T) {
				path := "/v1/analyze"
				if row.Route == "propose" {
					var sr service.SessionResponse
					if status, body := postRaw(t, d.url+"/v1/sessions", row.Session); status != http.StatusCreated ||
						json.Unmarshal(body, &sr) != nil {
						t.Fatalf("opening session %s: %d %s", row.Session, status, body)
					}
					path = "/v1/sessions/" + sr.ID + "/propose"
				}
				status, body := postRaw(t, d.url+path, row.Body)
				if status != row.Status {
					t.Fatalf("%q: status %d, want %d: %s", row.Body, status, row.Status, body)
				}
				if status != http.StatusOK {
					var er service.ErrorResponse
					if err := json.Unmarshal(body, &er); err != nil || er.Code != row.Code {
						t.Fatalf("%q: error body %s, want code %q", row.Body, body, row.Code)
					}
					return
				}
				if row.Route != "analyze" {
					return
				}
				var ar service.AnalyzeResponse
				if err := json.Unmarshal(body, &ar); err != nil || ar.Fingerprint != row.Fingerprint {
					t.Fatalf("%q: answer %s, want fingerprint %s", row.Body, body, row.Fingerprint)
				}
			})
		}
	}
}

// postRaw posts body verbatim and returns the status and reply.
func postRaw(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, reply
}
