package cluster_test

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/service"
)

// wireRow is one row of the request wire contract, shared with the
// service package's FuzzRequestJSON and FuzzWireEncode as their seed
// corpus.
type wireRow struct {
	Name string `json:"name"`
	// Route is "analyze" (POST /v1/analyze), "partition" (POST
	// /v1/partition) or "propose" (POST /v1/sessions/{id}/propose on a
	// session opened with Session).
	Route   string `json:"route"`
	Session string `json:"session"`
	Body    string `json:"body"`
	Status  int    `json:"status"`
	// Code is the typed error code of a non-2xx answer.
	Code string `json:"code"`
	// Fingerprint is the content address of a 200 analysis.
	Fingerprint string `json:"fingerprint"`
	// Reply is the body of a 200 answer byte for byte, trailing newline
	// included, with every wall time written as "wall_ns":0.
	Reply string `json:"reply"`
}

// wallNS matches the wall times of a reply, the one part of a 200 answer
// that differs between runs.
var wallNS = regexp.MustCompile(`"wall_ns":\d+`)

// TestWireCompat pins how both daemons read request bodies and write
// replies: each body of the table goes to one edfd directly and through
// an edfproxy in front of it, and both must answer the row's status and
// error code, for a 200 the row's reply byte for byte, and for a 200
// analysis the row's fingerprint. The rows cover encoding/json's
// case-insensitive and long-s-folded keys, repeated keys, nulls, number
// forms, keys a model does not read, trailing bytes after the body, and
// names the reply must escape. The result cache is off, so every 200 is a
// fresh analysis on both daemons and no reply depends on an earlier row.
func TestWireCompat(t *testing.T) {
	raw, err := os.ReadFile("../service/testdata/wire_compat.json")
	if err != nil {
		t.Fatal(err)
	}
	var rows []wireRow
	if err := json.Unmarshal(raw, &rows); err != nil {
		t.Fatal(err)
	}
	tc := startCluster(t, 1, service.Config{CacheCapacity: -1})
	daemons := []struct{ name, url string }{{"edfd", tc.sp.URLs()[0]}, {"edfproxy", tc.hs.URL}}
	for _, row := range rows {
		for _, d := range daemons {
			t.Run(row.Name+"/"+d.name, func(t *testing.T) {
				path := "/v1/" + row.Route
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
				if reply := wallNS.ReplaceAll(body, []byte(`"wall_ns":0`)); string(reply) != row.Reply {
					t.Fatalf("%q: reply\n got %s\nwant %s", row.Body, reply, row.Reply)
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
