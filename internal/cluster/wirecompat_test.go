package cluster_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/service"
	"repro/internal/workload"
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

// TestProxyForwardsContentLength requires a reply past net/http's 2 KB
// response buffer to reach the client with the replica's Content-Length
// through edfproxy too, not re-sent chunked, so the typed client can size
// its read through either daemon.
func TestProxyForwardsContentLength(t *testing.T) {
	tc := startCluster(t, 1, service.Config{})
	procs := make([]workload.Processor, 16)
	for i := range procs {
		procs[i].Name = "processor-" + strconv.Itoa(i)
	}
	tasks := make([]workload.PartitionedTask, 32)
	for i := range tasks {
		tasks[i].Task = model.Task{WCET: 1, Deadline: 10, Period: 10}
	}
	body, err := service.EncodeJSON(service.PartitionRequest{Workload: service.PartitionedWorkload(procs, tasks)})
	if err != nil {
		t.Fatal(err)
	}
	for _, base := range []string{tc.sp.URLs()[0], tc.hs.URL} {
		resp, err := http.Post(base+"/v1/partition", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		reply, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || len(reply) <= 2048 || resp.ContentLength != int64(len(reply)) {
			t.Errorf("%s: status %d, %d-byte reply with Content-Length %d, want 200 past 2 KB with its length",
				base, resp.StatusCode, len(reply), resp.ContentLength)
		}
	}
}
