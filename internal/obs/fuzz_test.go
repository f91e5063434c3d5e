package obs

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"reflect"
	"testing"
)

// samplePage is a page of the shape both daemons serve: counters, a
// labeled gauge and a histogram.
const samplePage = `# HELP edfd_requests_total HTTP requests served.
# TYPE edfd_requests_total counter
edfd_requests_total 42
edfd_requests_total{replica="http://127.0.0.1:8081"} 7
# HELP edfd_propose_ns Propose latency.
# TYPE edfd_propose_ns histogram
edfd_propose_ns_bucket{le="1024"} 3
edfd_propose_ns_bucket{le="+Inf"} 5
edfd_propose_ns_sum 4096
edfd_propose_ns_count 5
# TYPE edfd_ratio gauge
edfd_ratio{path="a\\b\"c\n"} 0.5 1712345678
edfd_nan NaN
`

// FuzzExposition requires the Prometheus text parser, which edfproxy runs
// on every replica's /metrics page, and the validator never to panic, and
// a page ExpositionWriter writes from the input to parse back to the
// samples written, label values with quotes, backslashes, newlines and
// invalid UTF-8 included.
func FuzzExposition(f *testing.F) {
	f.Add([]byte(samplePage))
	f.Add([]byte("edfd_a{x=\"v\",} 1 1712345678\nedfd_b +Inf\n# TYPE edfd_h histogram\nedfd_h_bucket 1\n"))
	f.Add([]byte("edfd_x{a=\"b 1\n# TYPE\n#\n{} 1\n"))
	f.Add([]byte("\x00a\"b\\c\nd\xff\x01\x02\x03\x04\x05\x06\x07\x08"))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _, _ = ParseExpositionTyped(bytes.NewReader(data))
		_ = ValidateExposition(bytes.NewReader(data))

		var page bytes.Buffer
		w := NewExpositionWriter(&page)
		var want []Sample
		for i, chunk := range bytes.Split(data, []byte{0}) {
			s := Sample{Name: []string{"edfd_a", "edfd_b_total", "edfd:c"}[i%3]}
			if len(chunk) >= 8 {
				s.Value = math.Float64frombits(binary.LittleEndian.Uint64(chunk))
				chunk = chunk[8:]
			}
			if len(chunk) > 0 {
				s.Labels = []Label{{Name: "path", Value: string(chunk)}, {Name: "le", Value: string(chunk[:1])}}
			}
			w.Family(s.Name, Gauge, string(chunk))
			w.Sample(s.Name, s.Labels, s.Value)
			want = append(want, s)
		}
		if err := w.Err(); err != nil {
			t.Fatal(err)
		}
		got, err := ParseExposition(&page)
		if err != nil {
			t.Fatalf("written page does not parse: %v\n%s", err, page.Bytes())
		}
		if len(got) != len(want) {
			t.Fatalf("%d samples written, %d parsed", len(want), len(got))
		}
		for i := range got {
			g, w := got[i], want[i]
			sameValue := g.Value == w.Value || math.IsNaN(g.Value) && math.IsNaN(w.Value)
			if g.Name != w.Name || !reflect.DeepEqual(g.Labels, w.Labels) || !sameValue {
				t.Fatalf("sample %d: wrote %#v, parsed %#v", i, w, g)
			}
		}
	})
}

// FuzzSSEScanner requires SSEScanner.Next, which the typed client and
// edfproxy's feed fan-in run on every event stream, never to panic, and
// events WriteSSEEvent writes from the input, between heartbeats, to come
// back from NextEvent as they left: as encoding/json round-trips them.
func FuzzSSEScanner(f *testing.F) {
	var stream bytes.Buffer
	for _, ev := range []Event{
		{Seq: 1, TimeUnixNS: 1712345678000000000, Type: EventAdmit, Session: "s1", Trace: "aa", Path: "fast",
			Verdict: "feasible", Admitted: true, Utilization: 0.5, LatencyNS: 1200},
		{Seq: 2, Type: EventCommit, Session: "s1", Moved: 1, Replica: "http://127.0.0.1:8081"},
	} {
		if err := WriteSSEEvent(&stream, ev); err != nil {
			f.Fatal(err)
		}
		stream.WriteString(": keep-alive\n\n")
	}
	f.Add(stream.Bytes())
	f.Add([]byte("data: a\ndata: b\n\nid: 3\nevent: x\ndata:{}\r\n\r\n: c\ndata"))
	f.Fuzz(func(t *testing.T, data []byte) {
		sc := NewSSEScanner(bytes.NewReader(data))
		for {
			if _, err := sc.Next(); err != nil {
				break
			}
		}

		var buf bytes.Buffer
		var want []Event
		for i, chunk := range bytes.Split(data, []byte{0}) {
			ev := Event{Seq: uint64(i), Type: string(chunk), Session: string(bytes.ToUpper(chunk)),
				Admitted: len(chunk)%2 == 1, Moved: len(chunk)}
			if len(chunk) >= 8 {
				ev.Utilization = math.Float64frombits(binary.LittleEndian.Uint64(chunk))
				ev.LatencyNS = int64(binary.BigEndian.Uint64(chunk))
			}
			if err := WriteSSEEvent(&buf, ev); err != nil {
				continue // a non-finite utilization does not encode
			}
			buf.WriteString(": keep-alive\n\n")
			enc, _ := json.Marshal(ev)
			var norm Event
			if err := json.Unmarshal(enc, &norm); err != nil {
				t.Fatal(err)
			}
			want = append(want, norm)
		}
		sc = NewSSEScanner(&buf)
		for i, w := range want {
			got, err := sc.NextEvent()
			if err != nil || got != w {
				t.Fatalf("event %d: got %+v, %v; want %+v", i, got, err, w)
			}
		}
		if _, err := sc.NextEvent(); err != io.EOF {
			t.Fatalf("after %d events: %v, want io.EOF", len(want), err)
		}
	})
}
