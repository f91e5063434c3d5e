package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// SSEContentType is the server-sent-events media type.
const SSEContentType = "text/event-stream"

// heartbeat spaces SSE keep-alive comments so intermediaries and
// clients can distinguish an idle feed from a dead connection.
const heartbeat = 15 * time.Second

// ServeSSE streams events to w as server-sent events until the request
// context ends, stop closes, events closes, or the connection breaks.
// Each event is one "id: <seq>" / "data: <json>" block; heartbeat
// comments (": keep-alive") go out when the feed is idle. Every feed of
// both daemons runs through it: edfd passes a hub subscriber's channel,
// edfproxy the fan-in of its replica relays.
func ServeSSE(w http.ResponseWriter, r *http.Request, events <-chan Event, stop <-chan struct{}) {
	fl, _ := w.(http.Flusher)
	h := w.Header()
	h.Set("Content-Type", SSEContentType)
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	if fl != nil {
		fl.Flush()
	}
	tick := time.NewTicker(heartbeat)
	defer tick.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-stop:
			return
		case ev, ok := <-events:
			if !ok {
				return
			}
			if err := WriteSSEEvent(w, ev); err != nil {
				return
			}
			if fl != nil {
				fl.Flush()
			}
		case <-tick.C:
			if _, err := io.WriteString(w, ": keep-alive\n\n"); err != nil {
				return
			}
			if fl != nil {
				fl.Flush()
			}
		}
	}
}

// WriteSSEEvent writes one event as an SSE block.
func WriteSSEEvent(w io.Writer, ev Event) error {
	data, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "id: %d\ndata: %s\n\n", ev.Seq, data)
	return err
}

// SSEScanner reads server-sent-event data payloads from a stream,
// skipping comments and non-data fields. It is the decoding half used by
// the typed client and the proxy's fleet fan-in.
type SSEScanner struct {
	br *bufio.Reader
}

// NewSSEScanner wraps an SSE byte stream.
func NewSSEScanner(r io.Reader) *SSEScanner {
	return &SSEScanner{br: bufio.NewReader(r)}
}

// Next returns the next event's data payload (joined with newlines when
// split over several data: lines, per the SSE spec). io.EOF reports a
// cleanly closed stream.
func (s *SSEScanner) Next() ([]byte, error) {
	var data [][]byte
	for {
		line, err := s.br.ReadBytes('\n')
		if err != nil {
			// A partial last line cannot hold a complete event; surface
			// the stream error (EOF included).
			return nil, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			if len(data) > 0 {
				return bytes.Join(data, []byte{'\n'}), nil
			}
			continue // blank between events we did not collect from
		}
		if line[0] == ':' {
			continue // comment / heartbeat
		}
		field, value, _ := bytes.Cut(line, []byte{':'})
		value = bytes.TrimPrefix(value, []byte{' '})
		if string(field) == "data" {
			data = append(data, append([]byte(nil), value...))
		}
	}
}

// NextEvent decodes the next data payload as an Event.
func (s *SSEScanner) NextEvent() (Event, error) {
	var ev Event
	data, err := s.Next()
	if err != nil {
		return ev, err
	}
	if err := json.Unmarshal(data, &ev); err != nil {
		return ev, fmt.Errorf("obs: decoding SSE event: %w", err)
	}
	return ev, nil
}
