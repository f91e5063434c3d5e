package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sync"
	"time"

	"repro/internal/obs"
)

// span is one timed step of the traced run. Times are wall-clock
// nanoseconds (UnixNano): the clients, the in-process layer calls and
// the in-process daemons all read the same clock, so server spans fetched
// from GET /v1/traces/{id} line up with the client span they belong to.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// spanLog keeps every span in memory until the run writes them out.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

// add records a span and returns its id.
func (l *spanLog) add(parent int, trace, name string, start, end int64) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans)
	l.spans = append(l.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Start: start, End: end})
	return id
}

// endOf returns a recorded span's end time.
func (l *spanLog) endOf(id int) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.spans[id].End
}

// time runs f inside a span and returns the span id.
func (l *spanLog) time(parent int, trace, name string, f func()) int {
	t0 := time.Now().UnixNano()
	f()
	return l.add(parent, trace, name, t0, time.Now().UnixNano())
}

// attach records a server trace's spans under the client span parent.
// Server spans carry no parent links, so each is nested under the
// innermost earlier server span that contains it (stage spans under
// "analyze", replica spans under the proxy's "forward").
func (l *spanLog) attach(parent int, tr obs.Trace) {
	type iv struct {
		id         int
		start, end int64
	}
	spans := slices.Clone(tr.Spans)
	slices.SortStableFunc(spans, func(a, b obs.Span) int {
		if a.StartNS != b.StartNS {
			return cmpInt64(a.StartNS, b.StartNS)
		}
		return cmpInt64(b.DurNS, a.DurNS) // enclosing span first
	})
	var open []iv
	for _, sp := range spans {
		start := tr.StartUnixNS + sp.StartNS
		end := start + sp.DurNS
		for len(open) > 0 && !(open[len(open)-1].start <= start && end <= open[len(open)-1].end) {
			open = open[:len(open)-1]
		}
		p := parent
		if len(open) > 0 {
			p = open[len(open)-1].id
		}
		name := "server." + sp.Name
		id := l.add(p, tr.ID, name, start, end)
		open = append(open, iv{id, start, end})
	}
}

func cmpInt64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// covered returns how much of [lo, hi) the intervals cover, counting
// overlapping intervals once and clipping them to the window.
func covered(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 || hi <= lo {
		return 0
	}
	s := slices.Clone(ivs)
	slices.SortFunc(s, func(a, b [2]int64) int { return cmpInt64(a[0], b[0]) })
	var total int64
	curLo, curHi := int64(0), int64(0)
	started := false
	for _, v := range s {
		a, b := max(v[0], lo), min(v[1], hi)
		if b <= a {
			continue
		}
		if !started || a > curHi {
			if started {
				total += curHi - curLo
			}
			curLo, curHi, started = a, b, true
			continue
		}
		curHi = max(curHi, b)
	}
	if started {
		total += curHi - curLo
	}
	return total
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its direct children cover.
func selfTimes(spans []span) []int64 {
	children := make([][][2]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(children[i], s.Start, s.End)
	}
	return self
}

// unattributedShare is, over the given client spans, the median share of
// a request's duration that no attached server span covers.
func unattributedShare(spans []span, self []int64, clientIDs []int) float64 {
	shares := make([]float64, 0, len(clientIDs))
	for _, id := range clientIDs {
		if d := spans[id].dur(); d > 0 {
			shares = append(shares, float64(self[id])/float64(d))
		}
	}
	return median(shares)
}

// layerTotals sums duration and self time per span name.
type layerTotals struct {
	count     map[string]int
	dur, self map[string]int64
}

func totalsByName(spans []span, self []int64) layerTotals {
	t := layerTotals{count: map[string]int{}, dur: map[string]int64{}, self: map[string]int64{}}
	for i, s := range spans {
		t.count[s.Name]++
		t.dur[s.Name] += s.dur()
		t.self[s.Name] += self[i]
	}
	return t
}

// writeSpans writes every span as one JSON line with its self time.
func writeSpans(path string, spans []span, self []int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, s := range spans {
		rec := struct {
			span
			SelfNS int64 `json:"self_ns"`
		}{s, self[i]}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
