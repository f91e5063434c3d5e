package main

import (
	"testing"

	"repro/internal/obs"
)

func TestCoveredMergesOverlapsAndClips(t *testing.T) {
	for _, c := range []struct {
		name   string
		ivs    [][2]int64
		lo, hi int64
		want   int64
	}{
		{"none", nil, 0, 100, 0},
		{"disjoint", [][2]int64{{10, 20}, {30, 40}}, 0, 100, 20},
		{"overlapping", [][2]int64{{10, 30}, {20, 40}}, 0, 100, 30},
		{"nested", [][2]int64{{10, 50}, {20, 30}}, 0, 100, 40},
		{"touching", [][2]int64{{10, 20}, {20, 30}}, 0, 100, 20},
		{"unsorted", [][2]int64{{60, 70}, {10, 20}, {15, 25}}, 0, 100, 25},
		{"clipped", [][2]int64{{-10, 10}, {90, 120}}, 0, 100, 20},
		{"outside", [][2]int64{{200, 300}}, 0, 100, 0},
	} {
		if got := covered(c.ivs, c.lo, c.hi); got != c.want {
			t.Errorf("%s: covered = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestSelfTimesNestedAndOverlapping(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},   // root
		{ID: 1, Parent: 0, Start: 10, End: 40},    // child
		{ID: 2, Parent: 0, Start: 30, End: 60},    // overlaps child 1
		{ID: 3, Parent: 1, Start: 15, End: 25},    // grandchild
		{ID: 4, Parent: 0, Start: 90, End: 120},   // runs past the root
		{ID: 5, Parent: -1, Start: 200, End: 210}, // leaf root
	}
	self := selfTimes(spans)
	want := []int64{
		100 - (50 + 10), // 10..60 and 90..100 covered
		30 - 10,
		30,
		10,
		30,
		10,
	}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("span %d self = %d, want %d", i, self[i], want[i])
		}
	}
}

func TestUnattributedShareIsTheMedianUncoveredShare(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 0, End: 75}, // 25% uncovered
		{ID: 2, Parent: -1, Start: 0, End: 100},
		{ID: 3, Parent: 2, Start: 50, End: 100}, // 50% uncovered
		{ID: 4, Parent: -1, Start: 0, End: 100},
		{ID: 5, Parent: 4, Start: 10, End: 20},
		{ID: 6, Parent: 4, Start: 15, End: 25}, // 85% uncovered
	}
	self := selfTimes(spans)
	if got := unattributedShare(spans, self, []int{0, 2, 4}); got != 0.5 {
		t.Errorf("unattributed share = %v, want 0.5", got)
	}
	if got := unattributedShare(spans, self, nil); got != 0 {
		t.Errorf("unattributed share without samples = %v, want 0", got)
	}
}

// TestAttachNestsServerSpans checks that a fetched trace lands under the
// client span with stage spans nested inside the span that contains them.
func TestAttachNestsServerSpans(t *testing.T) {
	var l spanLog
	client := l.add(-1, "t", "client.analyze", 1000, 2000)
	l.attach(client, obs.Trace{
		ID:          "t",
		StartUnixNS: 1100,
		Spans: []obs.Span{
			{Name: "cache", StartNS: 0, DurNS: 50},
			{Name: "stage:devi", StartNS: 100, DurNS: 200},
			{Name: "analyze", StartNS: 90, DurNS: 500},
			{Name: "stage:superpos", StartNS: 300, DurNS: 250},
		},
	})
	parent := map[string]string{}
	for _, s := range l.spans[1:] {
		parent[s.Name] = l.spans[s.Parent].Name
	}
	want := map[string]string{
		"server.cache":          "client.analyze",
		"server.analyze":        "client.analyze",
		"server.stage:devi":     "server.analyze",
		"server.stage:superpos": "server.analyze",
	}
	for name, p := range want {
		if parent[name] != p {
			t.Errorf("%s nested under %q, want %q", name, parent[name], p)
		}
	}
	self := selfTimes(l.spans)
	if got, want := self[client], int64(1000-50-500); got != want {
		t.Errorf("client self time = %d, want %d", got, want)
	}
}
