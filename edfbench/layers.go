package main

import (
	"encoding/json"
	"strings"
	"time"

	"repro/internal/obs"
)

// perLayer are the traced run's metrics, named <module>.<metric>. Time
// metrics ending in _us are microseconds per mirrored request unless
// NOTES.md says otherwise; counts and shares come from response fields
// and daemon counter deltas of the untraced timed phase.
var perLayer = []metricSpec{
	{"core.analyze_us", "us"},
	{"core.stage_us.liu", "us"},
	{"core.stage_us.devi", "us"},
	{"core.stage_us.superpos", "us"},
	{"core.stage_us.allapprox", "us"},
	{"core.decided_share.devi", "share"},
	{"core.decided_share.superpos", "share"},
	{"core.decided_share.allapprox", "share"},
	{"core.iterations_per_op", "count/op"},
	{"numeric.promotions_per_op", "count/op"},
	{"workload.decode_us", "us"},
	{"workload.validate_us", "us"},
	{"service.encode_us", "us"},
	{"client.encode_us", "us"},
	{"client.decode_us", "us"},
	{"engine.fingerprint_us", "us"},
	{"engine.fingerprints_per_op", "count/op"},
	{"engine.run_overhead_us", "us"},
	{"service.cache_hit_share", "share"},
	{"service.cache_get_us", "us"},
	{"service.cache_put_us", "us"},
	{"service.throttled_share", "share"},
	{"cluster.hop_us", "us"},
	{"cluster.owner_hit_share", "share"},
	{"cluster.failovers_per_op", "count/op"},
	{"obs.trace_us", "us"},
	{"obs.events_per_op", "count/op"},
	{"incremental.path_share.gate", "share"},
	{"incremental.path_share.fast", "share"},
	{"incremental.path_share.cascade", "share"},
	{"incremental.propose_fast_us", "us"},
	{"incremental.escalation_us", "us"},
	{"service.open_us", "us"},
	{"store.flushes_per_commit", "count"},
	{"store.bytes_per_op", "B/op"},
	{"store.records_per_op", "count/op"},
	{"service.commit_p50_ms", "ms"},
	{"partition.place_us", "us"},
	{"partition.bin_analyze_us", "us"},
	{"partition.bin_checks_per_op", "count/op"},
	{"partition.bin_cache_hit_share", "share"},
	{"partition.gate_rejections_per_op", "count/op"},
	{"partition.feasible_share", "share"},
	{"runtime.alloc_bytes_per_op", "B/op"},
	{"runtime.allocs_per_op", "count/op"},
	{"runtime.gc_cpu_share", "share"},
	{"unattributed_share", "share"},
	{"tracing.overhead_p50_share", "share"},
	{"tracing.overhead_cpu_share", "share"},
}

// coreTally counts the analyses the in-process mirror ran, from their
// cascade stage logs.
type coreTally struct {
	runs         int
	decided      map[string]int // deciding stage -> runs
	iterations   int64
	fingerprints int
}

// record folds one analysis' stage log in; the last stage a cascade
// records is the one that decided.
func (t *coreTally) record(st *obs.StageLog) {
	if st.Len() == 0 {
		return
	}
	if t.decided == nil {
		t.decided = map[string]int{}
	}
	t.runs++
	for i := range st.Len() {
		t.iterations += st.Stage(i).Iterations
	}
	t.decided[st.Stage(st.Len()-1).Name]++
}

// stageSpans lays a stage log out as core.stage.<name> spans under
// parent, back to back and ending at end, the way the daemons do.
func stageSpans(l *spanLog, parent int, trace string, st *obs.StageLog, end int64) {
	var total int64
	for i := range st.Len() {
		total += st.Stage(i).DurNS
	}
	start := end - total
	for i := range st.Len() {
		s := st.Stage(i)
		l.add(parent, trace, "core.stage."+s.Name, start, start+s.DurNS)
		start += s.DurNS
	}
}

// opSpan is an open span that others nest under: the root of one
// mirrored request, or a layer call with timed children.
type opSpan struct {
	l     *spanLog
	id    int
	trace string
}

// begin opens the root span of one mirrored request.
func (l *spanLog) begin(trace string) opSpan { return l.open(-1, trace, "mirror.op") }

func (l *spanLog) open(parent int, trace, name string) opSpan {
	return opSpan{l: l, id: l.add(parent, trace, name, time.Now().UnixNano(), 0), trace: trace}
}

// child opens a nested span.
func (o opSpan) child(name string) opSpan { return o.l.open(o.id, o.trace, name) }

// step times f as a child span.
func (o opSpan) step(name string, f func()) int { return o.l.time(o.id, o.trace, name, f) }

func (o opSpan) end() {
	o.l.mu.Lock()
	defer o.l.mu.Unlock()
	o.l.spans[o.id].End = time.Now().UnixNano()
}

// traceStep records the trace a daemon keeps for one request.
func traceStep(op opSpan, rec *obs.Recorder, name string) {
	op.step("obs.trace", func() {
		tr := obs.StartTrace(op.trace, name)
		tr.EndSpan(name, time.Now(), "")
		rec.Record(tr)
	})
}

// codec times the daemon encoding a reply and the client decoding it.
func codec(op opSpan, reply any, into any) {
	var out []byte
	op.step("service.encode", func() { out, _ = json.Marshal(reply) })
	op.step("client.decode", func() { _ = json.Unmarshal(out, into) })
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// fromSpans fills the time metrics of the mirrored requests: totals per
// span name over the mirrored request count.
func fromSpans(m metricSet, spans []span, self []int64, mirrored int, t *coreTally) {
	tot := totalsByName(spans, self)
	perOp := func(ns int64) float64 { return ratio(float64(ns)/1e3, float64(mirrored)) }
	mean := func(name string) float64 { return ratio(float64(tot.dur[name])/1e3, float64(tot.count[name])) }
	var stages int64
	for name, d := range tot.dur {
		if stage, ok := strings.CutPrefix(name, "core.stage."); ok {
			stages += d
			if _, listed := m["core.stage_us."+stage]; listed {
				m["core.stage_us."+stage] = perOp(d)
			}
		}
	}
	m["core.analyze_us"] = perOp(stages)
	for _, st := range []string{"devi", "superpos", "allapprox"} {
		m["core.decided_share."+st] = ratio(float64(t.decided[st]), float64(t.runs))
	}
	m["core.iterations_per_op"] = ratio(float64(t.iterations), float64(mirrored))
	for _, name := range []string{"workload.decode", "workload.validate", "service.encode", "client.encode",
		"client.decode", "engine.fingerprint", "service.cache_get", "service.cache_put", "obs.trace",
		"partition.place", "partition.bin_analyze"} {
		m[name+"_us"] = perOp(tot.dur[name])
	}
	m["engine.run_overhead_us"] = perOp(tot.self["engine.run"])
	m["engine.fingerprints_per_op"] = ratio(float64(tot.count["engine.fingerprint"]+t.fingerprints), float64(mirrored))
	m["incremental.propose_fast_us"] = mean("incremental.propose.fast")
	m["incremental.escalation_us"] = mean("incremental.propose.cascade")
	m["service.open_us"] = mean("service.open")
}

// fromCounters fills the metrics that are daemon counter deltas over the
// untraced timed phase.
func fromCounters(m metricSet, d map[string]float64, requests int) {
	n := float64(requests)
	m["numeric.promotions_per_op"] = d["edfd_arith_promotions_total"] / n
	m["service.cache_hit_share"] = ratio(d["edfd_cache_hits"], d["edfd_cache_hits"]+d["edfd_cache_misses"])
	m["service.throttled_share"] = ratio(d["edfd_requests_throttled"], d["edfd_requests_total"]+d["edfd_requests_throttled"])
	m["obs.events_per_op"] = d["edfd_events_published_total"] / n
	m["store.bytes_per_op"] = d["edfd_store_bytes_total"] / n
	m["store.records_per_op"] = d["edfd_store_records_total"] / n
}
