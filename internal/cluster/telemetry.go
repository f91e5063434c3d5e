package cluster

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/url"
	"slices"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

// Fleet feed relay tuning: reconnects back off exponentially between
// these bounds, so a dead replica costs one cheap dial every couple of
// seconds while a recovered one rejoins the feed within a backoff step.
const (
	relayBackoffMin = 200 * time.Millisecond
	relayBackoffMax = 2 * time.Second
)

// handleEvents serves the fleet-wide admission feed through the same
// obs.ServeSSE loop as edfd's own feeds: one SSE stream fanning in every
// configured replica's /v1/events, each event stamped with the replica
// that published it. Relays dial all configured replicas — healthy or
// not — and reconnect with backoff, so the feed survives replica
// ejection and re-admission without missing the recovered replica's new
// events.
func (p *Proxy) handleEvents(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	ch := make(chan obs.Event, obs.DefaultSubscriberBuffer)
	states, _ := p.replicaStates()
	for rep := range states {
		go p.relayEvents(ctx, rep, ch)
	}
	p.m.eventSubscribers.Add(1)
	defer p.m.eventSubscribers.Add(-1)
	obs.ServeSSE(w, r, ch, p.stop)
}

// relayEvents streams one replica's feed into out until ctx ends or the
// proxy closes. Dial failures do not eject the replica — the health
// sweeper owns membership; the relay just keeps retrying so the stream
// resumes the moment the replica answers again.
func (p *Proxy) relayEvents(ctx context.Context, rep string, out chan<- obs.Event) {
	backoff := relayBackoffMin
	for {
		if ctx.Err() != nil {
			return
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, rep+"/v1/events", nil)
		if err != nil {
			return
		}
		resp, err := p.hc.Do(req)
		if err == nil {
			if resp.StatusCode == http.StatusOK {
				backoff = relayBackoffMin
				sc := obs.NewSSEScanner(resp.Body)
				for {
					ev, err := sc.NextEvent()
					if err != nil {
						break
					}
					ev.Replica = rep
					p.m.eventsRelayed.Add(1)
					select {
					case out <- ev:
					case <-ctx.Done():
						resp.Body.Close()
						return
					case <-p.stop:
						resp.Body.Close()
						return
					}
				}
			} else {
				io.Copy(io.Discard, resp.Body)
			}
			resp.Body.Close()
		}
		select {
		case <-ctx.Done():
			return
		case <-p.stop:
			return
		case <-time.After(backoff):
		}
		if backoff < relayBackoffMax {
			backoff *= 2
		}
	}
}

// handleTrace returns the merged fleet view of one trace: the proxy's
// own routing spans plus every replica fragment recorded under the same
// ID, replica spans stamped with their origin and re-anchored onto the
// proxy's clock so the whole request reads as one timeline.
func (p *Proxy) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	fragments := p.collectReplicaTraces(r.Context(), id)
	local, ok := p.traces.Get(id)
	if !ok && len(fragments) == 0 {
		service.WriteError(w, http.StatusNotFound, errors.New("cluster: unknown trace"))
		return
	}
	var merged obs.Trace
	if ok {
		merged = obs.Trace{
			ID: local.ID, Op: local.Op, Session: local.Session,
			Path: local.Path, StartUnixNS: local.StartUnixNS,
			Spans: append([]obs.Span(nil), local.Spans...),
		}
	} else {
		// The proxy never recorded this request (hit a replica directly, or
		// aged out of the ring): anchor on the earliest replica fragment.
		first := fragments[0].t
		merged = obs.Trace{ID: id, Op: first.Op, StartUnixNS: first.StartUnixNS}
	}
	for _, fr := range fragments {
		delta := fr.t.StartUnixNS - merged.StartUnixNS
		for _, sp := range fr.t.Spans {
			sp.StartNS += delta
			if sp.Replica == "" {
				sp.Replica = fr.rep
			}
			merged.Spans = append(merged.Spans, sp)
		}
		if merged.Session == "" {
			merged.Session = fr.t.Session
		}
		if merged.Path == "" {
			merged.Path = fr.t.Path
		}
	}
	service.WriteJSON(w, http.StatusOK, &merged)
}

// traceFragment is one replica's record of a trace.
type traceFragment struct {
	rep string
	t   obs.Trace
}

// collectReplicaTraces asks every healthy replica for its fragment of a
// trace, in parallel, ordered oldest-first.
func (p *Proxy) collectReplicaTraces(ctx context.Context, id string) []traceFragment {
	_, healthy := p.replicaStates()
	frags := make([]traceFragment, len(healthy))
	fanOut(healthy, func(i int, rep string) {
		body, err := p.fetch(ctx, rep, "/v1/traces/"+url.PathEscape(id))
		if err == nil && service.DecodeJSON(body, &frags[i].t) == nil {
			frags[i].rep = rep
		}
	})
	frags = slices.DeleteFunc(frags, func(f traceFragment) bool { return f.rep == "" })
	sort.Slice(frags, func(i, j int) bool { return frags[i].t.StartUnixNS < frags[j].t.StartUnixNS })
	return frags
}
