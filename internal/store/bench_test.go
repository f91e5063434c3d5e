package store_test

import (
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/store"
)

func gomaxprocs() int { return runtime.GOMAXPROCS(0) }

// BenchmarkStoreAppend measures the synchronous append path — the
// latency a journaled commit pays — on the default store under 16
// concurrent appenders, reporting p50/p99 append latency and fsyncs per
// record. Concurrent Appends share a flush whenever they arrive during
// another's write, so fsyncs/op below 1 is the group-commit saving.
func BenchmarkStoreAppend(b *testing.B) {
	st, err := store.Open(b.TempDir(), "bench", store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	task := json.RawMessage(`{"wcet":1,"deadline":50,"period":100}`)
	var (
		mu   sync.Mutex
		lats []int64
	)
	base := st.Stats()
	b.ReportAllocs()
	// Group commit amortizes across concurrent committers, so the
	// benchmark needs real concurrency even on a single-core runner: 16
	// appenders regardless of GOMAXPROCS.
	b.SetParallelism(16 / max(1, gomaxprocs()))
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		local := make([]int64, 0, 1024)
		rec := store.Record{Type: store.TypeAdmit, Session: "s_bench", Task: task}
		for pb.Next() {
			t0 := time.Now()
			if _, err := st.Append(rec); err != nil {
				b.Error(err)
				return
			}
			local = append(local, time.Since(t0).Nanoseconds())
		}
		mu.Lock()
		lats = append(lats, local...)
		mu.Unlock()
	})
	b.StopTimer()
	stats := st.Stats()
	slices.Sort(lats)
	if n := len(lats); n > 0 {
		b.ReportMetric(float64(lats[n/2]), "p50-ns")
		b.ReportMetric(float64(lats[n*99/100]), "p99-ns")
	}
	b.ReportMetric(float64(stats.Syncs-base.Syncs)/float64(b.N), "fsyncs/op")
}

// BenchmarkStoreReplay measures cold recovery: how long Load takes to
// fold a journal of s sessions x r records back into session state —
// the restart cost the snapshot cadence bounds.
func BenchmarkStoreReplay(b *testing.B) {
	for _, size := range []struct{ sessions, recs int }{{16, 32}, {128, 32}} {
		b.Run(fmt.Sprintf("sessions=%d", size.sessions), func(b *testing.B) {
			dir := b.TempDir()
			st, err := store.Open(dir, "bench", store.Options{})
			if err != nil {
				b.Fatal(err)
			}
			cfg := json.RawMessage(`{"tasks":[{"wcet":1,"deadline":50,"period":100}]}`)
			task := json.RawMessage(`{"wcet":1,"deadline":60,"period":120}`)
			for s := 0; s < size.sessions; s++ {
				id := fmt.Sprintf("s_%04d", s)
				recs := []store.Record{{Type: store.TypeOpen, Session: id, Config: cfg}}
				for r := 0; r < size.recs; r++ {
					recs = append(recs, store.Record{Type: store.TypeAdmit, Session: id, Task: task})
				}
				recs = append(recs, store.Record{Type: store.TypeCommit, Session: id})
				if _, err := st.Append(recs...); err != nil {
					b.Fatal(err)
				}
			}
			if err := st.Close(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ro, err := store.Open(dir, "bench", store.Options{})
				if err != nil {
					b.Fatal(err)
				}
				sessions, _, err := ro.Load()
				if err != nil {
					b.Fatal(err)
				}
				if len(sessions) != size.sessions {
					b.Fatalf("replayed %d sessions, want %d", len(sessions), size.sessions)
				}
				_ = ro.Close()
			}
		})
	}
}
