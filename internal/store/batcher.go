package store

import "sync"

// batcher is the group-commit core: records enqueue under a lock in
// submission order, and a background flusher writes everything queued
// in one DiskStore.writeBatch call whenever anything is queued, with no
// timer. Records that arrive during a write form the next batch, so
// concurrent callers share one write and fsync. Append waits for its
// batch's flush, and only a batch somebody waits on is fsynced; Submit
// returns at enqueue. Both preserve order, so a crash loses only an
// ordered suffix.
type batcher struct {
	s *DiskStore

	mu      sync.Mutex
	cond    *sync.Cond
	pending []Record
	// waiters holds the done channels of Append callers (and Load's
	// drain) in the current batch; the flusher sends each the result of
	// the batch's write and fsync.
	waiters []chan error
	closed  bool
	stopped chan struct{}
}

func newBatcher(s *DiskStore) *batcher {
	b := &batcher{s: s, stopped: make(chan struct{})}
	b.cond = sync.NewCond(&b.mu)
	go b.flusher()
	return b
}

// enqueue adds records to the current batch. When wait is true it
// returns a channel that receives the result of the batch's write.
func (b *batcher) enqueue(recs []Record, wait bool) (<-chan error, error) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, errClosed
	}
	b.pending = append(b.pending, recs...)
	var done chan error
	if wait {
		done = make(chan error, 1)
		b.waiters = append(b.waiters, done)
	}
	b.cond.Signal()
	b.mu.Unlock()
	return done, nil
}

// flusher drains batches until close.
func (b *batcher) flusher() {
	defer close(b.stopped)
	b.mu.Lock()
	for {
		for len(b.pending) == 0 && len(b.waiters) == 0 && !b.closed {
			b.cond.Wait()
		}
		if len(b.pending) == 0 && len(b.waiters) == 0 && b.closed {
			b.mu.Unlock()
			return
		}
		recs := b.pending
		waiters := b.waiters
		b.pending = nil
		b.waiters = nil
		b.mu.Unlock()

		err := b.s.writeBatch(recs, len(waiters) > 0)
		for _, w := range waiters {
			w <- err
		}
		b.mu.Lock()
	}
}

// close flushes remaining records and stops the flusher.
func (b *batcher) close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		<-b.stopped
		return
	}
	b.closed = true
	b.cond.Signal()
	b.mu.Unlock()
	<-b.stopped
}
