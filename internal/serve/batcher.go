package serve

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/data"
	"repro/internal/nids"
	"repro/internal/obs"
)

// item is one record awaiting a verdict. out points into the originating
// request's verdict slice, so request↔verdict pairing is positional and
// survives any batch boundary the dispatcher cuts; wg is the request's
// completion barrier. ctx, when non-nil, carries the request's deadline:
// a worker sheds (never scores) a record whose ctx expired while it was
// queued, counting it on expired — the per-request tally the caller
// inspects to answer 503. Mirrored records carry a nil ctx (no deadline,
// no shedding). enqueuedAt and trace are the observability carriers: the
// worker turns enqueuedAt into the queue_wait stage observation and
// appends stage spans to trace; both are zero when the server runs with
// stage timing and tracing off.
type item struct {
	rec        *data.Record
	out        *nids.Verdict
	wg         *sync.WaitGroup
	ctx        context.Context
	expired    *atomic.Int64
	enqueuedAt time.Time
	trace      *obs.Trace
}

// flushedBatch is one handed-off batch plus the time the dispatcher
// received its first record. The worker that picks the batch up measures
// the batch_assembly stage from openedAt to its own pickup, which is the
// moment of hand-off.
type flushedBatch struct {
	items    []item
	openedAt time.Time
}

// shed reports whether this record's deadline ran out (or its request was
// abandoned) and it must not be scored.
func (it *item) shed() bool {
	return it.ctx != nil && it.ctx.Err() != nil
}

// batcherConfig tunes the dynamic batcher.
type batcherConfig struct {
	// MaxBatch caps how many records one batch holds.
	MaxBatch int
	// QueueDepth bounds the record queue; enqueues block when it is full
	// (deliberate backpressure, mirroring nids.Config.QueueDepth).
	QueueDepth int
}

// batcher groups individually-enqueued records into batches and is work
// conserving: an open batch is handed to the first free worker at once,
// and it only grows (up to MaxBatch) while every worker is busy. A record
// never waits for co-travelers, yet under saturation batches still fill
// from the records that queue up behind the busy replicas.
type batcher struct {
	cfg     batcherConfig
	in      chan item
	batches chan flushedBatch
	slabs   sync.Pool // [] item backing arrays recycled across batches
	done    chan struct{}

	// closeMu guards the closed flag against concurrent enqueues: each
	// scorer's batcher can now be closed while requests race to enqueue
	// (slot replaced mid-request), so enqueue must observe the close
	// instead of panicking on a closed channel. Enqueues take the read
	// side — cheap and shared — and close takes the write side exactly
	// once.
	closeMu sync.RWMutex
	closed  bool
}

func newBatcher(cfg batcherConfig) *batcher {
	b := &batcher{
		cfg:     cfg,
		in:      make(chan item, cfg.QueueDepth),
		batches: make(chan flushedBatch), // unbuffered: a send is a hand-off to a waiting worker
		done:    make(chan struct{}),
	}
	go b.dispatch()
	return b
}

// enqueue submits one record for scoring. With block, a full queue
// applies backpressure (the request path) — bounded by the item's ctx,
// whose expiry abandons the wait (the caller sheds the request rather
// than parking a handler goroutine forever behind a saturated batcher).
// Without block, a full queue returns false immediately (the
// shadow-mirroring path, where dropping a mirror beats slowing live
// traffic). It also returns false — without enqueuing — once the batcher
// is closed: the caller's slot was replaced and it must retry on the
// successor generation. Callers distinguish the two false cases by the
// item's ctx error. A true return guarantees the record will be scored
// or shed-with-accounting (close drains the queue before stopping).
func (b *batcher) enqueue(it item, block bool) bool {
	b.closeMu.RLock()
	defer b.closeMu.RUnlock()
	if b.closed {
		return false
	}
	if block {
		if it.ctx != nil {
			select {
			case b.in <- it:
				return true
			case <-it.ctx.Done():
				return false
			}
		}
		b.in <- it
		return true
	}
	select {
	case b.in <- it:
		return true
	default:
		return false
	}
}

// queueLen reports the current queue depth (for the /metrics gauge).
func (b *batcher) queueLen() int { return len(b.in) }

// close stops intake, flushes whatever is queued, and waits for the
// dispatcher to exit. The batches channel is closed afterwards, which is
// the workers' signal to drain and stop. Safe to call more than once.
// Acquiring the write lock cannot deadlock against a blocked enqueue: the
// dispatcher keeps draining the queue until the channel closes, so every
// in-flight send completes and releases its read lock.
func (b *batcher) close() {
	b.closeMu.Lock()
	if !b.closed {
		b.closed = true
		close(b.in)
	}
	b.closeMu.Unlock()
	<-b.done
}

func (b *batcher) getSlab() []item {
	if s, ok := b.slabs.Get().(*[]item); ok {
		return (*s)[:0]
	}
	return make([]item, 0, b.cfg.MaxBatch)
}

// putSlab returns a delivered batch's backing array for reuse. Workers
// call it after the batch's verdicts are written. Slabs whose capacity
// exceeds MaxBatch are dropped instead of pooled — a defensive cap:
// today's dispatcher never grows a slab past MaxBatch, but a future
// change that over-appends would otherwise keep recycling the oversized
// array between GC cycles, inflating every pooled batch to burst size.
func (b *batcher) putSlab(s []item) {
	if cap(s) > b.cfg.MaxBatch {
		return // oversized: let the GC take it
	}
	for i := range s {
		s[i] = item{} // drop record/waitgroup references for the GC
	}
	s = s[:0]
	b.slabs.Put(&s)
}

// dispatch is the single goroutine that cuts batches. Once it holds a
// batch's first record it selects between handing the batch to a waiting
// worker and appending the next queued record; a full batch only waits
// for a worker. Closing the queue hands off the open batch and stops.
func (b *batcher) dispatch() {
	defer close(b.batches)
	defer close(b.done)
	for first := range b.in {
		fb := flushedBatch{items: append(b.getSlab(), first), openedAt: time.Now()}
	fill:
		for {
			in := b.in
			if len(fb.items) == b.cfg.MaxBatch {
				in = nil
			}
			select {
			case b.batches <- fb:
				break fill
			case it, ok := <-in:
				if !ok {
					b.batches <- fb
					return
				}
				fb.items = append(fb.items, it)
			}
		}
	}
}
