package serve

import (
	"sync"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/nids"
)

func collectBatches(b *batcher, out chan<- int) {
	for fb := range b.batches {
		batch := fb.items
		n := len(batch)
		for i := range batch {
			batch[i].wg.Done()
		}
		b.putSlab(batch)
		out <- n
	}
	close(out)
}

// TestBatcherFlushesOnMaxBatch checks that no batch ever exceeds MaxBatch
// and that every record is delivered.
func TestBatcherFlushesOnMaxBatch(t *testing.T) {
	b := newBatcher(batcherConfig{MaxBatch: 4, QueueDepth: 64})
	sizes := make(chan int, 16)
	go collectBatches(b, sizes)

	var wg sync.WaitGroup
	rec := &data.Record{}
	var v nids.Verdict
	wg.Add(8)
	for i := 0; i < 8; i++ {
		b.enqueue(item{rec: rec, out: &v, wg: &wg}, true)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("8 records never delivered with MaxBatch=4")
	}
	b.close()
	total := 0
	for n := range sizes {
		if n > 4 {
			t.Fatalf("batch of %d exceeds MaxBatch=4", n)
		}
		total += n
	}
	if total != 8 {
		t.Fatalf("flushed %d records, enqueued 8", total)
	}
}

// TestBatcherHandsLoneRecordToWaitingWorker checks the work-conserving
// contract at low load: with a worker waiting, a lone record is handed
// over at once as a batch of one. There is no timer, and with MaxBatch far
// above one nothing but the hand-off can deliver it.
func TestBatcherHandsLoneRecordToWaitingWorker(t *testing.T) {
	b := newBatcher(batcherConfig{MaxBatch: 1024, QueueDepth: 64})
	defer b.close()
	sizes := make(chan int, 4)
	go collectBatches(b, sizes)

	var wg sync.WaitGroup
	var v nids.Verdict
	wg.Add(1)
	b.enqueue(item{rec: &data.Record{}, out: &v, wg: &wg}, true)
	select {
	case n := <-sizes:
		if n != 1 {
			t.Fatalf("lone record handed off in a batch of %d", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("lone record never reached the waiting worker")
	}
	wg.Wait()
}

// TestBatcherMergesWhileWorkerBusy checks the saturation side: while the
// only worker is busy, queued records merge into one batch capped at
// MaxBatch (the rest stay queued), and that batch is handed over as soon
// as the worker frees.
func TestBatcherMergesWhileWorkerBusy(t *testing.T) {
	const maxBatch = 4
	b := newBatcher(batcherConfig{MaxBatch: maxBatch, QueueDepth: 64})
	sizes := make(chan int, 8)
	release := make(chan struct{})
	go func() {
		busy := true
		for fb := range b.batches {
			sizes <- len(fb.items)
			if busy {
				<-release
				busy = false
			}
			for i := range fb.items {
				fb.items[i].wg.Done()
			}
			b.putSlab(fb.items)
		}
		close(sizes)
	}()

	var wg sync.WaitGroup
	var v nids.Verdict
	rec := &data.Record{}
	wg.Add(1)
	b.enqueue(item{rec: rec, out: &v, wg: &wg}, true)
	if n := <-sizes; n != 1 {
		t.Fatalf("first batch holds %d records, want the lone first record", n)
	}

	// The worker now holds the first batch. Of the records queued behind
	// it, the dispatcher takes exactly MaxBatch and leaves the rest.
	const queued = maxBatch + 2
	wg.Add(queued)
	for i := 0; i < queued; i++ {
		b.enqueue(item{rec: rec, out: &v, wg: &wg}, true)
	}
	deadline := time.Now().Add(5 * time.Second)
	for b.queueLen() != queued-maxBatch {
		if time.Now().After(deadline) {
			t.Fatalf("queue holds %d records, want %d left behind a full batch", b.queueLen(), queued-maxBatch)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	if n := <-sizes; n != maxBatch {
		t.Fatalf("batch handed to the freed worker holds %d records, want %d", n, maxBatch)
	}
	wg.Wait()
	b.close()
	total := 1 + maxBatch
	for n := range sizes {
		total += n
	}
	if total != 1+queued {
		t.Fatalf("delivered %d records, enqueued %d", total, 1+queued)
	}
}

// gateDetector is a BatchDetector whose DetectBatch reports itself on
// busy and then blocks until release is closed.
type gateDetector struct {
	busy    chan struct{}
	release chan struct{}
}

func (g *gateDetector) Name() string                     { return "gate" }
func (g *gateDetector) Detect(*data.Record) nids.Verdict { return nids.Verdict{} }
func (g *gateDetector) DetectBatch([]*data.Record, []nids.Verdict) {
	g.busy <- struct{}{}
	<-g.release
}

// TestScorerAssemblyIncludesReplicaWait checks that batch_assembly runs
// to the real hand-off: a batch opened while the only replica is busy
// records at least the time it then waited for that replica.
func TestScorerAssemblyIncludesReplicaWait(t *testing.T) {
	det := &gateDetector{busy: make(chan struct{}, 2), release: make(chan struct{})}
	sc := &scorer{
		b:         newBatcher(batcherConfig{MaxBatch: 8, QueueDepth: 8}),
		detectors: []nids.BatchDetector{det},
		maxBatch:  8,
		stages:    newStageMetrics(),
	}
	sc.workerWG.Add(1)
	go sc.worker(0)
	defer sc.close()

	var wg sync.WaitGroup
	recs := make([]data.Record, 2)
	verdicts := make([]nids.Verdict, 2)
	wg.Add(2)
	sc.b.enqueue(item{rec: &recs[0], out: &verdicts[0], wg: &wg}, true)
	<-det.busy // the replica is scoring the first batch
	sc.b.enqueue(item{rec: &recs[1], out: &verdicts[1], wg: &wg}, true)
	deadline := time.Now().Add(5 * time.Second)
	for sc.queueLen() != 0 { // the dispatcher has opened the second batch
		if time.Now().After(deadline) {
			t.Fatal("dispatcher never took the second record")
		}
		time.Sleep(time.Millisecond)
	}
	opened := time.Now()
	time.Sleep(20 * time.Millisecond)
	busy := time.Since(opened)
	close(det.release)
	wg.Wait()

	if n := sc.stages.assembly.Count(); n != 2 {
		t.Fatalf("assembly observed %d batches, want 2", n)
	}
	if got := sc.stages.assembly.Sum(); got < busy.Seconds() {
		t.Fatalf("recorded assembly %.6fs is less than the %.6fs the batch waited for the busy replica", got, busy.Seconds())
	}
}

// TestPutSlabDropsOversized checks the free-list cap: a slab whose backing
// array outgrew MaxBatch must not re-enter the pool, while a right-sized
// slab must.
func TestPutSlabDropsOversized(t *testing.T) {
	b := newBatcher(batcherConfig{MaxBatch: 4, QueueDepth: 4})
	defer b.close()

	// A right-sized slab round-trips (cap preserved through put/get).
	b.putSlab(make([]item, 0, 4))
	if got := b.getSlab(); cap(got) > 4 {
		t.Fatalf("right-sized slab came back with cap %d", cap(got))
	}

	// An oversized slab (e.g. from a burst) is dropped, so the next getSlab
	// hands out a fresh MaxBatch-capacity array, never the big one.
	b.putSlab(make([]item, 0, 1024))
	for i := 0; i < 4; i++ {
		if got := b.getSlab(); cap(got) > b.cfg.MaxBatch {
			t.Fatalf("oversized slab (cap %d) re-entered the free list", cap(got))
		}
	}
}

// TestBatcherEnqueueAfterCloseRefuses pins the close protocol the
// registry's slot swaps rely on: an enqueue racing (or following) close
// returns false instead of panicking on the closed channel, in both
// blocking and non-blocking modes, and close is idempotent.
func TestBatcherEnqueueAfterCloseRefuses(t *testing.T) {
	b := newBatcher(batcherConfig{MaxBatch: 4, QueueDepth: 4})
	sizes := make(chan int, 4)
	go collectBatches(b, sizes)
	b.close()
	b.close() // idempotent
	var wg sync.WaitGroup
	var v nids.Verdict
	for _, block := range []bool{true, false} {
		if b.enqueue(item{rec: &data.Record{}, out: &v, wg: &wg}, block) {
			t.Fatalf("enqueue(block=%v) accepted a record after close", block)
		}
	}
	for range sizes {
	}
}

// TestBatcherCloseFlushesQueued checks the drain path: records enqueued
// before close are all delivered, several batches' worth included, and
// the drain still respects MaxBatch.
func TestBatcherCloseFlushesQueued(t *testing.T) {
	const maxBatch, queued = 4, 10
	b := newBatcher(batcherConfig{MaxBatch: maxBatch, QueueDepth: 64})
	sizes := make(chan int, 16)
	var wg sync.WaitGroup
	var v nids.Verdict
	wg.Add(queued)
	for i := 0; i < queued; i++ {
		b.enqueue(item{rec: &data.Record{}, out: &v, wg: &wg}, true)
	}
	go collectBatches(b, sizes)
	b.close()
	wg.Wait()
	total := 0
	for n := range sizes {
		if n > maxBatch {
			t.Fatalf("drain cut a batch of %d, MaxBatch is %d", n, maxBatch)
		}
		total += n
	}
	if total != queued {
		t.Fatalf("drain delivered %d of %d queued records", total, queued)
	}
}
