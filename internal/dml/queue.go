package dml

import (
	"sort"
	"sync"
	"time"

	"repro/internal/cluster/wire"
)

// CombinerStats counts decrement traffic. Enqueued counts individual
// release decrements; Frames counts weight-dec messages whose send
// succeeded, and EntriesSent the entries they carried. Combined counts
// decrements absorbed by merging into an entry already queued for the
// same object (Fig 6.6), so once every queued decrement has been sent
// or written off, Enqueued = EntriesSent + Combined + Dropped. The
// combining ratio is Enqueued/Frames; with no frame sent there is no
// ratio.
type CombinerStats struct {
	Enqueued    int64
	Frames      int64
	EntriesSent int64
	Combined    int64
	Dropped     int64 // entries written off: their link died or their frame failed to send
}

// linkQueue is the outgoing decrement queue toward one worker.
type linkQueue struct {
	pending map[int64]int64 // under Combiner.mu; objID → summed weight
	oldest  time.Time       // under Combiner.mu; enqueue time of the oldest pending entry
}

// Combiner owns the per-link combining queues: releases coalesce into
// at most one pending entry per object, and a background flusher bounds
// how long a decrement can sit queued (MaxAge), so traffic stays low
// without the protocol ever reordering a decrement before the release
// that produced it.
type Combiner struct {
	send func(addr string, decs []wire.DecEntry) error

	mu     sync.Mutex
	queues map[string]*linkQueue // guarded by mu
	closed bool                  // guarded by mu

	enqueued    int64 // guarded by mu
	frames      int64 // guarded by mu
	entriesSent int64 // guarded by mu
	combined    int64 // guarded by mu
	dropped     int64 // guarded by mu

	maxAge     time.Duration
	maxEntries int
	stop       chan struct{}
	wg         sync.WaitGroup
}

// NewCombiner starts the flusher. send delivers one weight-dec frame to
// the named link; it runs outside the combiner lock.
func NewCombiner(send func(addr string, decs []wire.DecEntry) error) *Combiner {
	c := &Combiner{
		send:       send,
		queues:     make(map[string]*linkQueue),
		maxAge:     5 * time.Millisecond,
		maxEntries: 64,
		stop:       make(chan struct{}),
	}
	c.wg.Add(1)
	go c.flushLoop()
	return c
}

// Enqueue queues one decrement toward addr, combining with any pending
// decrement for the same object. A full queue flushes inline so no
// frame ever exceeds the wire entry limit.
func (c *Combiner) Enqueue(addr string, objID, weight int64) {
	c.mu.Lock()
	q := c.queues[addr]
	if q == nil {
		q = &linkQueue{pending: make(map[int64]int64)}
		c.queues[addr] = q
	}
	if _, existed := q.pending[objID]; existed {
		c.combined++
	}
	if len(q.pending) == 0 {
		q.oldest = time.Now()
	}
	q.pending[objID] += weight
	c.enqueued++
	var batch []wire.DecEntry
	if len(q.pending) >= c.maxEntries {
		batch = c.takeLocked(q)
	}
	c.mu.Unlock()
	if batch != nil {
		c.deliver(addr, batch)
	}
}

// deliver sends one frame outside the lock and accounts it: a frame
// counts as sent only when send succeeds. A failed frame's entries are
// written off in Dropped, like DropLink's; the spawner has already
// taken their weight out of its outstanding ledger.
func (c *Combiner) deliver(addr string, batch []wire.DecEntry) {
	err := c.send(addr, batch)
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		c.dropped += int64(len(batch))
		return
	}
	c.frames++
	c.entriesSent += int64(len(batch))
}

// takeLocked drains q into a frame-sized batch, sorted by object id so
// frame contents are deterministic.
func (c *Combiner) takeLocked(q *linkQueue) []wire.DecEntry {
	if len(q.pending) == 0 {
		return nil
	}
	batch := make([]wire.DecEntry, 0, len(q.pending))
	for id, wt := range q.pending {
		batch = append(batch, wire.DecEntry{ObjID: id, Weight: wt})
	}
	sort.Slice(batch, func(i, j int) bool { return batch[i].ObjID < batch[j].ObjID })
	q.pending = make(map[int64]int64)
	return batch
}

// Flush force-sends every pending decrement (graceful drain).
func (c *Combiner) Flush() {
	c.mu.Lock()
	type out struct {
		addr  string
		batch []wire.DecEntry
	}
	var outs []out
	for addr, q := range c.queues {
		if b := c.takeLocked(q); b != nil {
			outs = append(outs, out{addr, b})
		}
	}
	c.mu.Unlock()
	for _, o := range outs {
		c.deliver(o.addr, o.batch)
	}
}

// DropLink discards pending decrements toward a dead worker; their
// objects died with it.
func (c *Combiner) DropLink(addr string) (droppedWeight int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if q := c.queues[addr]; q != nil {
		for _, wt := range q.pending {
			droppedWeight += wt
			c.dropped++
		}
		delete(c.queues, addr)
	}
	return droppedWeight
}

// Stats snapshots the traffic counters.
func (c *Combiner) Stats() CombinerStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CombinerStats{
		Enqueued: c.enqueued, Frames: c.frames,
		EntriesSent: c.entriesSent, Combined: c.combined, Dropped: c.dropped,
	}
}

// Close flushes everything and stops the flusher.
func (c *Combiner) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()
	close(c.stop)
	c.wg.Wait()
	c.Flush()
}

// flushLoop bounds decrement latency: every tick it sends any queue
// whose oldest pending entry has waited at least maxAge.
func (c *Combiner) flushLoop() {
	defer c.wg.Done()
	tick := time.NewTicker(c.maxAge)
	defer tick.Stop()
	for {
		select {
		case <-c.stop:
			return
		case now := <-tick.C:
			c.mu.Lock()
			type out struct {
				addr  string
				batch []wire.DecEntry
			}
			var outs []out
			for addr, q := range c.queues {
				if len(q.pending) > 0 && now.Sub(q.oldest) >= c.maxAge {
					if b := c.takeLocked(q); b != nil {
						outs = append(outs, out{addr, b})
					}
				}
			}
			c.mu.Unlock()
			for _, o := range outs {
				c.deliver(o.addr, o.batch)
			}
		}
	}
}
