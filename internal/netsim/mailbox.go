package netsim

import "sync"

// Mailbox is a host's unbounded FIFO mailbox: sends never block, so
// host goroutines can post to each other without deadlock regardless
// of topology cycles. It is condition-variable based rather than a
// channel with a pump goroutine: a d-dimensional network already runs
// 2^d host goroutines, and doubling that with pumps would blow the
// race detector's goroutine budget at d=12.
type Mailbox struct {
	mu       sync.Mutex
	nonEmpty sync.Cond
	items    []Message
	head     int
	closed   bool
}

// NewMailbox returns an empty open mailbox.
func NewMailbox() *Mailbox {
	q := &Mailbox{}
	q.nonEmpty.L = &q.mu
	return q
}

// Send enqueues m without blocking. Like a channel send, it panics on
// a closed mailbox — a send after retirement is a protocol bug.
func (q *Mailbox) Send(m Message) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		panic("netsim: send on closed mailbox")
	}
	q.items = append(q.items, m)
	q.nonEmpty.Signal()
	q.mu.Unlock()
}

// TrySend enqueues m unless the mailbox is closed, reporting whether
// it was accepted. The wire-fault layer delivers crash markers and
// ledger replays through it: aimed at a host that has dispatched and
// retired they are meaningless, and dropping them mirrors a real
// network's indifference to traffic at a decommissioned node.
func (q *Mailbox) TrySend(m Message) bool {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return false
	}
	q.items = append(q.items, m)
	q.nonEmpty.Signal()
	q.mu.Unlock()
	return true
}

// Recv dequeues the oldest message, blocking while the mailbox is
// empty and open. It returns ok=false once the mailbox is closed and
// drained (messages enqueued before Close are still delivered).
func (q *Mailbox) Recv() (m Message, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.head == len(q.items) && !q.closed {
		q.nonEmpty.Wait()
	}
	if q.head == len(q.items) {
		return m, false
	}
	m = q.items[q.head]
	q.items[q.head] = Message{} // release payload references
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return m, true
}

// maxRetainedCap bounds the backing capacity a mailbox keeps across
// arena reuse. Recv compacts but never shrinks, so one burst-heavy run
// would otherwise pin its peak capacity in the pool forever: a
// visibility run boots its whole team, 2^(d-1) arrivals, into the
// homebase's mailbox (2,048 at d=12), while CLEAN and cloning boot
// with one message. 256 slots retain every boot burst up to d=9 and
// let the rare bigger runs pay a fresh grow.
const maxRetainedCap = 256

// reset reopens the mailbox for a new run on a pooled fabric: the
// backing array is dropped if it outgrew maxRetainedCap, otherwise it
// is zeroed (releasing any payload references) and kept. Callers must
// have quiesced the previous run first — no host goroutine or delivery
// timer may still hold the mailbox.
func (q *Mailbox) reset() {
	q.mu.Lock()
	if cap(q.items) > maxRetainedCap {
		q.items = nil
	} else {
		clear(q.items[:cap(q.items)])
		q.items = q.items[:0]
	}
	q.head = 0
	q.closed = false
	q.mu.Unlock()
}

// Close marks the mailbox closed; queued messages remain receivable.
func (q *Mailbox) Close() {
	q.mu.Lock()
	q.closed = true
	q.nonEmpty.Broadcast()
	q.mu.Unlock()
}
