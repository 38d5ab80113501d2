// Package waitq provides the kernel's wait queues: the event-driven
// readiness substrate behind poll/select/epoll. A Queue belongs to a
// waitable object (a pipe, a socket buffer, a listener's accept queue)
// and is woken whenever the object's readiness may have changed; a
// Waiter is one blocked task, registrable on any number of queues at
// once (poll over many fds = one waiter on many queues).
//
// The protocol is level-triggered and tolerant of spurious wakeups:
// a waiter arms itself on every relevant queue, re-checks readiness,
// and only then blocks on its channel. Wake happens after the state
// change it advertises, so the re-check closes the lost-wakeup window.
// Queues with no waiters — the overwhelmingly common case on data-path
// operations — pay one atomic load per Wake.
//
// Two loops run that protocol and nothing else parks on a Waiter: the
// kernel's guest sleep primitive (kernel.Process.sleep, which adds
// signals, quiesce and run slots) and Queue.Sleep here, for goroutines
// that are not guest tasks.
//
// A callback entry (NewCallback) does not park: it stays armed and every
// Wake runs its function. epoll registrations use one to put themselves
// on their instance's ready list.
package waitq

import (
	"sync"
	"sync/atomic"
	"time"

	"gowali/internal/linux"
)

// Waiter is one blocked task. C carries at most one pending wakeup;
// waking an already-woken waiter is a no-op, and a waiter re-checks
// readiness after every receive, so collapsing wakeups is safe.
type Waiter struct {
	C  chan struct{}
	fn func() // callback entry: run by Wake instead of a send on C
}

// NewWaiter returns a waiter ready to arm on queues.
func NewWaiter() *Waiter { return &Waiter{C: make(chan struct{}, 1)} }

// NewCallback returns an entry whose wakeup is a call of fn. fn runs
// inside Wake, with the woken queue's lock held and possibly the lock of
// the object the queue belongs to (some objects wake under their own
// lock): it must not block, must not call back into that object (no
// Poll, Read or Write) and must not Add to or Remove from the queue that
// is waking it. It may take locks ordered after every file queue and may
// Wake other queues under the same rule.
func NewCallback(fn func()) *Waiter { return &Waiter{fn: fn} }

// Clear drains a pending wakeup so the next block waits for a fresh
// one. Call between readiness re-checks when reusing a waiter.
func (w *Waiter) Clear() {
	select {
	case <-w.C:
	default:
	}
}

// wake delivers a (collapsing) wakeup.
func (w *Waiter) wake() {
	if w.fn != nil {
		w.fn()
		return
	}
	select {
	case w.C <- struct{}{}:
	default:
	}
}

// Queue is one object's set of blocked waiters.
type Queue struct {
	// armed mirrors len(waiters) so the no-waiter Wake fast path is a
	// single atomic load, keeping wait queues ~free for data-path
	// operations nobody is polling.
	armed atomic.Int32
	mu    sync.Mutex
	// waiters is a slice, not a set: a queue holds a handful of waiters
	// and is armed and disarmed around every sleep, so the linear scans
	// below are cheaper than hashing.
	waiters []*Waiter
}

// index returns w's position in q.waiters, or -1; callers hold q.mu.
func (q *Queue) index(w *Waiter) int {
	for i, x := range q.waiters {
		if x == w {
			return i
		}
	}
	return -1
}

// Add arms w on q (once, however often it is added). The caller must
// re-check readiness after arming (and before blocking) to close the
// lost-wakeup window.
func (q *Queue) Add(w *Waiter) {
	q.mu.Lock()
	if q.index(w) < 0 {
		q.waiters = append(q.waiters, w)
		q.armed.Store(int32(len(q.waiters)))
	}
	q.mu.Unlock()
}

// Remove disarms w from q. Safe to call whether or not w is armed.
func (q *Queue) Remove(w *Waiter) {
	q.mu.Lock()
	if i := q.index(w); i >= 0 {
		last := len(q.waiters) - 1
		q.waiters[i] = q.waiters[last]
		q.waiters[last] = nil
		q.waiters = q.waiters[:last]
		q.armed.Store(int32(last))
	}
	q.mu.Unlock()
}

// Armed reports how many waiters are armed on q (diagnostics, and the
// tests that check a closed epoll instance left nothing behind).
func (q *Queue) Armed() int { return int(q.armed.Load()) }

// Wake notifies every armed waiter that readiness may have changed.
// Call after releasing the object's own lock where possible; calling
// under it is also correct (parked waiters only re-check, and a callback
// entry never calls back into the object: see NewCallback).
func (q *Queue) Wake() {
	if q.armed.Load() == 0 {
		return
	}
	q.mu.Lock()
	for _, w := range q.waiters {
		w.wake()
	}
	q.mu.Unlock()
}

// waiters recycles the waiters Sleep parks on, so a pump that blocks
// once per request allocates nothing per block.
var waiters = sync.Pool{New: func() any { return NewWaiter() }}

// Sleep is the blocking primitive for goroutines that are not guest
// tasks (network pumps, benchmark probes, tests): it retries attempt —
// which must not block, returning EAGAIN to keep waiting — until it
// produces a result or the deadline (zero = none) passes, which yields
// ETIMEDOUT. It is the guest primitive (kernel.Process.sleep) minus
// signals and run slots, with the same ordering: attempt first, so a
// ready object costs no waiter; then arm on q BEFORE every re-attempt
// and Clear before it, so a Wake that follows a state change is either
// seen by the attempt or left pending on the waiter.
func (q *Queue) Sleep(deadline time.Time, attempt func() linux.Errno) linux.Errno {
	if errno := attempt(); errno != linux.EAGAIN {
		return errno
	}
	w := waiters.Get().(*Waiter)
	q.Add(w)
	defer func() {
		q.Remove(w)
		waiters.Put(w)
	}()
	var expired <-chan time.Time // nil (never ready) without a deadline
	if !deadline.IsZero() {
		t := time.NewTimer(time.Until(deadline))
		defer t.Stop()
		expired = t.C
	}
	for {
		w.Clear()
		if errno := attempt(); errno != linux.EAGAIN {
			return errno
		}
		select {
		case <-w.C:
		case <-expired:
			return linux.ETIMEDOUT
		}
	}
}
