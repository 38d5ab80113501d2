package kernel

import (
	"time"

	"gowali/internal/kernel/waitq"
	"gowali/internal/linux"
)

// sleep is the only place a guest goroutine parks: every blocking
// syscall — descriptor I/O, poll/select/epoll, futex, wait4, pause,
// sigsuspend, sigtimedwait, nanosleep — is an attempt closure over it.
// attempt must never block; it returns EAGAIN to keep waiting and
// anything else (0 included) to finish with that result. sleep retries
// it until it does, parked between attempts on queues() (nil = none)
// plus the task's signal queue, and supplies in one place what every
// such sleep needs:
//
//   - no waiter, no allocation when the answer is already there: the
//     first attempt runs before anything is armed;
//   - no allocation when it is not: the task parks on its own waiter,
//     made at its first block and armed on sig.pollQ from then until the
//     task exits, and collects the queues of a round in its own slice;
//   - no lost wakeups: from then on the waiter is cleared and armed
//     BEFORE each attempt, and every state change in the kernel ends
//     in a Wake of its queue, so an edge between the attempt and the
//     park leaves a token on the waiter. queues appends the round's
//     wait queues to the slice it is given; it is re-evaluated every
//     round because a file's wakeup sources change with its state
//     (connect, accept, lazy datagram bind);
//   - interruption: a deliverable signal — the SIGKILL of a forced
//     termination or a budget-overrun sweep included — or a snapshot
//     quiesce request ends the sleep with EINTR. Both are level
//     conditions checked after the Clear, and PostSignal,
//     PostThreadSignal and RequestQuiesce wake sig.pollQ, so one raised
//     later leaves a token on the waiter (one raised while the task was
//     running left a stale token, which the Clear drops);
//   - scheduler integration: the park is bracketed by BeginBlock and
//     EndBlock, with no lock held, so a scheduled guest gives its run
//     slot back while it sleeps;
//   - an optional deadline (zero = none), reported as ETIMEDOUT for
//     the caller to map (poll: 0 ready, sigtimedwait: EAGAIN,
//     nanosleep: 0).
//
// A task sleeps on its own goroutine only, so the waiter and the slice
// need no lock of their own.
func (p *Process) sleep(queues func([]*waitq.Queue) []*waitq.Queue, deadline time.Time, attempt func() linux.Errno) linux.Errno {
	if errno := attempt(); errno != linux.EAGAIN {
		return errno
	}
	w := p.parkWaiter()
	var expired <-chan time.Time // nil (never ready) without a deadline
	if !deadline.IsZero() {
		t := time.NewTimer(time.Until(deadline))
		defer t.Stop()
		expired = t.C
	}
	for {
		w.Clear()
		armed := p.armed[:0]
		if queues != nil {
			armed = queues(armed)
		}
		for _, q := range armed {
			q.Add(w)
		}
		// Sampled before the attempt, so an event that changes state and
		// then posts a signal (a child's exit and its SIGCHLD) is seen by
		// the attempt and wins over the EINTR.
		interrupted := p.HasDeliverableSignal() || p.QuiesceRequested()
		errno := attempt()
		if errno == linux.EAGAIN && interrupted {
			errno = linux.EINTR
		}
		if errno == linux.EAGAIN {
			p.BeginBlock()
			select {
			case <-w.C:
			case <-expired:
				errno = linux.ETIMEDOUT
			}
			p.EndBlock()
		}
		for i, q := range armed {
			q.Remove(w)
			armed[i] = nil // a parked buffer must not pin a closed file's queue
		}
		p.armed = armed
		if errno != linux.EAGAIN {
			return errno
		}
	}
}

// parkWaiter returns the task's waiter, making and arming it on the
// group's signal queue at the task's first block. Fork and CloneThread
// build their Process from scratch, so a child never shares it; Exit
// disarms it.
func (p *Process) parkWaiter() *waitq.Waiter {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.waiter == nil {
		p.waiter = waitq.NewWaiter()
		p.sig.pollQ.Add(p.waiter)
	}
	return p.waiter
}

// fileQueues appends to qs every wait queue whose wakeup may change f's
// readiness; none for files that are always ready.
func fileQueues(f File, qs []*waitq.Queue) []*waitq.Queue {
	if pw, ok := f.(pollWaitable); ok {
		return pw.PollQueues(qs)
	}
	return qs
}

// fileSleep is sleep on f's own queues.
func (p *Process) fileSleep(f File, attempt func() linux.Errno) linux.Errno {
	return p.sleep(func(qs []*waitq.Queue) []*waitq.Queue { return fileQueues(f, qs) }, time.Time{}, attempt)
}

// readFile is read(2) on an open file description. File.Read never
// sleeps; a descriptor without O_NONBLOCK gets its blocking here.
func (p *Process) readFile(f File, b []byte) (int, linux.Errno) {
	if f.Flags()&linux.O_NONBLOCK != 0 {
		return f.Read(b)
	}
	var n int
	errno := p.fileSleep(f, func() (e linux.Errno) {
		n, e = f.Read(b)
		return e
	})
	return n, errno
}

// writeFile is write(2) on an open file description: without O_NONBLOCK
// the whole buffer is pushed, sleeping on back-pressure; a signal after
// a partial transfer returns the partial count, as Linux does.
func (p *Process) writeFile(f File, b []byte) (int, linux.Errno) {
	if f.Flags()&linux.O_NONBLOCK != 0 {
		return f.Write(b)
	}
	total := 0
	errno := p.fileSleep(f, func() linux.Errno {
		n, e := f.Write(b[total:])
		total += n
		if e == 0 && total < len(b) {
			return linux.EAGAIN // partial: keep pushing
		}
		return e
	})
	if total > 0 {
		return total, 0
	}
	return 0, errno
}
