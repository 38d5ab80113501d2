package kernel

import (
	"slices"
	"sync"
	"time"

	"gowali/internal/kernel/waitq"
	"gowali/internal/linux"
)

// poll(2), select and epoll. Readiness is level-triggered, and waiting
// for it is one attempt closure over the kernel's sleep primitive. Each
// file exposes its wait queues through the pollWaitable interface. poll
// and select arm the sleeper on all of them, re-scan, and park until a
// wakeup, a signal, a quiesce request or the deadline: O(fds) per round,
// as poll is. epoll pays per ready file: a registration keeps a callback
// armed on its file's queues that lists it as possibly ready, and the
// sleeper parks on the instance's own queue and polls listed files only.
// A file that is not ready and has no queue (a regular file polled for
// POLLPRI, an epoll fd nested in a poll set) never becomes ready, so
// such a wait ends only by timeout or EINTR, as it does on Linux.

// pollWaitable is implemented by files with event-driven readiness:
// PollQueues appends to qs every wait queue whose wakeup may change the
// file's Poll result (the caller owns the slice, so a sleeper reuses one
// across sleeps). A file that is always ready appends none.
type pollWaitable interface {
	PollQueues(qs []*waitq.Queue) []*waitq.Queue
}

// PollFD mirrors struct pollfd.
type PollFD struct {
	FD      int32
	Events  int16
	Revents int16
}

// deadlineAfter converts a poll-style timeout (negative = none) into
// the sleep primitive's deadline.
func deadlineAfter(timeoutNs int64) time.Time {
	if timeoutNs < 0 {
		return time.Time{}
	}
	return time.Now().Add(time.Duration(timeoutNs))
}

// pollScan samples every fd once, filling Revents; returns the ready
// count.
func (p *Process) pollScan(fds []PollFD) int {
	ready := 0
	for i := range fds {
		fds[i].Revents = 0
		if fds[i].FD < 0 {
			continue
		}
		f, errno := p.FDs.Get(fds[i].FD)
		if errno != 0 {
			fds[i].Revents = linux.POLLNVAL
			ready++
			continue
		}
		mask := fds[i].Events | linux.POLLHUP | linux.POLLERR
		if got := f.Poll() & mask; got != 0 {
			fds[i].Revents = got
			ready++
		}
	}
	return ready
}

// Poll implements poll(2)/ppoll(2). timeoutNs < 0 blocks indefinitely.
func (p *Process) Poll(fds []PollFD, timeoutNs int64) (int, linux.Errno) {
	queues := func(qs []*waitq.Queue) []*waitq.Queue {
		for i := range fds {
			if f, errno := p.FDs.Get(fds[i].FD); errno == 0 {
				qs = fileQueues(f, qs)
			}
		}
		return qs
	}
	ready := 0
	errno := p.sleep(queues, deadlineAfter(timeoutNs), func() linux.Errno {
		if ready = p.pollScan(fds); ready == 0 && timeoutNs != 0 {
			return linux.EAGAIN
		}
		return 0
	})
	if errno == linux.ETIMEDOUT {
		errno = 0
	}
	return ready, errno
}

// Select implements select-style readiness over three fd sets expressed as
// bitmaps (one uint64 per 64 fds). Returns the total ready count.
func (p *Process) Select(nfds int32, read, write, except []uint64, timeoutNs int64) (int, linux.Errno) {
	getBit := func(set []uint64, fd int32) bool {
		if set == nil {
			return false
		}
		return set[fd/64]&(1<<(uint(fd)%64)) != 0
	}
	var fds []PollFD
	for fd := int32(0); fd < nfds; fd++ {
		var ev int16
		if getBit(read, fd) {
			ev |= linux.POLLIN
		}
		if getBit(write, fd) {
			ev |= linux.POLLOUT
		}
		if getBit(except, fd) {
			ev |= linux.POLLPRI
		}
		if ev != 0 {
			fds = append(fds, PollFD{FD: fd, Events: ev})
		}
	}
	n, errno := p.Poll(fds, timeoutNs)
	if errno != 0 {
		return 0, errno
	}
	clear := func(set []uint64) {
		for i := range set {
			set[i] = 0
		}
	}
	clear(read)
	clear(write)
	clear(except)
	total := 0
	for _, f := range fds {
		if f.Revents&linux.POLLIN != 0 && read != nil {
			read[f.FD/64] |= 1 << (uint(f.FD) % 64)
			total++
		}
		if f.Revents&linux.POLLOUT != 0 && write != nil {
			write[f.FD/64] |= 1 << (uint(f.FD) % 64)
			total++
		}
	}
	_ = n
	return total, 0
}

// --- epoll ---

// epollReg is one registration: it names the open file (as on Linux; the
// descriptor number only keys the interest map) and keeps a callback
// entry armed on that file's wait queues. A wake of any of them puts the
// registration on the instance's ready list, which is all a wait polls.
type epollReg struct {
	ef     *EpollFile
	file   File
	events uint32
	data   uint64
	w      *waitq.Waiter  // callback entry running wake
	on     []*waitq.Queue // queues w is armed on
	dead   bool           // deregistered; may still be on the ready list

	listed bool      // on the ready list; guarded by ef.mu, as is next
	next   *epollReg // ready-list link
}

// EpollFile is an epoll instance as a File. The interest map is keyed
// by guest fd; the descriptor table deregisters an fd when it is closed
// or replaced (dup2), so a recycled descriptor never reports the dead
// file's events.
//
// Lock order: descriptor table → ctl → a file's own lock → that file's
// wait queues → mu → q. ctl guards the interest map and everything in a
// registration but its list link, and is held while registrations are
// polled and (re)armed. mu guards the ready list only: callbacks take it
// under a file queue's lock, so it is never held across File.Poll,
// FDs.Get or a file queue's Add/Remove.
type EpollFile struct {
	flagHolder
	ctl     sync.Mutex
	items   map[int32]*epollReg
	scratch []*waitq.Queue // arm's view of a file's current queues

	mu         sync.Mutex
	head, tail *epollReg // ready list, FIFO

	q waitq.Queue // woken when a registration is listed; EpollWait parks here
}

// EpollCreate implements epoll_create1.
func (p *Process) EpollCreate(flags int32) (int32, linux.Errno) {
	ef := &EpollFile{items: make(map[int32]*epollReg)}
	return p.FDs.Alloc(ef, flags&linux.O_CLOEXEC != 0, 0)
}

// list puts r on the tail of the ready list unless it is listed already.
func (e *EpollFile) list(r *epollReg) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if r.listed {
		return false
	}
	r.listed, r.next = true, nil
	if e.tail == nil {
		e.head = r
	} else {
		e.tail.next = r
	}
	e.tail = r
	return true
}

// wake is the registration's callback; it runs under the lock of the
// file queue being woken (waitq.NewCallback says what that forbids).
func (r *epollReg) wake() {
	if r.ef.list(r) {
		r.ef.q.Wake()
	}
}

// arm moves r's callback entry onto the file's current queue set. The
// set changes with a socket's state (listen, a connect completing, the
// lazy bind of a datagram socket); each change wakes a queue r is on
// already, so the wait that follows re-arms before it polls. Any other
// call finds the set unchanged and touches no queue. Callers hold ctl.
func (e *EpollFile) arm(r *epollReg) {
	e.scratch = fileQueues(r.file, e.scratch[:0])
	if slices.Equal(e.scratch, r.on) {
		return
	}
	r.disarm()
	r.on = append(r.on, e.scratch...)
	for _, q := range r.on {
		q.Add(r.w)
	}
}

// disarm takes r off every file queue: none calls into it afterwards.
func (r *epollReg) disarm() {
	for _, q := range r.on {
		q.Remove(r.w)
	}
	r.on = r.on[:0]
}

// EpollCtl implements epoll_ctl.
func (p *Process) EpollCtl(epfd, op, fd int32, events uint32, data uint64) linux.Errno {
	f, errno := p.FDs.Get(epfd)
	if errno != 0 {
		return errno
	}
	ef, ok := f.(*EpollFile)
	if !ok || fd == epfd {
		return linux.EINVAL
	}
	file, errno := p.FDs.Get(fd)
	if errno != 0 {
		return errno
	}
	ef.ctl.Lock()
	r := ef.items[fd]
	switch {
	case op == linux.EPOLL_CTL_ADD && r == nil:
		r = &epollReg{ef: ef, file: file}
		r.w = waitq.NewCallback(r.wake)
		ef.items[fd] = r
	case op == linux.EPOLL_CTL_ADD:
		errno = linux.EEXIST
	case op != linux.EPOLL_CTL_MOD && op != linux.EPOLL_CTL_DEL:
		errno = linux.EINVAL
	case r == nil:
		errno = linux.ENOENT
	case op == linux.EPOLL_CTL_DEL:
		ef.forgetLocked(fd)
	}
	if errno == 0 && op != linux.EPOLL_CTL_DEL {
		// Arm, then list: the next wait polls the file under the new mask,
		// so one that is ready already is reported, and a blocked wait
		// wakes up to do so.
		r.events, r.data = events, data
		ef.arm(r)
		r.wake()
	}
	ef.ctl.Unlock()
	if errno == 0 && op == linux.EPOLL_CTL_ADD {
		// A close of fd on another thread before the insert found nothing
		// to forget.
		if now, _ := p.FDs.Get(fd); now != file {
			ef.forget(fd)
		}
	}
	return errno
}

// forget drops fd from the interest map (descriptor closed or replaced).
// Part of the FDTable teardown path: called with the table lock held.
func (e *EpollFile) forget(fd int32) {
	e.ctl.Lock()
	e.forgetLocked(fd)
	e.ctl.Unlock()
}

func (e *EpollFile) forgetLocked(fd int32) {
	if r := e.items[fd]; r != nil {
		delete(e.items, fd)
		r.disarm()
		r.dead = true
	}
}

// EpollEvent is one ready event.
type EpollEvent struct {
	Events uint32
	Data   uint64
}

// collect polls the registrations that are on the ready list at its
// call — each once, oldest first — and appends up to max events to out.
// A registration comes off the list before it is polled, so a wake that
// races with the poll lists it again; one that reported wanted bits goes
// back on the tail (level-triggered; behind those a full out left
// unexamined, so none starves).
func (e *EpollFile) collect(out []EpollEvent, max int) []EpollEvent {
	e.ctl.Lock()
	defer e.ctl.Unlock()
	e.mu.Lock()
	last := e.tail
	e.mu.Unlock()
	for r := (*epollReg)(nil); r != last && len(out) < max; {
		e.mu.Lock()
		r = e.head
		if e.head = r.next; e.head == nil {
			e.tail = nil
		}
		r.listed = false
		e.mu.Unlock()
		if r.dead {
			continue
		}
		e.arm(r)
		ev := uint32(uint16(r.file.Poll()))
		if got := ev & (r.events | linux.EPOLLHUP | linux.EPOLLERR); got != 0 {
			out = append(out, EpollEvent{Events: got, Data: r.data})
			e.list(r)
		}
	}
	if len(out) > 0 {
		e.q.Wake() // what went back on the list is as ready for another blocked thread
	}
	return out
}

// EpollWait implements epoll_wait (level-triggered). The returned slice
// is the calling task's own buffer, valid until its next EpollWait.
func (p *Process) EpollWait(epfd int32, maxEvents int, timeoutNs int64) ([]EpollEvent, linux.Errno) {
	f, errno := p.FDs.Get(epfd)
	if errno != 0 {
		return nil, errno
	}
	ef, ok := f.(*EpollFile)
	if !ok {
		return nil, linux.EINVAL
	}
	out := p.epollOut[:0]
	queues := func(qs []*waitq.Queue) []*waitq.Queue { return append(qs, &ef.q) }
	errno = p.sleep(queues, deadlineAfter(timeoutNs), func() linux.Errno {
		if out = ef.collect(out, maxEvents); len(out) == 0 && timeoutNs != 0 {
			return linux.EAGAIN
		}
		return 0
	})
	p.epollOut = out
	if errno == linux.ETIMEDOUT {
		errno = 0
	}
	return out, errno
}

// --- File interface for EpollFile ---

// Read implements File.
func (e *EpollFile) Read(b []byte) (int, linux.Errno) { return 0, linux.EINVAL }

// Write implements File.
func (e *EpollFile) Write(b []byte) (int, linux.Errno) { return 0, linux.EINVAL }

// Pread implements File.
func (e *EpollFile) Pread(b []byte, off int64) (int, linux.Errno) { return 0, linux.EINVAL }

// Pwrite implements File.
func (e *EpollFile) Pwrite(b []byte, off int64) (int, linux.Errno) { return 0, linux.EINVAL }

// Lseek implements File.
func (e *EpollFile) Lseek(off int64, whence int32) (int64, linux.Errno) { return 0, linux.ESPIPE }

// Stat implements File.
func (e *EpollFile) Stat() (linux.Stat, linux.Errno) {
	return linux.Stat{Mode: linux.S_IFREG, Blksize: 4096}, 0
}

// Truncate implements File.
func (e *EpollFile) Truncate(int64) linux.Errno { return linux.EINVAL }

// Close implements File: every registration is disarmed, so no file
// queue is left calling into a dead instance.
func (e *EpollFile) Close() linux.Errno {
	e.ctl.Lock()
	defer e.ctl.Unlock()
	for fd := range e.items {
		e.forgetLocked(fd)
	}
	return 0
}

// Poll implements File.
func (e *EpollFile) Poll() int16 { return 0 }

// Ioctl implements File.
func (e *EpollFile) Ioctl(cmd uint32, arg []byte) (int32, linux.Errno) {
	return 0, linux.ENOTTY
}
