package kernel

import (
	"sync"
	"time"

	"gowali/internal/kernel/waitq"
	"gowali/internal/linux"
)

// poll(2), select and epoll. Readiness is level-triggered, and waiting
// for it is one scan closure over the kernel's sleep primitive: each
// file exposes its wait queues through the pollWaitable interface, the
// sleeper arms on all of them, re-scans, and parks until a wakeup, a
// signal, a quiesce request or the deadline. A file that is not ready
// and has no queue (a regular file polled for POLLPRI, an epoll fd
// nested in a poll set) never becomes ready, so such a wait ends only
// by timeout or EINTR, as it does on Linux.

// pollWaitable is implemented by files with event-driven readiness:
// PollQueues returns every wait queue whose wakeup may change the
// file's Poll result. A file that is currently ready needs no queues.
type pollWaitable interface {
	PollQueues() []*waitq.Queue
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
	var qs []*waitq.Queue // reused across rounds
	queues := func() []*waitq.Queue {
		qs = qs[:0]
		for i := range fds {
			if f, errno := p.FDs.Get(fds[i].FD); errno == 0 {
				qs = append(qs, fileQueues(f)...)
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

type epollEntry struct {
	fd     int32
	events uint32
	data   uint64
}

// EpollFile is an epoll instance as a File. The interest list is keyed
// by guest fd; the descriptor table deregisters an fd when it is
// closed or replaced (dup2), so a recycled descriptor never reports
// the dead file's events.
type EpollFile struct {
	flagHolder
	p  *Process
	mu sync.Mutex
	// interest list keyed by fd
	items map[int32]epollEntry
	// q wakes blocked EpollWait calls when the interest list itself
	// changes (EPOLL_CTL_ADD of an already-ready fd must end a wait
	// that armed only on the old snapshot's queues).
	q waitq.Queue
}

// EpollCreate implements epoll_create1.
func (p *Process) EpollCreate(flags int32) (int32, linux.Errno) {
	ef := &EpollFile{p: p, items: make(map[int32]epollEntry)}
	return p.FDs.Alloc(ef, flags&linux.O_CLOEXEC != 0, 0)
}

// EpollCtl implements epoll_ctl.
func (p *Process) EpollCtl(epfd, op, fd int32, events uint32, data uint64) linux.Errno {
	f, errno := p.FDs.Get(epfd)
	if errno != 0 {
		return errno
	}
	ef, ok := f.(*EpollFile)
	if !ok {
		return linux.EINVAL
	}
	if fd == epfd {
		return linux.EINVAL
	}
	if _, errno := p.FDs.Get(fd); errno != 0 {
		return errno
	}
	ef.mu.Lock()
	defer ef.mu.Unlock()
	switch op {
	case linux.EPOLL_CTL_ADD:
		if _, exists := ef.items[fd]; exists {
			return linux.EEXIST
		}
		ef.items[fd] = epollEntry{fd: fd, events: events, data: data}
	case linux.EPOLL_CTL_MOD:
		if _, exists := ef.items[fd]; !exists {
			return linux.ENOENT
		}
		ef.items[fd] = epollEntry{fd: fd, events: events, data: data}
	case linux.EPOLL_CTL_DEL:
		if _, exists := ef.items[fd]; !exists {
			return linux.ENOENT
		}
		delete(ef.items, fd)
	default:
		return linux.EINVAL
	}
	ef.q.Wake() // a blocked wait re-snapshots the interest list
	return 0
}

// forget drops fd from the interest list (descriptor closed or
// replaced). Part of the FDTable teardown path.
func (e *EpollFile) forget(fd int32) {
	e.mu.Lock()
	delete(e.items, fd)
	e.mu.Unlock()
	e.q.Wake()
}

// EpollEvent is one ready event.
type EpollEvent struct {
	Events uint32
	Data   uint64
}

// snapshot appends a copy of the interest list to buf. Scans work on a
// copy because a descriptor-table teardown calls forget with the table
// lock held, so the table cannot be consulted under e.mu.
func (e *EpollFile) snapshot(buf []epollEntry) []epollEntry {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, it := range e.items {
		buf = append(buf, it)
	}
	return buf
}

// EpollWait implements epoll_wait (level-triggered).
func (p *Process) EpollWait(epfd int32, maxEvents int, timeoutNs int64) ([]EpollEvent, linux.Errno) {
	f, errno := p.FDs.Get(epfd)
	if errno != 0 {
		return nil, errno
	}
	ef, ok := f.(*EpollFile)
	if !ok {
		return nil, linux.EINVAL
	}
	var (
		items []epollEntry   // interest-list copy, reused across rounds
		qs    []*waitq.Queue // likewise
		out   []EpollEvent
	)
	queues := func() []*waitq.Queue {
		// ef.q first: an interest-list mutation (EpollCtl) must also
		// end the wait, so the next round arms on the new list.
		qs = append(qs[:0], &ef.q)
		items = ef.snapshot(items[:0])
		for _, it := range items {
			if file, errno := p.FDs.Get(it.fd); errno == 0 {
				qs = append(qs, fileQueues(file)...)
			}
		}
		return qs
	}
	errno = p.sleep(queues, deadlineAfter(timeoutNs), func() linux.Errno {
		items = ef.snapshot(items[:0])
		for _, it := range items {
			file, errno := p.FDs.Get(it.fd)
			if errno != 0 {
				continue
			}
			ev := uint32(uint16(file.Poll()))
			if got := ev & (it.events | linux.EPOLLHUP | linux.EPOLLERR); got != 0 && len(out) < maxEvents {
				out = append(out, EpollEvent{Events: got, Data: it.data})
			}
		}
		if len(out) == 0 && timeoutNs != 0 {
			return linux.EAGAIN
		}
		return 0
	})
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

// Close implements File.
func (e *EpollFile) Close() linux.Errno { return 0 }

// Poll implements File.
func (e *EpollFile) Poll() int16 { return 0 }

// Ioctl implements File.
func (e *EpollFile) Ioctl(cmd uint32, arg []byte) (int32, linux.Errno) {
	return 0, linux.ENOTTY
}
