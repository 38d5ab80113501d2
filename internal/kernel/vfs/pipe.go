package vfs

import (
	"sync"
	"time"

	"gowali/internal/kernel/waitq"
	"gowali/internal/linux"
)

// PipeCapacity is the default pipe buffer size, matching Linux's 64 KiB.
const PipeCapacity = 64 * 1024

// Pipe is a byte stream with POSIX pipe semantics: reads wait while the
// buffer is empty and writers remain; writes wait while full and readers
// remain; EOF when all writers close; EPIPE when all readers close.
//
// The pipe itself never parks anybody: every state change ends in one
// Wake of its wait queue, and whoever wants to wait sleeps on that
// queue — a guest through the kernel's sleep primitive (which calls
// Read/Write with nonblock set), a host-side pump through the
// nonblock=false entry points below, pollers of either end through
// poll/epoll.
type Pipe struct {
	mu      sync.Mutex
	buf     []byte
	cap     int
	readers int
	writers int
	q       waitq.Queue
}

// NewPipe returns an empty pipe with the default capacity and no
// registered ends; callers account ends with AddReader/AddWriter.
func NewPipe() *Pipe { return &Pipe{cap: PipeCapacity} }

// addEnds adjusts the end counts and wakes waiters to re-check them.
func (p *Pipe) addEnds(readers, writers int) {
	p.mu.Lock()
	p.readers += readers
	p.writers += writers
	p.mu.Unlock()
	p.q.Wake()
}

// AddReader registers a read end.
func (p *Pipe) AddReader() { p.addEnds(1, 0) }

// AddWriter registers a write end.
func (p *Pipe) AddWriter() { p.addEnds(0, 1) }

// CloseReader drops a read end.
func (p *Pipe) CloseReader() { p.addEnds(-1, 0) }

// CloseWriter drops a write end.
func (p *Pipe) CloseWriter() { p.addEnds(0, -1) }

// Read implements pipe read semantics. A zero return with errno 0 is
// EOF. With nonblock unset an empty pipe sleeps the calling (host-side)
// goroutine on the pipe's queue until data or EOF arrives.
func (p *Pipe) Read(b []byte, nonblock bool) (int, linux.Errno) {
	if nonblock {
		return p.read(b)
	}
	var n int
	errno := p.q.Sleep(time.Time{}, func() (e linux.Errno) {
		n, e = p.read(b)
		return e
	})
	return n, errno
}

func (p *Pipe) read(b []byte) (int, linux.Errno) {
	p.mu.Lock()
	if len(p.buf) == 0 {
		eof := p.writers == 0
		p.mu.Unlock()
		if eof {
			return 0, 0
		}
		return 0, linux.EAGAIN
	}
	n := copy(b, p.buf)
	if n == len(p.buf) {
		// Drained: rewind instead of keeping a zero-capacity tail, so a
		// request/reply stream's next write reuses the array.
		p.buf = p.buf[:0]
	} else {
		p.buf = p.buf[n:]
	}
	p.mu.Unlock()
	p.q.Wake()
	return n, 0
}

// Write implements pipe write semantics. Writing with no readers returns
// EPIPE (the kernel layer also raises SIGPIPE). With nonblock unset the
// whole buffer is pushed, sleeping the calling (host-side) goroutine on
// the pipe's queue while it is full.
func (p *Pipe) Write(b []byte, nonblock bool) (int, linux.Errno) {
	if nonblock {
		return p.write(b)
	}
	total := 0
	errno := p.q.Sleep(time.Time{}, func() linux.Errno {
		n, e := p.write(b[total:])
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

// write queues what fits: EAGAIN when nothing does, EPIPE with no reader.
func (p *Pipe) write(b []byte) (int, linux.Errno) {
	if len(b) == 0 {
		return 0, 0
	}
	p.mu.Lock()
	if p.readers == 0 {
		p.mu.Unlock()
		return 0, linux.EPIPE
	}
	n := p.cap - len(p.buf)
	if n > len(b) {
		n = len(b)
	}
	if n == 0 {
		p.mu.Unlock()
		return 0, linux.EAGAIN
	}
	p.buf = append(p.buf, b[:n]...)
	p.mu.Unlock()
	p.q.Wake()
	return n, 0
}

// Poll returns readiness bits for the given end.
func (p *Pipe) Poll(readEnd bool) int16 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var ev int16
	if readEnd {
		if len(p.buf) > 0 {
			ev |= linux.POLLIN
		}
		if p.writers == 0 {
			ev |= linux.POLLHUP
		}
	} else {
		if len(p.buf) < p.cap {
			ev |= linux.POLLOUT
		}
		if p.readers == 0 {
			ev |= linux.POLLERR
		}
	}
	return ev
}

// Queue returns the pipe's wait queue, woken on every state change
// (data written, space freed, an end closed). Pollers of either end
// arm on it for event-driven readiness.
func (p *Pipe) Queue() *waitq.Queue { return &p.q }

// Buffered returns the number of bytes waiting (FIONREAD).
func (p *Pipe) Buffered() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.buf)
}
