package net

import (
	"sync"
	"time"

	"gowali/internal/kernel/vfs"
	"gowali/internal/kernel/waitq"
	"gowali/internal/linux"
)

// pipeConn is an in-process stream connection end: one vfs.Pipe per
// direction, with POSIX pipe blocking/EPIPE/EOF semantics supplying
// exactly the stream-socket behavior (loopback and switch transports,
// and both halves of socketpair).
type pipeConn struct {
	rx, tx *vfs.Pipe // rx: peer→us, tx: us→peer
	local  Addr
	peer   Addr

	mu        sync.Mutex
	readShut  bool
	writeShut bool
	closed    bool
}

// NewStreamPair wires two connected stream ends (socketpair(2)).
func NewStreamPair() (Conn, Conn) {
	a, b := newConnPair(Addr{Family: linux.AF_UNIX}, Addr{Family: linux.AF_UNIX})
	return a, b
}

// newConnPair builds both ends of a connection: aLocal/bLocal are the
// respective local addresses (each end's peer is the other's local).
func newConnPair(aLocal, bLocal Addr) (*pipeConn, *pipeConn) {
	ab := vfs.NewPipe()
	ba := vfs.NewPipe()
	for _, p := range []*vfs.Pipe{ab, ba} {
		p.AddReader()
		p.AddWriter()
	}
	a := &pipeConn{rx: ba, tx: ab, local: aLocal, peer: bLocal}
	b := &pipeConn{rx: ab, tx: ba, local: bLocal, peer: aLocal}
	return a, b
}

func (c *pipeConn) Read(b []byte, nonblock bool) (int, linux.Errno) {
	c.mu.Lock()
	shut := c.readShut
	c.mu.Unlock()
	if shut {
		return 0, 0
	}
	return c.rx.Read(b, nonblock)
}

func (c *pipeConn) Write(b []byte, nonblock bool) (int, linux.Errno) {
	c.mu.Lock()
	shut := c.writeShut || c.closed
	c.mu.Unlock()
	if shut {
		return 0, linux.EPIPE
	}
	return c.tx.Write(b, nonblock)
}

func (c *pipeConn) CloseRead() {
	c.mu.Lock()
	if c.readShut || c.closed {
		c.mu.Unlock()
		return
	}
	c.readShut = true
	c.mu.Unlock()
	c.rx.CloseReader()
}

func (c *pipeConn) CloseWrite() {
	c.mu.Lock()
	if c.writeShut || c.closed {
		c.mu.Unlock()
		return
	}
	c.writeShut = true
	c.mu.Unlock()
	c.tx.CloseWriter()
}

func (c *pipeConn) Close() linux.Errno {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return 0
	}
	rdOpen, wrOpen := !c.readShut, !c.writeShut
	c.closed = true
	c.mu.Unlock()
	if rdOpen {
		c.rx.CloseReader()
	}
	if wrOpen {
		c.tx.CloseWriter()
	}
	return 0
}

func (c *pipeConn) Readiness() int16 {
	var ev int16
	ev |= c.rx.Poll(true) & (linux.POLLIN | linux.POLLHUP)
	if c.tx.Poll(false)&linux.POLLOUT != 0 {
		ev |= linux.POLLOUT
	}
	return ev
}

func (c *pipeConn) Queues(qs []*waitq.Queue) []*waitq.Queue {
	return append(qs, c.rx.Queue(), c.tx.Queue())
}

func (c *pipeConn) Buffered() int { return c.rx.Buffered() }

func (c *pipeConn) SetOpt(level, opt, val int32) {}

// acceptQueue is the accept-side state machine shared by every
// listener implementation: a bounded pending queue, one wait-queue
// wakeup per state change and orphan handoff on close. Backends embed
// it and add their own registration/teardown around it.
type acceptQueue struct {
	mu      sync.Mutex
	pending []pendingConn
	closed  bool
	q       waitq.Queue
	backlog int
}

type pendingConn struct {
	c    Conn
	peer Addr
}

func (a *acceptQueue) init(backlog int) {
	if backlog < 1 {
		backlog = 1
	}
	// Generous floor: the sim's guests connect ahead of accept loops
	// far more often than real backlogged servers drop.
	if backlog < 128 {
		backlog = 128
	}
	a.backlog = backlog
}

// push enqueues one established connection; ECONNREFUSED once closed
// or when the backlog is full.
func (a *acceptQueue) push(c Conn, peer Addr) linux.Errno {
	a.mu.Lock()
	if a.closed || len(a.pending) >= a.backlog {
		a.mu.Unlock()
		return linux.ECONNREFUSED
	}
	a.pending = append(a.pending, pendingConn{c: c, peer: peer})
	a.mu.Unlock()
	a.q.Wake()
	return 0
}

// Accept dequeues one connection; EAGAIN when nonblock and empty,
// EINVAL once closed and drained. With nonblock unset an empty queue
// sleeps the calling (host-side) goroutine until a connection arrives
// or the listener closes.
func (a *acceptQueue) Accept(nonblock bool) (Conn, Addr, linux.Errno) {
	if nonblock {
		return a.accept()
	}
	var pc pendingConn
	errno := a.q.Sleep(time.Time{}, func() (e linux.Errno) {
		pc.c, pc.peer, e = a.accept()
		return e
	})
	return pc.c, pc.peer, errno
}

func (a *acceptQueue) accept() (Conn, Addr, linux.Errno) {
	a.mu.Lock()
	if len(a.pending) == 0 {
		closed := a.closed
		a.mu.Unlock()
		if closed {
			return nil, Addr{}, linux.EINVAL
		}
		return nil, Addr{}, linux.EAGAIN
	}
	pc := a.pending[0]
	a.pending = a.pending[1:]
	a.mu.Unlock()
	a.q.Wake() // freed backlog space
	return pc.c, pc.peer, 0
}

// shutdown marks the queue closed and hands back the never-accepted
// connections for the caller to reset; idempotent (nil second time).
func (a *acceptQueue) shutdown() []pendingConn {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return nil
	}
	a.closed = true
	orphans := a.pending
	a.pending = nil
	a.mu.Unlock()
	a.q.Wake()
	return orphans
}

func (a *acceptQueue) Readiness() int16 {
	a.mu.Lock()
	defer a.mu.Unlock()
	var ev int16
	if len(a.pending) > 0 {
		ev |= linux.POLLIN
	}
	if a.closed {
		ev |= linux.POLLHUP
	}
	return ev
}

func (a *acceptQueue) Queue() *waitq.Queue { return &a.q }

// datagram is one queued packet.
type datagram struct {
	from Addr
	data []byte
}

// dgramQueue is the in-process datagram socket shared by the loopback
// and switch backends: a bounded packet queue with one wait-queue
// wakeup per state change.
type dgramQueue struct {
	owner *swNode // routes SendTo; nil only in tests
	local Addr

	mu      sync.Mutex
	packets []datagram
	closed  bool
	q       waitq.Queue
}

// init prepares an embedded or standalone queue.
func (d *dgramQueue) init(owner *swNode, local Addr) {
	d.owner = owner
	d.local = local
}

func newDgramQueue(owner *swNode, local Addr) *dgramQueue {
	d := &dgramQueue{}
	d.init(owner, local)
	return d
}

// enqueue delivers one packet into the queue (the sending side calls
// this through the switch's routing table).
func (d *dgramQueue) enqueue(from Addr, b []byte) linux.Errno {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return linux.ECONNREFUSED
	}
	if len(d.packets) >= maxDgramBacklog {
		d.mu.Unlock()
		return linux.ENOBUFS
	}
	d.packets = append(d.packets, datagram{from: from, data: append([]byte(nil), b...)})
	d.mu.Unlock()
	d.q.Wake()
	return 0
}

func (d *dgramQueue) SendTo(b []byte, to Addr) (int, linux.Errno) {
	return d.owner.routeDgram(d.local, b, to)
}

// RecvFrom dequeues one datagram. With nonblock unset an empty queue
// sleeps the calling (host-side) goroutine until a packet arrives or
// the socket closes.
func (d *dgramQueue) RecvFrom(b []byte, nonblock bool) (int, Addr, linux.Errno) {
	if nonblock {
		return d.recv(b)
	}
	var (
		n    int
		from Addr
	)
	errno := d.q.Sleep(time.Time{}, func() (e linux.Errno) {
		n, from, e = d.recv(b)
		return e
	})
	return n, from, errno
}

func (d *dgramQueue) recv(b []byte) (int, Addr, linux.Errno) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.packets) == 0 {
		if d.closed {
			return 0, Addr{}, 0
		}
		return 0, Addr{}, linux.EAGAIN
	}
	pkt := d.packets[0]
	d.packets = d.packets[1:]
	n := copy(b, pkt.data) // excess datagram bytes are discarded, per UDP
	return n, pkt.from, 0
}

func (d *dgramQueue) Close() linux.Errno {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return 0
	}
	d.closed = true
	d.mu.Unlock()
	if d.owner != nil {
		d.owner.dropDgram(d)
	}
	d.q.Wake()
	return 0
}

func (d *dgramQueue) Readiness() int16 {
	d.mu.Lock()
	defer d.mu.Unlock()
	ev := int16(linux.POLLOUT)
	if len(d.packets) > 0 || d.closed {
		ev |= linux.POLLIN
	}
	return ev
}

func (d *dgramQueue) Queue() *waitq.Queue { return &d.q }

func (d *dgramQueue) Buffered() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.packets) == 0 {
		return 0
	}
	return len(d.packets[0].data)
}

func (d *dgramQueue) LocalAddr() Addr { return d.local }
