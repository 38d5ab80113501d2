// Package net is the kernel's pluggable network stack. The kernel owns
// sockets as files (descriptors, flags, SIGPIPE, poll integration); a
// net.Backend owns the address space and the transport behind them —
// the same split the VFS makes between path resolution and mountable
// filesystem backends.
//
// Three backends ship:
//
//   - Loopback (NewLoopback): the in-kernel address space. Every
//     address is local; this is the default and serves AF_UNIX always.
//   - Switch nodes (NewSwitch + Switch.Node): a virtual L4 switch
//     connecting multiple kernels in one process. Each kernel attaches
//     as a node with its own IPv4 address; guests on different kernels
//     exchange stream and datagram traffic through the shared fabric.
//   - HostNet (NewHostNet): passthrough to real host sockets via the
//     Go net package, governed by an explicit bind-map and outbound
//     allowlist, so a guest server becomes reachable from the host.
//
// Every operation is syscall-shaped (linux.Errno returns); blocking
// variants block the calling goroutine, and every waitable object
// exposes waitq queues so poll/select/epoll get event-driven wakeups
// instead of readiness sampling.
package net

import (
	"fmt"

	"gowali/internal/kernel/waitq"
	"gowali/internal/linux"
)

// Addr is the kernel-native socket address (AF_INET or AF_UNIX).
type Addr struct {
	Family uint16
	Port   uint16  // AF_INET
	Addr   [4]byte // AF_INET
	Path   string  // AF_UNIX
}

// String formats the address for diagnostics.
func (a Addr) String() string {
	if a.Family == linux.AF_UNIX {
		return "unix:" + a.Path
	}
	return fmt.Sprintf("%d.%d.%d.%d:%d", a.Addr[0], a.Addr[1], a.Addr[2], a.Addr[3], a.Port)
}

// IsWildcard reports an INADDR_ANY bind address.
func (a Addr) IsWildcard() bool { return a.Addr == [4]byte{} }

// IsLoopbackIP reports a 127.0.0.0/8 address.
func (a Addr) IsLoopbackIP() bool { return a.Addr[0] == 127 }

// Backend is a pluggable network stack implementation. The kernel
// routes AF_INET sockets to the configured backend and AF_UNIX sockets
// to its private loopback instance (unix addresses are per-machine
// filesystem names, like a network namespace). Implementations must be
// safe for concurrent use.
type Backend interface {
	// Name identifies the backend ("loopback", "switch", "host").
	Name() string
	// BindAddr validates and completes a bind request: ephemeral port
	// assignment, locality checks. It does not reserve the address;
	// Listen and Dgram claim it.
	BindAddr(a Addr) (Addr, linux.Errno)
	// Listen claims a stream address and returns its accept queue
	// (EADDRINUSE when taken).
	Listen(a Addr, backlog int) (Listener, linux.Errno)
	// Connect opens a stream connection to a. local is the caller's
	// bound address (zero when unbound) and becomes the peer address
	// the accepting side observes.
	Connect(a Addr, local Addr) (Conn, linux.Errno)
	// Dgram claims a datagram address and returns its packet queue.
	Dgram(a Addr) (DgramConn, linux.Errno)
	// Close releases backend-wide resources (host listeners, pumps).
	Close()
}

// Listener is a claimed stream address's accept queue.
type Listener interface {
	// Accept dequeues one established connection and the peer's
	// address; EAGAIN when nonblock and the queue is empty, EINVAL
	// once closed and drained.
	Accept(nonblock bool) (Conn, Addr, linux.Errno)
	Close() linux.Errno
	// Readiness returns poll bits (POLLIN when a connection waits).
	Readiness() int16
	// Queue wakes whenever a connection arrives or the listener closes.
	Queue() *waitq.Queue
}

// Conn is one established stream connection end.
type Conn interface {
	// Read delivers bytes; 0 with errno 0 is EOF.
	Read(b []byte, nonblock bool) (int, linux.Errno)
	// Write queues bytes toward the peer; EPIPE once the peer is gone.
	Write(b []byte, nonblock bool) (int, linux.Errno)
	// CloseRead/CloseWrite implement shutdown(2) halves.
	CloseRead()
	CloseWrite()
	Close() linux.Errno
	// Readiness returns poll bits for the connection.
	Readiness() int16
	// Queues appends to qs every wait queue whose wakeup can change this
	// connection's readiness (rx and tx sides).
	Queues(qs []*waitq.Queue) []*waitq.Queue
	// Buffered reports receive-queue bytes (FIONREAD).
	Buffered() int
	// SetOpt applies a socket option where the transport supports it
	// (TCP_NODELAY on host sockets); otherwise a no-op.
	SetOpt(level, opt, val int32)
}

// DgramConn is a claimed datagram address's packet queue.
type DgramConn interface {
	SendTo(b []byte, to Addr) (int, linux.Errno)
	// RecvFrom dequeues one datagram; EAGAIN when nonblock and empty,
	// 0 bytes once closed.
	RecvFrom(b []byte, nonblock bool) (int, Addr, linux.Errno)
	Close() linux.Errno
	Readiness() int16
	Queue() *waitq.Queue
	Buffered() int
	LocalAddr() Addr
}

// maxDgramBacklog bounds a datagram socket's receive queue (ENOBUFS
// beyond it), matching the previous in-kernel loopback behavior.
const maxDgramBacklog = 1024

// ephemeralBase is where ephemeral port assignment starts scanning.
const ephemeralBase = 32768
