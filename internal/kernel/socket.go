package kernel

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gowali/internal/kernel/net"
	"gowali/internal/kernel/waitq"
	"gowali/internal/linux"
)

// Socket layer: AF_INET and AF_UNIX stream and datagram sockets as
// kernel files. The kernel owns descriptor semantics (flags, SIGPIPE,
// poll integration, shutdown state); the transport and address space
// behind every socket is a pluggable net.Backend — the loopback
// registry by default, a cross-kernel virtual switch or host-socket
// passthrough when configured (Kernel.SetNetBackend). AF_UNIX always
// stays on the kernel's private loopback instance: unix addresses are
// per-machine filesystem names, exactly as in a network namespace.

// SockAddr is the kernel-native socket address.
type SockAddr = net.Addr

type sockState int

const (
	sockUnbound sockState = iota
	sockBound
	sockListening
	sockConnecting // nonblocking connect in flight (EINPROGRESS)
	sockConnected
	sockClosed
)

// Socket is a socket file over a net.Backend object.
type Socket struct {
	flagHolder
	k      *Kernel
	domain int32
	typ    int32

	mu      sync.Mutex
	state   sockState
	local   SockAddr
	peer    SockAddr
	ln      net.Listener
	conn    net.Conn
	dg      net.DgramConn
	sockErr linux.Errno
	opts    map[int32]int32
	closed  bool
	shutRd  bool
	shutWr  bool

	// stateQ wakes pollers on lifecycle edges the transport queues
	// can't see (listen, connect, close).
	stateQ waitq.Queue
}

func newSocket(k *Kernel, domain, typ int32, flags int32) *Socket {
	s := &Socket{k: k, domain: domain, typ: typ, opts: map[int32]int32{}}
	s.flags = flags
	return s
}

// backend routes the socket to its address space: the configured
// AF_INET backend, or the kernel-private loopback for AF_UNIX.
func (s *Socket) backend() net.Backend {
	if s.domain == linux.AF_UNIX {
		return s.k.unixNet
	}
	return s.k.NetBackend()
}

// SocketSyscall implements socket(2).
func (p *Process) SocketSyscall(domain, typ, proto int32) (int32, linux.Errno) {
	base := typ &^ (linux.SOCK_NONBLOCK | linux.SOCK_CLOEXEC)
	if domain != linux.AF_INET && domain != linux.AF_UNIX {
		return -1, linux.EAFNOSUPPORT
	}
	if base != linux.SOCK_STREAM && base != linux.SOCK_DGRAM {
		return -1, linux.EPROTONOSUPPORT
	}
	var flags int32
	if typ&linux.SOCK_NONBLOCK != 0 {
		flags |= linux.O_NONBLOCK
	}
	s := newSocket(p.K, domain, base, flags)
	return p.FDs.Alloc(s, typ&linux.SOCK_CLOEXEC != 0, 0)
}

// SocketPair implements socketpair(2) for AF_UNIX.
func (p *Process) SocketPair(domain, typ, proto int32) (int32, int32, linux.Errno) {
	if domain != linux.AF_UNIX {
		return -1, -1, linux.EAFNOSUPPORT
	}
	base := typ &^ (linux.SOCK_NONBLOCK | linux.SOCK_CLOEXEC)
	var flags int32
	if typ&linux.SOCK_NONBLOCK != 0 {
		flags |= linux.O_NONBLOCK
	}
	ca, cb := net.NewStreamPair()
	a := newSocket(p.K, domain, base, flags)
	b := newSocket(p.K, domain, base, flags)
	a.conn, a.state = ca, sockConnected
	b.conn, b.state = cb, sockConnected
	cloexec := typ&linux.SOCK_CLOEXEC != 0
	afd, errno := p.FDs.Alloc(a, cloexec, 0)
	if errno != 0 {
		return -1, -1, errno
	}
	bfd, errno := p.FDs.Alloc(b, cloexec, 0)
	if errno != 0 {
		p.FDs.Close(afd)
		return -1, -1, errno
	}
	return afd, bfd, 0
}

func (p *Process) getSocket(fd int32) (*Socket, linux.Errno) {
	f, errno := p.FDs.Get(fd)
	if errno != 0 {
		return nil, errno
	}
	s, ok := f.(*Socket)
	if !ok {
		return nil, linux.ENOTSOCK
	}
	return s, 0
}

// Bind implements bind(2). Datagram sockets claim their address (and
// packet queue) immediately; stream sockets claim at listen(2).
func (p *Process) Bind(fd int32, addr SockAddr) linux.Errno {
	s, errno := p.getSocket(fd)
	if errno != 0 {
		return errno
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != sockUnbound {
		return linux.EINVAL
	}
	resolved, errno := s.backend().BindAddr(addr)
	if errno != 0 {
		return errno
	}
	if s.typ == linux.SOCK_DGRAM {
		dg, errno := s.backend().Dgram(resolved)
		if errno != 0 {
			return errno
		}
		s.dg = dg
		// A poller armed before the bind knows only stateQ; wake it
		// so it re-arms on the new packet queue.
		defer s.stateQ.Wake()
	}
	s.local = resolved
	s.state = sockBound
	return 0
}

// Listen implements listen(2), claiming the bound address in the
// backend's address space.
func (p *Process) Listen(fd int32, backlog int32) linux.Errno {
	s, errno := p.getSocket(fd)
	if errno != 0 {
		return errno
	}
	if s.typ != linux.SOCK_STREAM {
		return linux.EOPNOTSUPP
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != sockBound {
		return linux.EINVAL
	}
	l, errno := s.backend().Listen(s.local, int(backlog))
	if errno != 0 {
		return errno
	}
	s.ln = l
	s.state = sockListening
	s.stateQ.Wake()
	return 0
}

// Accept implements accept4(2), blocking until a connection arrives.
func (p *Process) Accept(fd int32, flags int32) (int32, SockAddr, linux.Errno) {
	s, errno := p.getSocket(fd)
	if errno != 0 {
		return -1, SockAddr{}, errno
	}
	s.mu.Lock()
	l := s.ln
	local := s.local
	s.mu.Unlock()
	if l == nil {
		return -1, SockAddr{}, linux.EINVAL
	}
	var (
		conn net.Conn
		peer SockAddr
	)
	if s.nonblock() {
		conn, peer, errno = l.Accept(true)
	} else {
		errno = p.sleep(s.PollQueues, time.Time{}, func() (e linux.Errno) {
			conn, peer, e = l.Accept(true)
			return e
		})
	}
	if errno != 0 {
		return -1, SockAddr{}, errno
	}

	ns := newSocket(p.K, s.domain, s.typ, 0)
	if flags&linux.SOCK_NONBLOCK != 0 {
		ns.SetFlags(linux.O_NONBLOCK)
	}
	ns.conn = conn
	ns.state = sockConnected
	ns.local = local
	ns.peer = peer
	nfd, errno := p.FDs.Alloc(ns, flags&linux.SOCK_CLOEXEC != 0, 0)
	if errno != 0 {
		conn.Close()
		return -1, SockAddr{}, errno
	}
	return nfd, peer, 0
}

// Connect implements connect(2).
func (p *Process) Connect(fd int32, addr SockAddr) linux.Errno {
	s, errno := p.getSocket(fd)
	if errno != 0 {
		return errno
	}
	if s.typ == linux.SOCK_DGRAM {
		s.mu.Lock()
		s.peer = addr
		s.state = sockConnected
		s.mu.Unlock()
		s.stateQ.Wake()
		return 0
	}
	s.mu.Lock()
	switch s.state {
	case sockConnected:
		s.mu.Unlock()
		return linux.EISCONN
	case sockConnecting:
		s.mu.Unlock()
		return linux.EALREADY
	case sockListening, sockClosed:
		s.mu.Unlock()
		return linux.EINVAL
	}
	local := s.local
	b := s.backend()
	if s.nonblock() {
		// Nonblocking connect: dial off-thread (HostNet dials can take
		// real time), report EINPROGRESS, complete via POLLOUT +
		// SO_ERROR like a real kernel.
		s.state = sockConnecting
		s.peer = addr
		s.mu.Unlock()
		go s.finishConnect(b, addr, local)
		return linux.EINPROGRESS
	}
	s.mu.Unlock()

	conn, errno := b.Connect(addr, local)
	if errno != 0 {
		return errno
	}
	return s.installConn(conn, addr)
}

// finishConnect completes an asynchronous connect: success installs
// the connection, failure parks the errno in SO_ERROR and returns the
// socket to its pre-connect state. Either way pollers wake (POLLOUT;
// POLLERR on failure).
func (s *Socket) finishConnect(b net.Backend, addr, local SockAddr) {
	conn, errno := b.Connect(addr, local)
	if errno != 0 {
		s.mu.Lock()
		if s.state == sockConnecting {
			s.sockErr = errno
			if local.Family != 0 {
				s.state = sockBound
			} else {
				s.state = sockUnbound
			}
		}
		s.mu.Unlock()
		s.stateQ.Wake()
		return
	}
	s.installConn(conn, addr)
}

// installConn publishes an established connection unless the socket
// raced into another terminal state, in which case the newcomer is
// torn down (keeping a concurrent winner's peer alive).
func (s *Socket) installConn(conn net.Conn, addr SockAddr) linux.Errno {
	s.mu.Lock()
	switch s.state {
	case sockClosed:
		s.mu.Unlock()
		conn.Close()
		return linux.EINVAL
	case sockConnected:
		s.mu.Unlock()
		conn.Close()
		return linux.EISCONN
	}
	s.conn = conn
	s.peer = addr
	s.state = sockConnected
	s.mu.Unlock()
	s.stateQ.Wake()
	return 0
}

// connFor snapshots the stream connection and shutdown state.
func (s *Socket) connFor() (net.Conn, bool, bool, sockState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.conn, s.shutRd, s.shutWr, s.state
}

// SendTo implements sendto(2).
func (p *Process) SendTo(fd int32, b []byte, msgFlags int32, to *SockAddr) (int, linux.Errno) {
	s, errno := p.getSocket(fd)
	if errno != 0 {
		return 0, errno
	}
	if s.typ == linux.SOCK_DGRAM {
		return s.sendDgram(b, to)
	}
	nb := s.nonblock() || msgFlags&linux.MSG_DONTWAIT != 0
	conn, _, shutWr, state := s.connFor()
	if conn == nil || state != sockConnected {
		return 0, linux.ENOTCONN
	}
	if shutWr {
		return 0, linux.EPIPE
	}
	var n int
	if nb {
		n, errno = conn.Write(b, true)
	} else {
		n, errno = p.writeFile(s, b)
	}
	if errno == linux.EPIPE && msgFlags&linux.MSG_NOSIGNAL == 0 {
		p.PostSignal(linux.SIGPIPE)
	}
	return n, errno
}

// RecvFrom implements recvfrom(2).
func (p *Process) RecvFrom(fd int32, b []byte, msgFlags int32) (int, SockAddr, linux.Errno) {
	s, errno := p.getSocket(fd)
	if errno != 0 {
		return 0, SockAddr{}, errno
	}
	nb := s.nonblock() || msgFlags&linux.MSG_DONTWAIT != 0
	if s.typ == linux.SOCK_DGRAM {
		if nb {
			return s.recvDgram(b)
		}
		var (
			n    int
			from SockAddr
		)
		errno = p.sleep(s.PollQueues, time.Time{}, func() (e linux.Errno) {
			n, from, e = s.recvDgram(b)
			return e
		})
		return n, from, errno
	}
	s.mu.Lock()
	peer := s.peer
	s.mu.Unlock()
	// Socket.Read re-checks the connection and its shutdown state on
	// every attempt, so a shutdown or close while parked surfaces as
	// EOF on the next pass.
	var n int
	if nb {
		n, errno = s.Read(b)
	} else {
		n, errno = p.readFile(s, b)
	}
	return n, peer, errno
}

// ensureDgram lazily binds an unbound datagram socket to an ephemeral
// address (the implicit bind of a first sendto/recvfrom).
func (s *Socket) ensureDgram() (net.DgramConn, linux.Errno) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dg != nil {
		return s.dg, 0
	}
	if s.closed {
		return nil, linux.EBADF
	}
	addr := SockAddr{Family: uint16(s.domain)}
	if s.domain == linux.AF_UNIX {
		// Autobind: a machine-unique abstract-style name.
		addr.Path = "@autobind-" + strconv.Itoa(int(autoSeq.Add(1)))
	}
	resolved, errno := s.backend().BindAddr(addr)
	if errno != 0 {
		return nil, errno
	}
	dg, errno := s.backend().Dgram(resolved)
	if errno != 0 {
		return nil, errno
	}
	s.dg = dg
	if s.state == sockUnbound {
		s.local = resolved
	}
	defer s.stateQ.Wake() // re-arm pollers onto the new packet queue
	return dg, 0
}

// autoSeq numbers unix datagram autobind names.
var autoSeq atomic.Int64

func (s *Socket) sendDgram(b []byte, to *SockAddr) (int, linux.Errno) {
	s.mu.Lock()
	dest := s.peer
	s.mu.Unlock()
	if to != nil {
		dest = *to
	}
	if dest.Family == 0 {
		return 0, linux.EDESTADDRREQ
	}
	dg, errno := s.ensureDgram()
	if errno != 0 {
		return 0, errno
	}
	return dg.SendTo(b, dest)
}

func (s *Socket) recvDgram(b []byte) (int, SockAddr, linux.Errno) {
	dg, errno := s.ensureDgram()
	if errno != 0 {
		if errno == linux.EBADF {
			return 0, SockAddr{}, 0 // closed: drained
		}
		return 0, SockAddr{}, errno
	}
	return dg.RecvFrom(b, true)
}

// Shutdown implements shutdown(2).
func (p *Process) Shutdown(fd int32, how int32) linux.Errno {
	s, errno := p.getSocket(fd)
	if errno != 0 {
		return errno
	}
	s.mu.Lock()
	if s.state != sockConnected {
		s.mu.Unlock()
		return linux.ENOTCONN
	}
	conn := s.conn
	if how == linux.SHUT_RD || how == linux.SHUT_RDWR {
		s.shutRd = true
	}
	if how == linux.SHUT_WR || how == linux.SHUT_RDWR {
		s.shutWr = true
	}
	rd, wr := s.shutRd, s.shutWr
	s.mu.Unlock()
	if conn != nil {
		if rd {
			conn.CloseRead()
		}
		if wr {
			conn.CloseWrite()
		}
	}
	s.stateQ.Wake()
	return 0
}

// GetSockName returns the local address.
func (p *Process) GetSockName(fd int32) (SockAddr, linux.Errno) {
	s, errno := p.getSocket(fd)
	if errno != 0 {
		return SockAddr{}, errno
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.local, 0
}

// GetPeerName returns the peer address.
func (p *Process) GetPeerName(fd int32) (SockAddr, linux.Errno) {
	s, errno := p.getSocket(fd)
	if errno != 0 {
		return SockAddr{}, errno
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != sockConnected {
		return SockAddr{}, linux.ENOTCONN
	}
	return s.peer, 0
}

// sockOptKnown is the accepted option matrix: the options libc and
// common servers actually set, honored as record-and-report (and
// forwarded to the transport where it can do better, e.g. TCP_NODELAY
// on host sockets). Anything outside the matrix is ENOPROTOOPT, like
// a real kernel — silent acceptance of arbitrary options masked real
// porting bugs.
func sockOptKnown(level, opt int32) bool {
	switch level {
	case linux.SOL_SOCKET:
		switch opt {
		case linux.SO_REUSEADDR, linux.SO_REUSEPORT, linux.SO_KEEPALIVE,
			linux.SO_SNDBUF, linux.SO_RCVBUF, linux.SO_RCVTIMEO,
			linux.SO_SNDTIMEO, linux.SO_LINGER, linux.SO_BROADCAST,
			linux.SO_DONTROUTE, linux.SO_OOBINLINE, linux.SO_PRIORITY,
			linux.SO_ERROR, linux.SO_TYPE, linux.SO_ACCEPTCONN:
			return true
		}
	case linux.IPPROTO_IP:
		switch opt {
		case linux.IP_TOS, linux.IP_TTL:
			return true
		}
	case linux.IPPROTO_TCP:
		switch opt {
		case linux.TCP_NODELAY, linux.TCP_KEEPIDLE, linux.TCP_KEEPINTVL,
			linux.TCP_KEEPCNT, linux.TCP_QUICKACK:
			return true
		}
	case linux.IPPROTO_IPV6:
		switch opt {
		case linux.IPV6_V6ONLY:
			return true
		}
	}
	return false
}

// SetSockOpt implements setsockopt(2) over the known-option matrix.
func (p *Process) SetSockOpt(fd int32, level, opt, val int32) linux.Errno {
	s, errno := p.getSocket(fd)
	if errno != 0 {
		return errno
	}
	if !sockOptKnown(level, opt) {
		return linux.ENOPROTOOPT
	}
	if level == linux.SOL_SOCKET && (opt == linux.SO_ERROR || opt == linux.SO_TYPE || opt == linux.SO_ACCEPTCONN) {
		return linux.ENOPROTOOPT // read-only options
	}
	s.mu.Lock()
	s.opts[level<<16|opt] = val
	conn := s.conn
	s.mu.Unlock()
	if conn != nil {
		conn.SetOpt(level, opt, val)
	}
	return 0
}

// GetSockOpt implements getsockopt(2).
func (p *Process) GetSockOpt(fd int32, level, opt int32) (int32, linux.Errno) {
	s, errno := p.getSocket(fd)
	if errno != 0 {
		return 0, errno
	}
	if !sockOptKnown(level, opt) {
		return 0, linux.ENOPROTOOPT
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if level == linux.SOL_SOCKET {
		switch opt {
		case linux.SO_ERROR:
			e := int32(s.sockErr)
			s.sockErr = 0
			return e, 0
		case linux.SO_TYPE:
			return s.typ, 0
		case linux.SO_ACCEPTCONN:
			if s.state == sockListening {
				return 1, 0
			}
			return 0, 0
		case linux.SO_SNDBUF, linux.SO_RCVBUF:
			if v, ok := s.opts[level<<16|opt]; ok {
				return v, 0
			}
			return 64 * 1024, 0 // the pipe capacity behind every stream
		}
	}
	return s.opts[level<<16|opt], 0
}

// --- File interface on Socket ---

// Read implements File.
func (s *Socket) Read(b []byte) (int, linux.Errno) {
	if s.typ == linux.SOCK_DGRAM {
		n, _, errno := s.recvDgram(b)
		return n, errno
	}
	conn, shutRd, _, _ := s.connFor()
	if conn == nil {
		return 0, linux.ENOTCONN
	}
	if shutRd {
		return 0, 0
	}
	return conn.Read(b, true)
}

// Write implements File.
func (s *Socket) Write(b []byte) (int, linux.Errno) {
	if s.typ == linux.SOCK_DGRAM {
		return s.sendDgram(b, nil)
	}
	conn, _, shutWr, _ := s.connFor()
	if conn == nil {
		return 0, linux.ENOTCONN
	}
	if shutWr {
		return 0, linux.EPIPE
	}
	return conn.Write(b, true)
}

// Pread implements File (ESPIPE).
func (s *Socket) Pread(b []byte, off int64) (int, linux.Errno) { return 0, linux.ESPIPE }

// Pwrite implements File (ESPIPE).
func (s *Socket) Pwrite(b []byte, off int64) (int, linux.Errno) { return 0, linux.ESPIPE }

// Lseek implements File (ESPIPE).
func (s *Socket) Lseek(off int64, whence int32) (int64, linux.Errno) { return 0, linux.ESPIPE }

// Stat implements File.
func (s *Socket) Stat() (linux.Stat, linux.Errno) {
	return linux.Stat{Mode: linux.S_IFSOCK | 0o777, Blksize: 4096}, 0
}

// Truncate implements File.
func (s *Socket) Truncate(int64) linux.Errno { return linux.EINVAL }

// Close implements File: tears down the transport objects and releases
// the claimed addresses.
func (s *Socket) Close() linux.Errno {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0
	}
	s.closed = true
	ln, conn, dg := s.ln, s.conn, s.dg
	s.state = sockClosed
	s.mu.Unlock()

	if conn != nil {
		conn.Close()
	}
	if ln != nil {
		ln.Close()
	}
	if dg != nil {
		dg.Close()
	}
	s.stateQ.Wake()
	return 0
}

// Poll implements File.
func (s *Socket) Poll() int16 {
	s.mu.Lock()
	state := s.state
	ln, conn, dg := s.ln, s.conn, s.dg
	shutRd := s.shutRd
	sockErr := s.sockErr
	s.mu.Unlock()
	switch state {
	case sockListening:
		if ln != nil {
			// Pass POLLHUP through: an asynchronously closed listener
			// (HostNet teardown, accept-loop death) must end a
			// blocked poll rather than strand it.
			return ln.Readiness()
		}
	case sockConnecting:
		return 0 // not writable until the async connect resolves
	case sockConnected:
		if s.typ == linux.SOCK_DGRAM {
			if dg != nil {
				return dg.Readiness()
			}
			return linux.POLLOUT
		}
		if conn != nil {
			ev := conn.Readiness()
			if shutRd {
				ev |= linux.POLLIN // reads return 0 without blocking
			}
			return ev
		}
	default:
		if s.typ == linux.SOCK_DGRAM {
			if dg != nil {
				return dg.Readiness()
			}
			return linux.POLLOUT
		}
		if sockErr != 0 {
			// A failed nonblocking connect: writable-with-error so the
			// event loop's POLLOUT wait ends and SO_ERROR reports why.
			return linux.POLLOUT | linux.POLLERR
		}
	}
	return 0
}

// PollQueues implements the event-driven readiness hookup: every wait
// queue whose wakeup can change this socket's Poll result.
func (s *Socket) PollQueues(qs []*waitq.Queue) []*waitq.Queue {
	s.mu.Lock()
	defer s.mu.Unlock()
	qs = append(qs, &s.stateQ)
	if s.ln != nil {
		qs = append(qs, s.ln.Queue())
	}
	if s.conn != nil {
		qs = s.conn.Queues(qs)
	}
	if s.dg != nil {
		qs = append(qs, s.dg.Queue())
	}
	return qs
}

// Ioctl implements File.
func (s *Socket) Ioctl(cmd uint32, arg []byte) (int32, linux.Errno) {
	if cmd == linux.FIONREAD {
		s.mu.Lock()
		conn, dg := s.conn, s.dg
		s.mu.Unlock()
		if s.typ == linux.SOCK_DGRAM {
			if dg != nil {
				return int32(dg.Buffered()), 0
			}
			return 0, 0
		}
		if conn != nil {
			return int32(conn.Buffered()), 0
		}
		return 0, 0
	}
	return 0, linux.ENOTTY
}
