package core

import (
	"gowali/internal/interp"
	"gowali/internal/isa"
	"gowali/internal/kernel"
	"gowali/internal/linux"
)

// Socket syscalls: passthrough with sockaddr layout conversion.

func init() {
	def("socket", 3, false, true, sysSocket)
	def("socketpair", 4, false, true, sysSocketpair)
	def("bind", 3, false, true, sysBind)
	def("listen", 2, false, true, sysListen)
	def("accept", 3, false, true, sysAccept)
	def("accept4", 4, false, true, sysAccept4)
	def("connect", 3, false, true, sysConnect)
	def("sendto", 6, false, true, sysSendto)
	def("recvfrom", 6, false, true, sysRecvfrom)
	def("sendmsg", 3, false, true, sysSendmsg)
	def("recvmsg", 3, false, true, sysRecvmsg)
	def("shutdown", 2, false, true, sysShutdown)
	def("getsockname", 3, false, true, sysGetsockname)
	def("getpeername", 3, false, true, sysGetpeername)
	def("setsockopt", 5, false, true, sysSetsockopt)
	def("getsockopt", 5, false, true, sysGetsockopt)
}

func sysSocket(p *Process, e *interp.Exec, a Args) int64 {
	fd, errno := p.KP.SocketSyscall(int32(a[0]), int32(a[1]), int32(a[2]))
	return ret64(int64(fd), errno)
}

func sysSocketpair(p *Process, e *interp.Exec, a Args) int64 {
	f0, f1, errno := p.KP.SocketPair(int32(a[0]), int32(a[1]), int32(a[2]))
	if errno != 0 {
		return errnoRet(errno)
	}
	mem := p.Inst.Mem
	if !mem.WriteU32(uint32(a[3]), uint32(f0)) || !mem.WriteU32(uint32(a[3])+4, uint32(f1)) {
		p.KP.Close(f0)
		p.KP.Close(f1)
		return errnoRet(linux.EFAULT)
	}
	return 0
}

// sockaddrArg decodes a (ptr, len) sockaddr argument.
func (p *Process) sockaddrArg(addr uint32, length int64) (kernel.SockAddr, linux.Errno) {
	if length < 2 || length > 128 {
		return kernel.SockAddr{}, linux.EINVAL
	}
	buf, ok := p.Inst.Mem.Bytes(addr, uint32(length))
	if !ok {
		return kernel.SockAddr{}, linux.EFAULT
	}
	fam, port, ip, path := isa.GetSockaddr(buf)
	return kernel.SockAddr{Family: fam, Port: port, Addr: ip, Path: path}, 0
}

// putSockaddr encodes sa into (ptr, lenPtr) out-parameters.
func (p *Process) putSockaddr(sa kernel.SockAddr, addr, lenAddr uint32) linux.Errno {
	if addr == 0 || lenAddr == 0 {
		return 0
	}
	capLen, ok := p.Inst.Mem.ReadU32(lenAddr)
	if !ok {
		return linux.EFAULT
	}
	tmp := make([]byte, 128)
	var n int
	if sa.Family == linux.AF_UNIX {
		n = isa.PutSockaddrUn(tmp, sa.Path)
	} else {
		n = isa.PutSockaddrIn(tmp, sa.Port, sa.Addr)
	}
	if int(capLen) < n {
		n = int(capLen)
	}
	buf, ok := p.Inst.Mem.Bytes(addr, uint32(n))
	if !ok {
		return linux.EFAULT
	}
	copy(buf, tmp[:n])
	p.Inst.Mem.WriteU32(lenAddr, uint32(n))
	return 0
}

func sysBind(p *Process, e *interp.Exec, a Args) int64 {
	sa, errno := p.sockaddrArg(uint32(a[1]), a[2])
	if errno != 0 {
		return errnoRet(errno)
	}
	return errnoRet(p.KP.Bind(int32(a[0]), sa))
}

func sysListen(p *Process, e *interp.Exec, a Args) int64 {
	return errnoRet(p.KP.Listen(int32(a[0]), int32(a[1])))
}

func sysAccept(p *Process, e *interp.Exec, a Args) int64 {
	return acceptCommon(p, int32(a[0]), uint32(a[1]), uint32(a[2]), 0)
}

func sysAccept4(p *Process, e *interp.Exec, a Args) int64 {
	return acceptCommon(p, int32(a[0]), uint32(a[1]), uint32(a[2]), int32(a[3]))
}

func acceptCommon(p *Process, fd int32, addrPtr, lenPtr uint32, flags int32) int64 {
	nfd, peer, errno := p.KP.Accept(fd, flags)
	if errno != 0 {
		return errnoRet(errno)
	}
	if errno := p.putSockaddr(peer, addrPtr, lenPtr); errno != 0 {
		p.KP.Close(nfd)
		return errnoRet(errno)
	}
	return int64(nfd)
}

func sysConnect(p *Process, e *interp.Exec, a Args) int64 {
	sa, errno := p.sockaddrArg(uint32(a[1]), a[2])
	if errno != 0 {
		return errnoRet(errno)
	}
	return errnoRet(p.KP.Connect(int32(a[0]), sa))
}

func sysSendto(p *Process, e *interp.Exec, a Args) int64 {
	buf, errno := p.bufArg(uint32(a[1]), a[2])
	if errno != 0 {
		return errnoRet(errno)
	}
	var to *kernel.SockAddr
	if uint32(a[4]) != 0 {
		sa, errno := p.sockaddrArg(uint32(a[4]), a[5])
		if errno != 0 {
			return errnoRet(errno)
		}
		to = &sa
	}
	return retN(p.KP.SendTo(int32(a[0]), buf, int32(a[3]), to))
}

func sysRecvfrom(p *Process, e *interp.Exec, a Args) int64 {
	buf, errno := p.bufArg(uint32(a[1]), a[2])
	if errno != 0 {
		return errnoRet(errno)
	}
	n, from, errno2 := p.KP.RecvFrom(int32(a[0]), buf, int32(a[3]))
	if errno2 != 0 {
		return errnoRet(errno2)
	}
	if errno := p.putSockaddr(from, uint32(a[4]), uint32(a[5])); errno != 0 {
		return errnoRet(errno)
	}
	return int64(n)
}

// msghdr (wasm32 layout): name u32@0, namelen u32@4, iov u32@8, iovlen
// u32@12, control u32@16, controllen u32@20, flags i32@24. Size 28.
const msghdrSize = 28

func sysSendmsg(p *Process, e *interp.Exec, a Args) int64 {
	hdr, errno := p.bufArg(uint32(a[1]), msghdrSize)
	if errno != 0 {
		return errnoRet(errno)
	}
	iovAddr := le.Uint32(hdr[8:])
	iovCnt := le.Uint32(hdr[12:])
	iovs, errno := p.iovecs(iovAddr, int64(iovCnt))
	if errno != 0 {
		return errnoRet(errno)
	}
	total := 0
	for _, b := range iovs {
		n, errno := p.KP.SendTo(int32(a[0]), b, int32(a[2]), nil)
		total += n
		if errno != 0 {
			if total > 0 {
				break
			}
			return errnoRet(errno)
		}
	}
	return int64(total)
}

func sysRecvmsg(p *Process, e *interp.Exec, a Args) int64 {
	hdr, errno := p.bufArg(uint32(a[1]), msghdrSize)
	if errno != 0 {
		return errnoRet(errno)
	}
	iovAddr := le.Uint32(hdr[8:])
	iovCnt := le.Uint32(hdr[12:])
	iovs, errno := p.iovecs(iovAddr, int64(iovCnt))
	if errno != 0 {
		return errnoRet(errno)
	}
	total := 0
	for _, b := range iovs {
		n, _, errno := p.KP.RecvFrom(int32(a[0]), b, int32(a[2]))
		total += n
		if errno != 0 {
			if total > 0 {
				break
			}
			return errnoRet(errno)
		}
		if n < len(b) {
			break
		}
	}
	return int64(total)
}

func sysShutdown(p *Process, e *interp.Exec, a Args) int64 {
	return errnoRet(p.KP.Shutdown(int32(a[0]), int32(a[1])))
}

func sysGetsockname(p *Process, e *interp.Exec, a Args) int64 {
	sa, errno := p.KP.GetSockName(int32(a[0]))
	if errno != 0 {
		return errnoRet(errno)
	}
	return errnoRet(p.putSockaddr(sa, uint32(a[1]), uint32(a[2])))
}

func sysGetpeername(p *Process, e *interp.Exec, a Args) int64 {
	sa, errno := p.KP.GetPeerName(int32(a[0]))
	if errno != 0 {
		return errnoRet(errno)
	}
	return errnoRet(p.putSockaddr(sa, uint32(a[1]), uint32(a[2])))
}

func sysSetsockopt(p *Process, e *interp.Exec, a Args) int64 {
	var val int32
	if uint32(a[3]) != 0 && a[4] >= 4 {
		v, ok := p.Inst.Mem.ReadU32(uint32(a[3]))
		if !ok {
			return errnoRet(linux.EFAULT)
		}
		val = int32(v)
	}
	return errnoRet(p.KP.SetSockOpt(int32(a[0]), int32(a[1]), int32(a[2]), val))
}

func sysGetsockopt(p *Process, e *interp.Exec, a Args) int64 {
	v, errno := p.KP.GetSockOpt(int32(a[0]), int32(a[1]), int32(a[2]))
	if errno != 0 {
		return errnoRet(errno)
	}
	if uint32(a[3]) != 0 {
		if !p.Inst.Mem.WriteU32(uint32(a[3]), uint32(v)) {
			return errnoRet(linux.EFAULT)
		}
	}
	if uint32(a[4]) != 0 {
		p.Inst.Mem.WriteU32(uint32(a[4]), 4)
	}
	return 0
}
