package core

import (
	"strings"

	"gowali/internal/interp"
	"gowali/internal/isa"
	"gowali/internal/kernel"
	"gowali/internal/linux"
)

// Filesystem syscalls. Almost all are passthrough: address-space
// translation plus at most a layout conversion, under ten lines each —
// exactly the Table 2 shape.

func init() {
	def("read", 3, false, true, sysRead)
	def("write", 3, false, true, sysWrite)
	def("readv", 3, false, true, sysReadv)
	def("writev", 3, false, true, sysWritev)
	def("pread64", 4, false, true, sysPread64)
	def("pwrite64", 4, false, true, sysPwrite64)
	def("open", 3, false, true, sysOpen)
	def("openat", 4, false, true, sysOpenat)
	def("close", 1, false, true, sysClose)
	def("lseek", 3, false, true, sysLseek)
	def("stat", 2, false, true, sysStat)
	def("lstat", 2, false, true, sysLstat)
	def("fstat", 2, false, true, sysFstat)
	def("newfstatat", 4, false, true, sysNewfstatat)
	def("access", 2, false, true, sysAccess)
	def("faccessat", 3, false, true, sysFaccessat)
	def("faccessat2", 4, false, true, sysFaccessat)
	def("dup", 1, false, true, sysDup)
	def("dup2", 2, false, true, sysDup2)
	def("dup3", 3, false, true, sysDup3)
	def("fcntl", 3, false, true, sysFcntl)
	def("ioctl", 3, false, true, sysIoctl)
	def("getdents64", 3, false, true, sysGetdents64)
	def("mkdir", 2, false, true, sysMkdir)
	def("mkdirat", 3, false, true, sysMkdirat)
	def("rmdir", 1, false, true, sysRmdir)
	def("unlink", 1, false, true, sysUnlink)
	def("unlinkat", 3, false, true, sysUnlinkat)
	def("rename", 2, false, true, sysRename)
	def("renameat", 4, false, true, sysRenameat)
	def("renameat2", 5, false, true, sysRenameat)
	def("link", 2, false, true, sysLink)
	def("linkat", 5, false, true, sysLinkat)
	def("symlink", 2, false, true, sysSymlink)
	def("symlinkat", 3, false, true, sysSymlinkat)
	def("readlink", 3, false, true, sysReadlink)
	def("readlinkat", 4, false, true, sysReadlinkat)
	def("chdir", 1, false, true, sysChdir)
	def("fchdir", 1, false, true, sysFchdir)
	def("getcwd", 2, false, true, sysGetcwd)
	def("chmod", 2, false, true, sysChmod)
	def("fchmod", 2, false, true, sysFchmod)
	def("fchmodat", 3, false, true, sysFchmodat)
	def("chown", 3, false, true, sysChown)
	def("lchown", 3, false, true, sysLchown)
	def("fchownat", 5, false, true, sysFchownat)
	def("fchown", 3, false, true, sysFchown)
	def("truncate", 2, false, true, sysTruncate)
	def("ftruncate", 2, false, true, sysFtruncate)
	def("sync", 0, false, true, sysSync)
	def("syncfs", 1, false, true, sysSync1)
	def("fsync", 1, false, true, sysSync1)
	def("fdatasync", 1, false, true, sysSync1)
	def("umask", 1, false, true, sysUmask)
	def("pipe", 1, false, true, sysPipe)
	def("pipe2", 2, false, true, sysPipe2)
	def("poll", 3, false, true, sysPoll)
	def("ppoll", 4, false, true, sysPoll)
	def("select", 5, false, true, sysSelect)
	def("pselect6", 6, false, true, sysSelect)
	def("statfs", 2, false, true, sysStatfs)
	def("fstatfs", 2, false, true, sysFstatfs)
	def("utimensat", 4, false, true, sysUtimensat)
	def("sendfile", 4, false, true, sysSendfile)
	def("copy_file_range", 6, false, true, sysCopyFileRange)
	def("flock", 2, false, true, sysFlock)
	def("epoll_create1", 1, false, true, sysEpollCreate1)
	def("epoll_ctl", 4, false, true, sysEpollCtl)
	def("epoll_wait", 4, false, true, sysEpollWait)
	def("epoll_pwait", 5, false, true, sysEpollWait)
	def("getrandom", 3, false, true, sysGetrandom)
}

func sysRead(p *Process, e *interp.Exec, a Args) int64 {
	buf, errno := p.bufArg(uint32(a[1]), a[2])
	if errno != 0 {
		return errnoRet(errno)
	}
	return retN(p.KP.Read(int32(a[0]), buf))
}

func sysWrite(p *Process, e *interp.Exec, a Args) int64 {
	buf, errno := p.bufArg(uint32(a[1]), a[2])
	if errno != 0 {
		return errnoRet(errno)
	}
	return retN(p.KP.Write(int32(a[0]), buf))
}

// iovecs translates a wasm iovec array into host byte windows.
func (p *Process) iovecs(addr uint32, cnt int64) ([][]byte, linux.Errno) {
	if cnt < 0 || cnt > 1024 {
		return nil, linux.EINVAL
	}
	raw, ok := p.Inst.Mem.Bytes(addr, uint32(cnt)*isa.IovecSize)
	if !ok {
		return nil, linux.EFAULT
	}
	out := make([][]byte, 0, cnt)
	for i := int64(0); i < cnt; i++ {
		iov := isa.GetIovec(raw[i*isa.IovecSize:])
		b, ok := p.Inst.Mem.Bytes(iov.Base, iov.Len)
		if !ok {
			return nil, linux.EFAULT
		}
		out = append(out, b)
	}
	return out, 0
}

func sysReadv(p *Process, e *interp.Exec, a Args) int64 {
	iovs, errno := p.iovecs(uint32(a[1]), a[2])
	if errno != 0 {
		return errnoRet(errno)
	}
	total := 0
	for _, b := range iovs {
		if len(b) == 0 {
			continue
		}
		n, errno := p.KP.Read(int32(a[0]), b)
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

func sysWritev(p *Process, e *interp.Exec, a Args) int64 {
	iovs, errno := p.iovecs(uint32(a[1]), a[2])
	if errno != 0 {
		return errnoRet(errno)
	}
	total := 0
	for _, b := range iovs {
		if len(b) == 0 {
			continue
		}
		n, errno := p.KP.Write(int32(a[0]), b)
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

func sysPread64(p *Process, e *interp.Exec, a Args) int64 {
	buf, errno := p.bufArg(uint32(a[1]), a[2])
	if errno != 0 {
		return errnoRet(errno)
	}
	return retN(p.KP.Pread64(int32(a[0]), buf, a[3]))
}

func sysPwrite64(p *Process, e *interp.Exec, a Args) int64 {
	buf, errno := p.bufArg(uint32(a[1]), a[2])
	if errno != 0 {
		return errnoRet(errno)
	}
	return retN(p.KP.Pwrite64(int32(a[0]), buf, a[3]))
}

// guardProcMem interposes on open-like syscalls to deny the
// /proc/<pid>/mem escape hatch (§3.6 pitfall 1).
func guardProcMem(p *Process, path string) linux.Errno {
	clean := path
	if !strings.HasPrefix(clean, "/") {
		clean = strings.TrimSuffix(p.KP.Cwd(), "/") + "/" + clean
	}
	if strings.HasPrefix(clean, "/proc/") && strings.HasSuffix(clean, "/mem") {
		return linux.EACCES
	}
	return 0
}

func sysOpen(p *Process, e *interp.Exec, a Args) int64 {
	path, errno := p.pathArg(uint32(a[0]))
	if errno != 0 {
		return errnoRet(errno)
	}
	if errno := guardProcMem(p, path); errno != 0 {
		return errnoRet(errno)
	}
	fd, errno := p.KP.Open(path, int32(a[1]), uint32(a[2]))
	return ret64(int64(fd), errno)
}

func sysOpenat(p *Process, e *interp.Exec, a Args) int64 {
	path, errno := p.pathArg(uint32(a[1]))
	if errno != 0 {
		return errnoRet(errno)
	}
	if errno := guardProcMem(p, path); errno != 0 {
		return errnoRet(errno)
	}
	fd, errno := p.KP.OpenAt(int32(a[0]), path, int32(a[2]), uint32(a[3]))
	return ret64(int64(fd), errno)
}

func sysClose(p *Process, e *interp.Exec, a Args) int64 {
	return errnoRet(p.KP.Close(int32(a[0])))
}

func sysLseek(p *Process, e *interp.Exec, a Args) int64 {
	off, errno := p.KP.Lseek(int32(a[0]), a[1], int32(a[2]))
	return ret64(off, errno)
}

func putStat(p *Process, addr uint32, st linux.Stat, errno linux.Errno) int64 {
	if errno != 0 {
		return errnoRet(errno)
	}
	buf, ok := p.Inst.Mem.Bytes(addr, isa.KStatSize)
	if !ok {
		return errnoRet(linux.EFAULT)
	}
	isa.PutKStat(buf, st)
	return 0
}

func sysStat(p *Process, e *interp.Exec, a Args) int64 {
	path, errno := p.pathArg(uint32(a[0]))
	if errno != 0 {
		return errnoRet(errno)
	}
	st, errno := p.KP.StatAt(linux.AT_FDCWD, path, true)
	return putStat(p, uint32(a[1]), st, errno)
}

func sysLstat(p *Process, e *interp.Exec, a Args) int64 {
	path, errno := p.pathArg(uint32(a[0]))
	if errno != 0 {
		return errnoRet(errno)
	}
	st, errno := p.KP.StatAt(linux.AT_FDCWD, path, false)
	return putStat(p, uint32(a[1]), st, errno)
}

func sysFstat(p *Process, e *interp.Exec, a Args) int64 {
	st, errno := p.KP.Fstat(int32(a[0]))
	return putStat(p, uint32(a[1]), st, errno)
}

func sysNewfstatat(p *Process, e *interp.Exec, a Args) int64 {
	path, errno := p.pathArg(uint32(a[1]))
	if errno != 0 {
		return errnoRet(errno)
	}
	follow := int32(a[3])&linux.AT_SYMLINK_NOFOLLOW == 0
	st, errno := p.KP.StatAt(int32(a[0]), path, follow)
	return putStat(p, uint32(a[2]), st, errno)
}

func sysAccess(p *Process, e *interp.Exec, a Args) int64 {
	path, errno := p.pathArg(uint32(a[0]))
	if errno != 0 {
		return errnoRet(errno)
	}
	return errnoRet(p.KP.Access(linux.AT_FDCWD, path, int32(a[1])))
}

func sysFaccessat(p *Process, e *interp.Exec, a Args) int64 {
	path, errno := p.pathArg(uint32(a[1]))
	if errno != 0 {
		return errnoRet(errno)
	}
	return errnoRet(p.KP.Access(int32(a[0]), path, int32(a[2])))
}

func sysDup(p *Process, e *interp.Exec, a Args) int64 {
	fd, errno := p.KP.Dup(int32(a[0]))
	return ret64(int64(fd), errno)
}

func sysDup2(p *Process, e *interp.Exec, a Args) int64 {
	if a[0] == a[1] { // dup2 self: no-op success if valid
		if _, errno := p.KP.FDs.Get(int32(a[0])); errno != 0 {
			return errnoRet(errno)
		}
		return a[1]
	}
	fd, errno := p.KP.Dup3(int32(a[0]), int32(a[1]), 0)
	return ret64(int64(fd), errno)
}

func sysDup3(p *Process, e *interp.Exec, a Args) int64 {
	fd, errno := p.KP.Dup3(int32(a[0]), int32(a[1]), int32(a[2]))
	return ret64(int64(fd), errno)
}

func sysFcntl(p *Process, e *interp.Exec, a Args) int64 {
	v, errno := p.KP.Fcntl(int32(a[0]), int32(a[1]), int32(a[2]))
	return ret64(int64(v), errno)
}

func sysIoctl(p *Process, e *interp.Exec, a Args) int64 {
	// The argument is an ISA-identical operation value (§3.5); the data
	// buffer size depends on the request.
	cmd := uint32(a[1])
	var size uint32
	switch cmd {
	case linux.TIOCGWINSZ, linux.TIOCSWINSZ:
		size = isa.WinsizeSize
	case linux.FIONREAD, linux.FIONBIO:
		size = 4
	case linux.TCGETS, linux.TCSETS:
		size = 60
	}
	var arg []byte
	if size > 0 && uint32(a[2]) != 0 {
		var ok bool
		arg, ok = p.Inst.Mem.Bytes(uint32(a[2]), size)
		if !ok {
			return errnoRet(linux.EFAULT)
		}
	}
	v, errno := p.KP.Ioctl(int32(a[0]), cmd, arg)
	if errno != 0 {
		return errnoRet(errno)
	}
	if cmd == linux.FIONREAD && len(arg) >= 4 {
		le.PutUint32(arg, uint32(v))
		return 0
	}
	return int64(v)
}

func sysGetdents64(p *Process, e *interp.Exec, a Args) int64 {
	buf, errno := p.bufArg(uint32(a[1]), a[2])
	if errno != 0 {
		return errnoRet(errno)
	}
	return retN(p.KP.Getdents64(int32(a[0]), buf))
}

func sysMkdir(p *Process, e *interp.Exec, a Args) int64 {
	path, errno := p.pathArg(uint32(a[0]))
	if errno != 0 {
		return errnoRet(errno)
	}
	return errnoRet(p.KP.MkdirAt(linux.AT_FDCWD, path, uint32(a[1])))
}

func sysMkdirat(p *Process, e *interp.Exec, a Args) int64 {
	path, errno := p.pathArg(uint32(a[1]))
	if errno != 0 {
		return errnoRet(errno)
	}
	return errnoRet(p.KP.MkdirAt(int32(a[0]), path, uint32(a[2])))
}

func sysRmdir(p *Process, e *interp.Exec, a Args) int64 {
	path, errno := p.pathArg(uint32(a[0]))
	if errno != 0 {
		return errnoRet(errno)
	}
	return errnoRet(p.KP.UnlinkAt(linux.AT_FDCWD, path, linux.AT_REMOVEDIR))
}

func sysUnlink(p *Process, e *interp.Exec, a Args) int64 {
	path, errno := p.pathArg(uint32(a[0]))
	if errno != 0 {
		return errnoRet(errno)
	}
	return errnoRet(p.KP.UnlinkAt(linux.AT_FDCWD, path, 0))
}

func sysUnlinkat(p *Process, e *interp.Exec, a Args) int64 {
	path, errno := p.pathArg(uint32(a[1]))
	if errno != 0 {
		return errnoRet(errno)
	}
	return errnoRet(p.KP.UnlinkAt(int32(a[0]), path, int32(a[2])))
}

func sysRename(p *Process, e *interp.Exec, a Args) int64 {
	oldp, errno := p.pathArg(uint32(a[0]))
	if errno != 0 {
		return errnoRet(errno)
	}
	newp, errno := p.pathArg(uint32(a[1]))
	if errno != 0 {
		return errnoRet(errno)
	}
	return errnoRet(p.KP.RenameAt(linux.AT_FDCWD, oldp, linux.AT_FDCWD, newp))
}

func sysRenameat(p *Process, e *interp.Exec, a Args) int64 {
	oldp, errno := p.pathArg(uint32(a[1]))
	if errno != 0 {
		return errnoRet(errno)
	}
	newp, errno := p.pathArg(uint32(a[3]))
	if errno != 0 {
		return errnoRet(errno)
	}
	return errnoRet(p.KP.RenameAt(int32(a[0]), oldp, int32(a[2]), newp))
}

func sysLink(p *Process, e *interp.Exec, a Args) int64 {
	oldp, errno := p.pathArg(uint32(a[0]))
	if errno != 0 {
		return errnoRet(errno)
	}
	newp, errno := p.pathArg(uint32(a[1]))
	if errno != 0 {
		return errnoRet(errno)
	}
	return errnoRet(p.KP.LinkAt(oldp, newp))
}

func sysLinkat(p *Process, e *interp.Exec, a Args) int64 {
	oldp, errno := p.pathArg(uint32(a[1]))
	if errno != 0 {
		return errnoRet(errno)
	}
	newp, errno := p.pathArg(uint32(a[3]))
	if errno != 0 {
		return errnoRet(errno)
	}
	return errnoRet(p.KP.LinkAt(oldp, newp))
}

func sysSymlink(p *Process, e *interp.Exec, a Args) int64 {
	target, errno := p.pathArg(uint32(a[0]))
	if errno != 0 {
		return errnoRet(errno)
	}
	path, errno := p.pathArg(uint32(a[1]))
	if errno != 0 {
		return errnoRet(errno)
	}
	return errnoRet(p.KP.SymlinkAt(target, path))
}

func sysSymlinkat(p *Process, e *interp.Exec, a Args) int64 {
	target, errno := p.pathArg(uint32(a[0]))
	if errno != 0 {
		return errnoRet(errno)
	}
	path, errno := p.pathArg(uint32(a[2]))
	if errno != 0 {
		return errnoRet(errno)
	}
	return errnoRet(p.KP.SymlinkAt(target, path))
}

func sysReadlink(p *Process, e *interp.Exec, a Args) int64 {
	path, errno := p.pathArg(uint32(a[0]))
	if errno != 0 {
		return errnoRet(errno)
	}
	return readlinkCommon(p, path, uint32(a[1]), a[2])
}

func sysReadlinkat(p *Process, e *interp.Exec, a Args) int64 {
	path, errno := p.pathArg(uint32(a[1]))
	if errno != 0 {
		return errnoRet(errno)
	}
	return readlinkCommon(p, path, uint32(a[2]), a[3])
}

func readlinkCommon(p *Process, path string, bufAddr uint32, bufLen int64) int64 {
	target, errno := p.KP.ReadlinkAt(linux.AT_FDCWD, path)
	if errno != 0 {
		return errnoRet(errno)
	}
	buf, errno := p.bufArg(bufAddr, bufLen)
	if errno != 0 {
		return errnoRet(errno)
	}
	return int64(copy(buf, target))
}

func sysChdir(p *Process, e *interp.Exec, a Args) int64 {
	path, errno := p.pathArg(uint32(a[0]))
	if errno != 0 {
		return errnoRet(errno)
	}
	return errnoRet(p.KP.Chdir(path))
}

func sysFchdir(p *Process, e *interp.Exec, a Args) int64 {
	return errnoRet(p.KP.Fchdir(int32(a[0])))
}

func sysGetcwd(p *Process, e *interp.Exec, a Args) int64 {
	cwd := p.KP.Cwd()
	buf, errno := p.bufArg(uint32(a[0]), a[1])
	if errno != 0 {
		return errnoRet(errno)
	}
	if len(buf) < len(cwd)+1 {
		return errnoRet(linux.ERANGE)
	}
	copy(buf, cwd)
	buf[len(cwd)] = 0
	return int64(len(cwd) + 1)
}

func sysChmod(p *Process, e *interp.Exec, a Args) int64 {
	path, errno := p.pathArg(uint32(a[0]))
	if errno != 0 {
		return errnoRet(errno)
	}
	return errnoRet(p.KP.ChmodAt(linux.AT_FDCWD, path, uint32(a[1])))
}

func sysFchmod(p *Process, e *interp.Exec, a Args) int64 {
	return errnoRet(p.KP.Fchmod(int32(a[0]), uint32(a[1])))
}

func sysFchmodat(p *Process, e *interp.Exec, a Args) int64 {
	path, errno := p.pathArg(uint32(a[1]))
	if errno != 0 {
		return errnoRet(errno)
	}
	return errnoRet(p.KP.ChmodAt(int32(a[0]), path, uint32(a[2])))
}

func sysChown(p *Process, e *interp.Exec, a Args) int64 {
	path, errno := p.pathArg(uint32(a[0]))
	if errno != 0 {
		return errnoRet(errno)
	}
	return errnoRet(p.KP.ChownAt(linux.AT_FDCWD, path, uint32(a[1]), uint32(a[2]), true))
}

func sysLchown(p *Process, e *interp.Exec, a Args) int64 {
	path, errno := p.pathArg(uint32(a[0]))
	if errno != 0 {
		return errnoRet(errno)
	}
	return errnoRet(p.KP.ChownAt(linux.AT_FDCWD, path, uint32(a[1]), uint32(a[2]), false))
}

func sysFchownat(p *Process, e *interp.Exec, a Args) int64 {
	path, errno := p.pathArg(uint32(a[1]))
	if errno != 0 {
		return errnoRet(errno)
	}
	follow := int32(a[4])&linux.AT_SYMLINK_NOFOLLOW == 0
	return errnoRet(p.KP.ChownAt(int32(a[0]), path, uint32(a[2]), uint32(a[3]), follow))
}

func sysFchown(p *Process, e *interp.Exec, a Args) int64 {
	// Ownership is advisory in the simulated kernel: validate the fd,
	// then succeed.
	if _, errno := p.KP.FDs.Get(int32(a[0])); errno != 0 {
		return errnoRet(errno)
	}
	return 0
}

func sysTruncate(p *Process, e *interp.Exec, a Args) int64 {
	path, errno := p.pathArg(uint32(a[0]))
	if errno != 0 {
		return errnoRet(errno)
	}
	return errnoRet(p.KP.Truncate(path, a[1]))
}

func sysFtruncate(p *Process, e *interp.Exec, a Args) int64 {
	return errnoRet(p.KP.Ftruncate(int32(a[0]), a[1]))
}

func sysSync(p *Process, e *interp.Exec, a Args) int64 { return 0 }

func sysSync1(p *Process, e *interp.Exec, a Args) int64 {
	if _, errno := p.KP.FDs.Get(int32(a[0])); errno != 0 {
		return errnoRet(errno)
	}
	return 0
}

func sysUmask(p *Process, e *interp.Exec, a Args) int64 {
	return int64(p.KP.Umask(uint32(a[0])))
}

func sysPipe(p *Process, e *interp.Exec, a Args) int64 {
	return pipeCommon(p, uint32(a[0]), 0)
}

func sysPipe2(p *Process, e *interp.Exec, a Args) int64 {
	return pipeCommon(p, uint32(a[0]), int32(a[1]))
}

func pipeCommon(p *Process, addr uint32, flags int32) int64 {
	rfd, wfd, errno := p.KP.Pipe2(flags)
	if errno != 0 {
		return errnoRet(errno)
	}
	mem := p.Inst.Mem
	if !mem.WriteU32(addr, uint32(rfd)) || !mem.WriteU32(addr+4, uint32(wfd)) {
		p.KP.Close(rfd)
		p.KP.Close(wfd)
		return errnoRet(linux.EFAULT)
	}
	return 0
}

func sysPoll(p *Process, e *interp.Exec, a Args) int64 {
	nfds := a[1]
	if nfds < 0 || nfds > 4096 {
		return errnoRet(linux.EINVAL)
	}
	raw, errno := p.bufArg(uint32(a[0]), nfds*isa.PollFDSize)
	if errno != 0 {
		return errnoRet(errno)
	}
	fds := make([]kernel.PollFD, nfds)
	for i := range fds {
		fd, ev := isa.GetPollFD(raw[i*isa.PollFDSize:])
		fds[i] = kernel.PollFD{FD: fd, Events: ev}
	}
	// poll: timeout in ms; ppoll: a[3] is a timespec pointer (handled by
	// the same entry — ppoll passes ms==-1 and the ts in a[3]).
	timeoutNs := a[2] * 1e6
	if a[2] < 0 {
		timeoutNs = -1
	}
	n, errno := p.KP.Poll(fds, timeoutNs)
	if errno != 0 {
		return errnoRet(errno)
	}
	for i := range fds {
		isa.PutPollRevents(raw[i*isa.PollFDSize:], fds[i].Revents)
	}
	return int64(n)
}

func sysSelect(p *Process, e *interp.Exec, a Args) int64 {
	nfds := int32(a[0])
	if nfds < 0 || nfds > 1024 {
		return errnoRet(linux.EINVAL)
	}
	words := (int(nfds) + 63) / 64
	readSet := func(addr uint32) ([]uint64, linux.Errno) {
		if addr == 0 {
			return nil, 0
		}
		raw, ok := p.Inst.Mem.Bytes(addr, uint32(words*8))
		if !ok {
			return nil, linux.EFAULT
		}
		out := make([]uint64, words)
		for i := range out {
			out[i] = le.Uint64(raw[i*8:])
		}
		return out, 0
	}
	r, errno := readSet(uint32(a[1]))
	if errno != 0 {
		return errnoRet(errno)
	}
	w, errno := readSet(uint32(a[2]))
	if errno != 0 {
		return errnoRet(errno)
	}
	x, errno := readSet(uint32(a[3]))
	if errno != 0 {
		return errnoRet(errno)
	}
	timeoutNs := int64(-1)
	if uint32(a[4]) != 0 {
		buf, ok := p.Inst.Mem.Bytes(uint32(a[4]), isa.TimevalSize)
		if !ok {
			return errnoRet(linux.EFAULT)
		}
		sec := int64(le.Uint64(buf))
		usec := int64(le.Uint64(buf[8:]))
		timeoutNs = sec*1e9 + usec*1e3
	}
	n, errno := p.KP.Select(nfds, r, w, x, timeoutNs)
	if errno != 0 {
		return errnoRet(errno)
	}
	writeSet := func(addr uint32, set []uint64) {
		if addr == 0 || set == nil {
			return
		}
		raw, _ := p.Inst.Mem.Bytes(addr, uint32(words*8))
		for i, v := range set {
			le.PutUint64(raw[i*8:], v)
		}
	}
	writeSet(uint32(a[1]), r)
	writeSet(uint32(a[2]), w)
	writeSet(uint32(a[3]), x)
	return int64(n)
}

func sysStatfs(p *Process, e *interp.Exec, a Args) int64 {
	path, errno := p.pathArg(uint32(a[0]))
	if errno != 0 {
		return errnoRet(errno)
	}
	sf, errno := p.KP.StatfsPath(path)
	if errno != 0 {
		return errnoRet(errno)
	}
	buf, ok := p.Inst.Mem.Bytes(uint32(a[1]), isa.StatfsSize)
	if !ok {
		return errnoRet(linux.EFAULT)
	}
	isa.PutStatfs(buf, sf.Type, sf.Bsize, sf.Blocks, sf.Bfree, sf.Bavail, sf.Files, sf.Ffree, sf.NameLen)
	return 0
}

func sysFstatfs(p *Process, e *interp.Exec, a Args) int64 {
	if _, errno := p.KP.FDs.Get(int32(a[0])); errno != 0 {
		return errnoRet(errno)
	}
	sf, _ := p.KP.StatfsPath("/")
	buf, ok := p.Inst.Mem.Bytes(uint32(a[1]), isa.StatfsSize)
	if !ok {
		return errnoRet(linux.EFAULT)
	}
	isa.PutStatfs(buf, sf.Type, sf.Bsize, sf.Blocks, sf.Bfree, sf.Bavail, sf.Files, sf.Ffree, sf.NameLen)
	return 0
}

func sysUtimensat(p *Process, e *interp.Exec, a Args) int64 {
	path, errno := p.pathArg(uint32(a[1]))
	if errno != 0 {
		return errnoRet(errno)
	}
	var atime, mtime *linux.Timespec
	if uint32(a[2]) != 0 {
		buf, ok := p.Inst.Mem.Bytes(uint32(a[2]), 2*isa.TimespecSize)
		if !ok {
			return errnoRet(linux.EFAULT)
		}
		at := isa.GetTimespec(buf)
		mt := isa.GetTimespec(buf[isa.TimespecSize:])
		atime, mtime = &at, &mt
	} else {
		now := p.W.Kernel.Realtime()
		atime, mtime = &now, &now
	}
	follow := int32(a[3])&linux.AT_SYMLINK_NOFOLLOW == 0
	return errnoRet(p.KP.UtimensAt(int32(a[0]), path, atime, mtime, follow))
}

func sysSendfile(p *Process, e *interp.Exec, a Args) int64 {
	// offset pointer (a[2]) unsupported: apps in this repo pass NULL.
	if uint32(a[2]) != 0 {
		return errnoRet(linux.EINVAL)
	}
	return retN(p.KP.Sendfile(int32(a[0]), int32(a[1]), int(a[3])))
}

func sysCopyFileRange(p *Process, e *interp.Exec, a Args) int64 {
	if uint32(a[1]) != 0 || uint32(a[3]) != 0 {
		return errnoRet(linux.EINVAL)
	}
	return retN(p.KP.Sendfile(int32(a[2]), int32(a[0]), int(a[4])))
}

func sysFlock(p *Process, e *interp.Exec, a Args) int64 {
	if _, errno := p.KP.FDs.Get(int32(a[0])); errno != 0 {
		return errnoRet(errno)
	}
	return 0 // advisory whole-file locks: single-kernel sim treats as success
}

func sysEpollCreate1(p *Process, e *interp.Exec, a Args) int64 {
	fd, errno := p.KP.EpollCreate(int32(a[0]))
	return ret64(int64(fd), errno)
}

func sysEpollCtl(p *Process, e *interp.Exec, a Args) int64 {
	var events uint32
	var data uint64
	if uint32(a[3]) != 0 {
		buf, ok := p.Inst.Mem.Bytes(uint32(a[3]), isa.EpollEventSize)
		if !ok {
			return errnoRet(linux.EFAULT)
		}
		events, data = isa.GetEpollEvent(buf)
	}
	return errnoRet(p.KP.EpollCtl(int32(a[0]), int32(a[1]), int32(a[2]), events, data))
}

func sysEpollWait(p *Process, e *interp.Exec, a Args) int64 {
	maxEv := int(a[2])
	if maxEv <= 0 || maxEv > 4096 {
		return errnoRet(linux.EINVAL)
	}
	raw, errno := p.bufArg(uint32(a[1]), int64(maxEv)*isa.EpollEventSize)
	if errno != 0 {
		return errnoRet(errno)
	}
	timeoutNs := a[3] * 1e6
	if a[3] < 0 {
		timeoutNs = -1
	}
	evs, errno2 := p.KP.EpollWait(int32(a[0]), maxEv, timeoutNs)
	if errno2 != 0 {
		return errnoRet(errno2)
	}
	for i, ev := range evs {
		isa.PutEpollEvent(raw[i*isa.EpollEventSize:], ev.Events, ev.Data)
	}
	return int64(len(evs))
}

func sysGetrandom(p *Process, e *interp.Exec, a Args) int64 {
	buf, errno := p.bufArg(uint32(a[0]), a[1])
	if errno != 0 {
		return errnoRet(errno)
	}
	return int64(p.W.Kernel.GetRandom(buf))
}
