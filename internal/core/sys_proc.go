package core

import (
	"gowali/internal/interp"
	"gowali/internal/isa"
	"gowali/internal/linux"
)

// Process-model syscalls (§3.1). These are the non-passthrough heart of
// WALI: fork clones the resumable interpreter state, clone(CLONE_THREAD)
// spawns an instance-per-thread sibling, execve swaps the module image.

func init() {
	def("fork", 0, true, false, sysFork)
	def("vfork", 0, true, false, sysFork)
	def("clone", 5, true, false, sysClone)
	def("execve", 3, true, false, sysExecve)
	def("exit", 1, false, false, sysExit)
	def("exit_group", 1, false, false, sysExit)
	def("wait4", 4, false, true, sysWait4)
	def("waitid", 5, false, true, sysWaitid)
	def("getpid", 0, false, true, sysGetpid)
	def("getppid", 0, false, true, sysGetppid)
	def("gettid", 0, false, true, sysGettid)
	def("getpgid", 1, false, true, sysGetpgid)
	def("setpgid", 2, false, true, sysSetpgid)
	def("getpgrp", 0, false, true, sysGetpgrp)
	def("getsid", 1, false, true, sysGetsid)
	def("setsid", 0, false, true, sysSetsid)
	def("sched_yield", 0, false, true, sysSchedYield)
	def("sched_getaffinity", 3, false, true, sysSchedGetaffinity)
	def("sched_setaffinity", 3, false, true, sysOK3)
	def("getpriority", 2, false, true, sysGetpriority)
	def("setpriority", 3, false, true, sysOK3)
	def("prlimit64", 4, false, true, sysPrlimit64)
	def("getrlimit", 2, false, true, sysGetrlimit)
	def("setrlimit", 2, false, true, sysSetrlimit)
	def("getrusage", 2, false, true, sysGetrusage)
	def("times", 1, false, true, sysTimes)
	def("set_tid_address", 1, true, false, sysSetTidAddress)
	def("set_robust_list", 2, false, true, sysOK2)
	def("getcpu", 3, false, true, sysGetcpu)
	def("prctl", 5, false, true, sysOK5)
	def("personality", 1, false, true, sysOK1)
	def("futex", 6, true, false, sysFutex)

	// Signal syscalls (handlers in signals.go).
	def("rt_sigaction", 4, true, false, sysRtSigaction)
	def("rt_sigprocmask", 4, false, false, sysRtSigprocmask)
	def("rt_sigpending", 2, false, true, sysRtSigpending)
	def("rt_sigsuspend", 2, false, false, sysRtSigsuspend)
	def("rt_sigtimedwait", 4, false, false, sysRtSigtimedwait)
	def("rt_sigreturn", 0, false, false, sysRtSigreturn)
	def("sigaltstack", 2, false, true, sysSigaltstack)
	def("pause", 0, false, false, sysPause)
	def("kill", 2, false, true, sysKill)
	def("tkill", 2, false, true, sysTkill)
	def("tgkill", 3, false, true, sysTgkill)
	def("alarm", 1, true, false, sysAlarm)
	def("setitimer", 3, true, false, sysSetitimer)
	def("getitimer", 2, false, true, sysGetitimer)
}

// sysFork implements fork as pass-through kernel fork plus engine-side
// clone of instance and execution (§3.1 1-to-1 model). The clone resumes
// on its own goroutine; the parent returns the child pid, the child 0.
func sysFork(p *Process, e *interp.Exec, a Args) int64 {
	// Budget gate: the child duplicates the address space's private
	// pages, so that much is reserved against the tenant before cloning;
	// Linux reports fork failure for exceeded resource ceilings as EAGAIN.
	if p.Tenant != nil && !p.Tenant.ReserveMemory(privateBytes(p.Inst.Mem)) {
		return errnoRet(linux.EAGAIN)
	}
	c := p.forkChild(e)
	c.Exec.Push(0) // child's fork() return value
	p.W.wg.Add(1)
	go func() {
		defer p.W.wg.Done()
		c.resumeForked()
	}()
	return int64(c.KP.PID)
}

// sysClone dispatches on flags: CLONE_THREAD spawns an instance-per-thread
// LWP; otherwise it behaves as fork (the 1-to-1 model maps non-thread
// clones to processes).
//
// Thread convention (our toolchain's clone wrapper): args are
// (flags, fn_tableidx, arg, ptid, ctid); the new thread executes
// table[fn_tableidx](arg).
func sysClone(p *Process, e *interp.Exec, a Args) int64 {
	flags := a[0]
	if flags&linux.CLONE_THREAD != 0 {
		tid, errno := p.spawnThread(uint32(a[1]), uint32(a[2]), uint32(a[4]), flags)
		if errno != 0 {
			return errnoRet(errno)
		}
		if flags&linux.CLONE_PARENT_SETTID != 0 && uint32(a[3]) != 0 {
			p.Inst.Mem.WriteU32(uint32(a[3]), uint32(tid))
		}
		return int64(tid)
	}
	return sysFork(p, e, a)
}

func sysExecve(p *Process, e *interp.Exec, a Args) int64 {
	path, errno := p.pathArg(uint32(a[0]))
	if errno != 0 {
		return errnoRet(errno)
	}
	argv, errno := p.strArray(uint32(a[1]))
	if errno != 0 {
		return errnoRet(errno)
	}
	envp, errno := p.strArray(uint32(a[2]))
	if errno != 0 {
		return errnoRet(errno)
	}
	// Validate the image before the point of no return.
	if _, err := p.W.loadModule(path); err != nil {
		return errnoRet(linux.ENOENT)
	}
	if len(argv) == 0 {
		argv = []string{path}
	}
	p.execReq = &execRequest{path: path, argv: argv, envp: envp}
	panic(execPanic{})
}

// strArray reads a NULL-terminated array of string pointers (argv/envp).
func (p *Process) strArray(addr uint32) ([]string, linux.Errno) {
	if addr == 0 {
		return nil, 0
	}
	var out []string
	for i := uint32(0); i < 1024; i++ {
		ptr, ok := p.Inst.Mem.ReadU32(addr + i*4)
		if !ok {
			return nil, linux.EFAULT
		}
		if ptr == 0 {
			return out, 0
		}
		s, ok := p.Inst.Mem.ReadCString(ptr, 4096)
		if !ok {
			return nil, linux.EFAULT
		}
		out = append(out, s)
	}
	return nil, linux.E2BIG
}

func sysExit(p *Process, e *interp.Exec, a Args) int64 {
	panic(&interp.Exit{Status: int32(a[0])})
}

func sysWait4(p *Process, e *interp.Exec, a Args) int64 {
	pid, status, ru, errno := p.KP.Wait4(int32(a[0]), int32(a[2]))
	if errno != 0 {
		return errnoRet(errno)
	}
	if pid > 0 && uint32(a[1]) != 0 {
		if !p.Inst.Mem.WriteU32(uint32(a[1]), uint32(status)) {
			return errnoRet(linux.EFAULT)
		}
	}
	if pid > 0 && uint32(a[3]) != 0 {
		buf, ok := p.Inst.Mem.Bytes(uint32(a[3]), isa.RusageSize)
		if !ok {
			return errnoRet(linux.EFAULT)
		}
		isa.PutRusage(buf, ru)
	}
	return int64(pid)
}

func sysWaitid(p *Process, e *interp.Exec, a Args) int64 {
	// waitid(idtype, id, infop, options, rusage): P_ALL=0, P_PID=1.
	pid := int32(-1)
	if a[0] == 1 {
		pid = int32(a[1])
	}
	rpid, status, _, errno := p.KP.Wait4(pid, int32(a[3]))
	if errno != 0 {
		return errnoRet(errno)
	}
	if uint32(a[2]) != 0 && rpid > 0 {
		// siginfo: si_signo=SIGCHLD @0, si_pid @16, si_status @24.
		buf, ok := p.Inst.Mem.Bytes(uint32(a[2]), 32)
		if !ok {
			return errnoRet(linux.EFAULT)
		}
		zero(buf)
		le.PutUint32(buf[0:], linux.SIGCHLD)
		le.PutUint32(buf[16:], uint32(rpid))
		le.PutUint32(buf[24:], uint32(linux.WEXITSTATUS(status)))
	}
	return 0
}

func sysGetpid(p *Process, e *interp.Exec, a Args) int64 { return int64(p.KP.TGID) }

func sysGetppid(p *Process, e *interp.Exec, a Args) int64 { return int64(p.KP.Getppid()) }

func sysGettid(p *Process, e *interp.Exec, a Args) int64 { return int64(p.KP.PID) }

func sysGetpgid(p *Process, e *interp.Exec, a Args) int64 {
	pg, errno := p.KP.Getpgid(int32(a[0]))
	return ret64(int64(pg), errno)
}

func sysSetpgid(p *Process, e *interp.Exec, a Args) int64 {
	return errnoRet(p.KP.Setpgid(int32(a[0]), int32(a[1])))
}

func sysGetpgrp(p *Process, e *interp.Exec, a Args) int64 {
	pg, _ := p.KP.Getpgid(0)
	return int64(pg)
}

func sysGetsid(p *Process, e *interp.Exec, a Args) int64 { return int64(p.KP.Getsid()) }

func sysSetsid(p *Process, e *interp.Exec, a Args) int64 {
	sid, errno := p.KP.Setsid()
	return ret64(int64(sid), errno)
}

func sysSchedYield(p *Process, e *interp.Exec, a Args) int64 {
	// Yield the goroutine; the Go scheduler is the CPU.
	schedYield()
	return 0
}

func sysSchedGetaffinity(p *Process, e *interp.Exec, a Args) int64 {
	size := a[1]
	if size < 8 {
		return errnoRet(linux.EINVAL)
	}
	buf, errno := p.bufArg(uint32(a[2]), 8)
	if errno != 0 {
		return errnoRet(errno)
	}
	le.PutUint64(buf, uint64(1)<<uint(numCPU())-1)
	return 8
}

func sysGetpriority(p *Process, e *interp.Exec, a Args) int64 {
	return 20 // nice 0, in getpriority's shifted encoding
}

func sysPrlimit64(p *Process, e *interp.Exec, a Args) int64 {
	res := int32(a[1])
	var newLim *[2]uint64
	if uint32(a[2]) != 0 {
		buf, ok := p.Inst.Mem.Bytes(uint32(a[2]), isa.RlimitSize)
		if !ok {
			return errnoRet(linux.EFAULT)
		}
		v := isa.GetRlimit(buf)
		newLim = &v
	}
	old, errno := p.KP.Prlimit(res, newLim)
	if errno != 0 {
		return errnoRet(errno)
	}
	if uint32(a[3]) != 0 {
		buf, ok := p.Inst.Mem.Bytes(uint32(a[3]), isa.RlimitSize)
		if !ok {
			return errnoRet(linux.EFAULT)
		}
		isa.PutRlimit(buf, old)
	}
	return 0
}

func sysGetrlimit(p *Process, e *interp.Exec, a Args) int64 {
	old, errno := p.KP.Prlimit(int32(a[0]), nil)
	if errno != 0 {
		return errnoRet(errno)
	}
	buf, ok := p.Inst.Mem.Bytes(uint32(a[1]), isa.RlimitSize)
	if !ok {
		return errnoRet(linux.EFAULT)
	}
	isa.PutRlimit(buf, old)
	return 0
}

func sysSetrlimit(p *Process, e *interp.Exec, a Args) int64 {
	buf, ok := p.Inst.Mem.Bytes(uint32(a[1]), isa.RlimitSize)
	if !ok {
		return errnoRet(linux.EFAULT)
	}
	v := isa.GetRlimit(buf)
	_, errno := p.KP.Prlimit(int32(a[0]), &v)
	return errnoRet(errno)
}

func sysGetrusage(p *Process, e *interp.Exec, a Args) int64 {
	buf, ok := p.Inst.Mem.Bytes(uint32(a[1]), isa.RusageSize)
	if !ok {
		return errnoRet(linux.EFAULT)
	}
	isa.PutRusage(buf, p.KP.Rusage())
	return 0
}

func sysTimes(p *Process, e *interp.Exec, a Args) int64 {
	ru := p.KP.Rusage()
	if uint32(a[0]) != 0 {
		buf, ok := p.Inst.Mem.Bytes(uint32(a[0]), isa.TmsSize)
		if !ok {
			return errnoRet(linux.EFAULT)
		}
		// clock_t at 100 Hz.
		isa.PutTms(buf, ru.Utime.Nanos()/1e7, ru.Stime.Nanos()/1e7)
	}
	return p.W.Kernel.Monotonic().Nanos() / 1e7
}

func sysSetTidAddress(p *Process, e *interp.Exec, a Args) int64 {
	p.KP.SetClearTID(uint32(a[0]))
	return int64(p.KP.PID)
}

func sysGetcpu(p *Process, e *interp.Exec, a Args) int64 {
	if uint32(a[0]) != 0 {
		p.Inst.Mem.WriteU32(uint32(a[0]), 0)
	}
	if uint32(a[1]) != 0 {
		p.Inst.Mem.WriteU32(uint32(a[1]), 0)
	}
	return 0
}

// sysFutex bridges Wasm futexes to the kernel: the memory object is the
// address-space identity, so thread groups sharing a memory rendezvous and
// distinct processes do not.
func sysFutex(p *Process, e *interp.Exec, a Args) int64 {
	addr := uint32(a[0])
	op := int32(a[1]) & int32(linux.FUTEX_CMD_MASK)
	val := uint32(a[2])
	mem := p.Inst.Mem
	if !mem.InRange(addr, 4) {
		return errnoRet(linux.EFAULT)
	}
	if addr&3 != 0 {
		// Futex words must be naturally aligned (Linux returns EINVAL);
		// alignment is also what lets the engine access them atomically.
		return errnoRet(linux.EINVAL)
	}
	switch op {
	case linux.FUTEX_WAIT:
		var timeout *linux.Timespec
		if uint32(a[3]) != 0 {
			buf, ok := mem.Bytes(uint32(a[3]), isa.TimespecSize)
			if !ok {
				return errnoRet(linux.EFAULT)
			}
			ts := isa.GetTimespec(buf)
			timeout = &ts
		}
		// The test-and-block load is atomic so it synchronizes with the
		// waker thread's store to the futex word (the interpreter makes
		// aligned 32-bit accesses on shared memories atomic too).
		errno := p.W.Kernel.FutexWait(mem, addr, val, func() uint32 {
			v, _ := mem.AtomicReadU32(addr)
			return v
		}, timeout, p.KP)
		return errnoRet(errno)
	case linux.FUTEX_WAKE:
		return int64(p.W.Kernel.FutexWake(mem, addr, int32(val)))
	}
	return errnoRet(linux.ENOSYS)
}

// Generic accept-and-succeed handlers for advisory calls.
func sysOK1(p *Process, e *interp.Exec, a Args) int64 { return 0 }
func sysOK2(p *Process, e *interp.Exec, a Args) int64 { return 0 }
func sysOK3(p *Process, e *interp.Exec, a Args) int64 { return 0 }
func sysOK5(p *Process, e *interp.Exec, a Args) int64 { return 0 }
