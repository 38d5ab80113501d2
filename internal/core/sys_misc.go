package core

import (
	"runtime"

	"gowali/internal/interp"
	"gowali/internal/isa"
	"gowali/internal/linux"
)

// Identity, time and system-information syscalls.

func init() {
	def("getuid", 0, false, true, sysGetuid)
	def("geteuid", 0, false, true, sysGeteuid)
	def("getgid", 0, false, true, sysGetgid)
	def("getegid", 0, false, true, sysGetegid)
	def("setuid", 1, false, true, sysSetuid)
	def("setgid", 1, false, true, sysSetgid)
	def("setreuid", 2, false, true, sysSetreuid)
	def("setregid", 2, false, true, sysSetregid)
	def("getresuid", 3, false, true, sysGetresuid)
	def("getresgid", 3, false, true, sysGetresgid)
	def("getgroups", 2, false, true, sysGetgroups)
	def("setgroups", 2, false, true, sysSetgroups)

	def("clock_gettime", 2, false, true, sysClockGettime)
	def("clock_getres", 2, false, true, sysClockGetres)
	def("clock_nanosleep", 4, false, true, sysClockNanosleep)
	def("nanosleep", 2, false, true, sysNanosleep)
	def("gettimeofday", 2, false, true, sysGettimeofday)
	def("time", 1, false, true, sysTime)

	def("uname", 1, false, true, sysUname)
	def("sysinfo", 1, false, true, sysSysinfo)
	def("sethostname", 2, false, true, sysOK2)
	def("syslog", 3, false, true, sysOK3)
}

func sysGetuid(p *Process, e *interp.Exec, a Args) int64 {
	u, _, _, _ := p.KP.Creds()
	return int64(u)
}

func sysGeteuid(p *Process, e *interp.Exec, a Args) int64 {
	_, eu, _, _ := p.KP.Creds()
	return int64(eu)
}

func sysGetgid(p *Process, e *interp.Exec, a Args) int64 {
	_, _, g, _ := p.KP.Creds()
	return int64(g)
}

func sysGetegid(p *Process, e *interp.Exec, a Args) int64 {
	_, _, _, eg := p.KP.Creds()
	return int64(eg)
}

func sysSetuid(p *Process, e *interp.Exec, a Args) int64 {
	return errnoRet(p.KP.SetUID(uint32(a[0])))
}

func sysSetgid(p *Process, e *interp.Exec, a Args) int64 {
	return errnoRet(p.KP.SetGID(uint32(a[0])))
}

func sysSetreuid(p *Process, e *interp.Exec, a Args) int64 {
	if int32(a[1]) >= 0 {
		return errnoRet(p.KP.SetUID(uint32(a[1])))
	}
	return 0
}

func sysSetregid(p *Process, e *interp.Exec, a Args) int64 {
	if int32(a[1]) >= 0 {
		return errnoRet(p.KP.SetGID(uint32(a[1])))
	}
	return 0
}

func sysGetresuid(p *Process, e *interp.Exec, a Args) int64 {
	u, eu, _, _ := p.KP.Creds()
	mem := p.Inst.Mem
	if !mem.WriteU32(uint32(a[0]), u) || !mem.WriteU32(uint32(a[1]), eu) ||
		!mem.WriteU32(uint32(a[2]), u) {
		return errnoRet(linux.EFAULT)
	}
	return 0
}

func sysGetresgid(p *Process, e *interp.Exec, a Args) int64 {
	_, _, g, eg := p.KP.Creds()
	mem := p.Inst.Mem
	if !mem.WriteU32(uint32(a[0]), g) || !mem.WriteU32(uint32(a[1]), eg) ||
		!mem.WriteU32(uint32(a[2]), g) {
		return errnoRet(linux.EFAULT)
	}
	return 0
}

func sysGetgroups(p *Process, e *interp.Exec, a Args) int64 {
	groups := p.KP.Groups()
	if a[0] == 0 {
		return int64(len(groups))
	}
	if int(a[0]) < len(groups) {
		return errnoRet(linux.EINVAL)
	}
	for i, g := range groups {
		if !p.Inst.Mem.WriteU32(uint32(a[1])+uint32(i)*4, g) {
			return errnoRet(linux.EFAULT)
		}
	}
	return int64(len(groups))
}

func sysSetgroups(p *Process, e *interp.Exec, a Args) int64 {
	n := a[0]
	if n < 0 || n > 64 {
		return errnoRet(linux.EINVAL)
	}
	groups := make([]uint32, n)
	for i := range groups {
		v, ok := p.Inst.Mem.ReadU32(uint32(a[1]) + uint32(i)*4)
		if !ok {
			return errnoRet(linux.EFAULT)
		}
		groups[i] = v
	}
	return errnoRet(p.KP.SetGroups(groups))
}

func sysClockGettime(p *Process, e *interp.Exec, a Args) int64 {
	ts, errno := p.W.Kernel.ClockGettime(int32(a[0]))
	if errno != 0 {
		return errnoRet(errno)
	}
	buf, ok := p.Inst.Mem.Bytes(uint32(a[1]), isa.TimespecSize)
	if !ok {
		return errnoRet(linux.EFAULT)
	}
	isa.PutTimespec(buf, ts)
	return 0
}

func sysClockGetres(p *Process, e *interp.Exec, a Args) int64 {
	if uint32(a[1]) != 0 {
		buf, ok := p.Inst.Mem.Bytes(uint32(a[1]), isa.TimespecSize)
		if !ok {
			return errnoRet(linux.EFAULT)
		}
		isa.PutTimespec(buf, linux.Timespec{Nsec: 1})
	}
	return 0
}

// sleepFor is the body of both sleep syscalls: sleep for ts and, when
// remAddr is set, report the time left (zero unless interrupted).
func sleepFor(p *Process, ts linux.Timespec, remAddr uint32) int64 {
	rem, errno := p.KP.Nanosleep(ts)
	if errno != 0 && errno != linux.EINTR {
		return errnoRet(errno)
	}
	if remAddr != 0 {
		if buf, ok := p.Inst.Mem.Bytes(remAddr, isa.TimespecSize); ok {
			isa.PutTimespec(buf, rem)
		}
	}
	return errnoRet(errno)
}

func sysNanosleep(p *Process, e *interp.Exec, a Args) int64 {
	buf, ok := p.Inst.Mem.Bytes(uint32(a[0]), isa.TimespecSize)
	if !ok {
		return errnoRet(linux.EFAULT)
	}
	return sleepFor(p, isa.GetTimespec(buf), uint32(a[1]))
}

func sysClockNanosleep(p *Process, e *interp.Exec, a Args) int64 {
	buf, ok := p.Inst.Mem.Bytes(uint32(a[2]), isa.TimespecSize)
	if !ok {
		return errnoRet(linux.EFAULT)
	}
	ts := isa.GetTimespec(buf)
	remAddr := uint32(a[3])
	const timerAbstime = 1
	if int32(a[1])&timerAbstime != 0 {
		now, _ := p.W.Kernel.ClockGettime(int32(a[0]))
		delta := ts.Nanos() - now.Nanos()
		if delta <= 0 {
			return 0
		}
		ts = linux.TimespecFromNanos(delta)
		remAddr = 0 // absolute sleeps report no remainder
	}
	return sleepFor(p, ts, remAddr)
}

func sysGettimeofday(p *Process, e *interp.Exec, a Args) int64 {
	if uint32(a[0]) != 0 {
		buf, ok := p.Inst.Mem.Bytes(uint32(a[0]), isa.TimevalSize)
		if !ok {
			return errnoRet(linux.EFAULT)
		}
		isa.PutTimeval(buf, p.W.Kernel.Realtime())
	}
	return 0
}

func sysTime(p *Process, e *interp.Exec, a Args) int64 {
	sec := p.W.Kernel.Realtime().Sec
	if uint32(a[0]) != 0 {
		if !p.Inst.Mem.WriteU64(uint32(a[0]), uint64(sec)) {
			return errnoRet(linux.EFAULT)
		}
	}
	return sec
}

func sysUname(p *Process, e *interp.Exec, a Args) int64 {
	buf, ok := p.Inst.Mem.Bytes(uint32(a[0]), isa.UtsnameSize)
	if !ok {
		return errnoRet(linux.EFAULT)
	}
	isa.PutUtsname(buf, p.W.Kernel.Uname())
	return 0
}

func sysSysinfo(p *Process, e *interp.Exec, a Args) int64 {
	buf, ok := p.Inst.Mem.Bytes(uint32(a[0]), isa.SysinfoSize)
	if !ok {
		return errnoRet(linux.EFAULT)
	}
	isa.PutSysinfo(buf, p.W.Kernel.Sysinfo())
	return 0
}

func schedYield() { runtime.Gosched() }

func numCPU() int { return runtime.NumCPU() }
