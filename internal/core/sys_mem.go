package core

import (
	"gowali/internal/interp"
	"gowali/internal/kernel"
	"gowali/internal/linux"
)

// Memory-management syscalls (§3.2): all mappings land inside the module's
// linear memory through the MmapPool, so the sandbox is preserved by
// construction; mapped regions are exactly as addressable (and exactly as
// non-executable) as the rest of linear memory.

func init() {
	def("mmap", 6, true, false, sysMmap)
	def("munmap", 2, true, false, sysMunmap)
	def("mremap", 5, true, false, sysMremap)
	def("mprotect", 3, true, false, sysMprotect)
	def("msync", 3, true, false, sysMsync)
	def("madvise", 3, false, true, sysMadvise)
	def("brk", 1, true, false, sysBrk)
	def("mlock", 2, false, true, sysOK2)
	def("munlock", 2, false, true, sysOK2)
	def("mlockall", 1, false, true, sysOK1)
	def("munlockall", 0, false, true, sysOK0)
	def("membarrier", 3, false, true, sysOK3)
	def("mincore", 3, false, true, sysMincore)
	def("process_vm_readv", 6, false, false, sysProcessVMDenied)
	def("process_vm_writev", 6, false, false, sysProcessVMDenied)
}

func sysMmap(p *Process, e *interp.Exec, a Args) int64 {
	addr := uint32(a[0])
	length := a[1]
	prot := int32(a[2])
	flags := int32(a[3])
	fd := int32(a[4])
	offset := a[5]
	if length <= 0 || length > int64(^uint32(0)) {
		return errnoRet(linux.EINVAL)
	}
	var file kernel.File
	if flags&linux.MAP_ANONYMOUS == 0 {
		var errno linux.Errno
		file, errno = p.KP.FDs.Get(fd)
		if errno != 0 {
			return errnoRet(errno)
		}
	}
	mapped, errno := p.Pool.Map(addr, uint32(length), prot, flags, file, offset)
	if errno != 0 {
		return errnoRet(errno)
	}
	return int64(mapped)
}

func sysMunmap(p *Process, e *interp.Exec, a Args) int64 {
	return errnoRet(p.Pool.Unmap(uint32(a[0]), uint32(a[1])))
}

func sysMremap(p *Process, e *interp.Exec, a Args) int64 {
	addr, errno := p.Pool.Remap(uint32(a[0]), uint32(a[1]), uint32(a[2]), int32(a[3]))
	if errno != 0 {
		return errnoRet(errno)
	}
	return int64(addr)
}

func sysMprotect(p *Process, e *interp.Exec, a Args) int64 {
	return errnoRet(p.Pool.Protect(uint32(a[0]), uint32(a[1]), int32(a[2])))
}

func sysMsync(p *Process, e *interp.Exec, a Args) int64 {
	return errnoRet(p.Pool.Sync(uint32(a[0]), uint32(a[1])))
}

func sysMadvise(p *Process, e *interp.Exec, a Args) int64 {
	switch int32(a[2]) {
	case linux.MADV_NORMAL, linux.MADV_RANDOM, linux.MADV_SEQUENTIAL,
		linux.MADV_WILLNEED, linux.MADV_DONTNEED:
		return 0
	}
	return errnoRet(linux.EINVAL)
}

func sysBrk(p *Process, e *interp.Exec, a Args) int64 {
	return int64(p.Pool.Brk(uint32(a[0])))
}

func sysMincore(p *Process, e *interp.Exec, a Args) int64 {
	pages := (a[1] + MapGranularity - 1) / MapGranularity
	buf, errno := p.bufArg(uint32(a[2]), pages)
	if errno != 0 {
		return errnoRet(errno)
	}
	for i := range buf {
		buf[i] = 1 // everything is "resident" in a simulated kernel
	}
	return 0
}

// sysProcessVMDenied blocks cross-process address-space access (§3.6
// pitfall 2): the calls are syntactically available but always refused.
func sysProcessVMDenied(p *Process, e *interp.Exec, a Args) int64 {
	return errnoRet(linux.EPERM)
}

func sysOK0(p *Process, e *interp.Exec, a Args) int64 { return 0 }
