package wasi

import (
	"encoding/binary"
	"strings"
	"sync"

	"gowali/internal/core"
	"gowali/internal/interp"
	"gowali/internal/linux"
	"gowali/internal/wasm"
)

// Namespace is the WASI preview1 import module name.
const Namespace = "wasi_snapshot_preview1"

var le = binary.LittleEndian

// Preopen grants a capability: the guest path maps onto the host
// (simulated-kernel) path, opened read-only as a directory at startup.
type Preopen struct {
	Guest string
	Host  string
}

// Layer is the WASI implementation over WALI. Install it on a WALI engine
// with Attach, then spawn WASI modules normally — their
// wasi_snapshot_preview1 imports resolve here, and every operation bottoms
// out in core.Process.Syscall (the WALI surface).
type Layer struct {
	W        *core.WALI
	Preopens []Preopen

	mu     sync.Mutex
	states map[*core.Process]*procState
}

// procState is the per-process WASI bookkeeping: the preopen fd table and
// a scratch mapping (obtained via WALI mmap) used to NUL-terminate paths.
type procState struct {
	preopens map[int32]string // wali fd -> guest path
	scratch  uint32
	scratchN uint32
}

// Attach creates the layer and installs it on w.
func Attach(w *core.WALI, preopens ...Preopen) *Layer {
	if len(preopens) == 0 {
		preopens = []Preopen{{Guest: "/", Host: "/"}}
	}
	l := &Layer{W: w, Preopens: preopens, states: make(map[*core.Process]*procState)}
	w.ExtendLinker = l.register
	return l
}

// state initializes (once per process) the preopen descriptors and the
// scratch buffer — all through WALI syscalls.
func (l *Layer) state(p *core.Process, e *interp.Exec) *procState {
	l.mu.Lock()
	st, ok := l.states[p]
	l.mu.Unlock()
	if ok {
		return st
	}
	st = &procState{preopens: make(map[int32]string)}
	// Scratch region for path termination: WALI mmap, like a real layered
	// module would allocate.
	ret := p.Syscall(e, "mmap", 0, 8192,
		int64(linux.PROT_READ|linux.PROT_WRITE),
		int64(linux.MAP_ANONYMOUS|linux.MAP_PRIVATE), -1, 0)
	if ret > 0 {
		st.scratch = uint32(ret)
		st.scratchN = 8192
	}
	for _, po := range l.Preopens {
		pathAddr, ok := st.putPath(p, po.Host)
		if !ok {
			continue
		}
		fd := p.Syscall(e, "open", int64(pathAddr), linux.O_RDONLY|linux.O_DIRECTORY, 0)
		if fd >= 0 {
			st.preopens[int32(fd)] = po.Guest
		}
	}
	l.mu.Lock()
	l.states[p] = st
	l.mu.Unlock()
	return st
}

// putPath copies a NUL-terminated string into the scratch mapping and
// returns its address.
func (st *procState) putPath(p *core.Process, s string) (uint32, bool) {
	if st.scratch == 0 || uint32(len(s))+1 > st.scratchN {
		return 0, false
	}
	buf, ok := p.Inst.Mem.Bytes(st.scratch, uint32(len(s))+1)
	if !ok {
		return 0, false
	}
	copy(buf, s)
	buf[len(s)] = 0
	return st.scratch, true
}

// guestPath reads a (ptr, len) WASI path and applies the capability
// check: the resulting path must not escape the preopen it is resolved
// against. Returns the scratch address of the NUL-terminated host path.
func (l *Layer) guestPath(p *core.Process, st *procState, dirfd int32, ptr, plen uint32) (uint32, Errno) {
	raw, ok := p.Inst.Mem.Bytes(ptr, plen)
	if !ok {
		return 0, ErrnoFault
	}
	path := string(raw)
	if strings.Contains(path, "\x00") {
		return 0, ErrnoInval
	}
	guestBase, ok := st.preopens[dirfd]
	if !ok {
		// Not a preopen: still allow fd-relative resolution via WALI,
		// but apply the escape check against "/".
		guestBase = "/"
	}
	if escapes(path) {
		return 0, ErrnoNotcapable
	}
	_ = guestBase
	addr, ok := st.putPath(p, path)
	if !ok {
		return 0, ErrnoNametoolong
	}
	return addr, ErrnoSuccess
}

// escapes reports whether a relative path walks above its root.
func escapes(path string) bool {
	depth := 0
	for _, part := range strings.Split(path, "/") {
		switch part {
		case "", ".":
		case "..":
			depth--
			if depth < 0 {
				return true
			}
		default:
			depth++
		}
	}
	return false
}

// reg is a convenience for registering one WASI function.
func (l *Layer) reg(lk *interp.Linker, name string, params, results []wasm.ValType,
	fn func(p *core.Process, st *procState, e *interp.Exec, a []uint64) uint32) {
	lk.DefineFunc(Namespace, name, params, results, func(e *interp.Exec, a []uint64) {
		p := core.ProcessFromExec(e)
		st := l.state(p, e)
		r := fn(p, st, e, a)
		if len(results) > 0 {
			a[0] = uint64(r)
		}
	})
}

var (
	i32x1 = []wasm.ValType{wasm.I32}
	i32x2 = []wasm.ValType{wasm.I32, wasm.I32}
	i32x3 = []wasm.ValType{wasm.I32, wasm.I32, wasm.I32}
	i32x4 = []wasm.ValType{wasm.I32, wasm.I32, wasm.I32, wasm.I32}
	i32x5 = []wasm.ValType{wasm.I32, wasm.I32, wasm.I32, wasm.I32, wasm.I32}
	i32x6 = []wasm.ValType{wasm.I32, wasm.I32, wasm.I32, wasm.I32, wasm.I32, wasm.I32}
	errT  = []wasm.ValType{wasm.I32}
)

// register installs the full preview1 surface.
func (l *Layer) register(lk *interp.Linker) {
	l.reg(lk, "args_sizes_get", i32x2, errT, wasiArgsSizes)
	l.reg(lk, "args_get", i32x2, errT, wasiArgsGet)
	l.reg(lk, "environ_sizes_get", i32x2, errT, wasiEnvironSizes)
	l.reg(lk, "environ_get", i32x2, errT, wasiEnvironGet)
	l.reg(lk, "clock_res_get", i32x2, errT, wasiClockRes)
	l.reg(lk, "clock_time_get", []wasm.ValType{wasm.I32, wasm.I64, wasm.I32}, errT, wasiClockTime)
	l.reg(lk, "fd_close", i32x1, errT, wasiFdClose)
	l.reg(lk, "fd_fdstat_get", i32x2, errT, wasiFdstatGet)
	l.reg(lk, "fd_fdstat_set_flags", i32x2, errT, wasiFdstatSetFlags)
	l.reg(lk, "fd_filestat_get", i32x2, errT, wasiFdFilestat)
	l.reg(lk, "fd_filestat_set_size", []wasm.ValType{wasm.I32, wasm.I64}, errT, wasiFdSetSize)
	l.reg(lk, "fd_read", i32x4, errT, wasiFdRead)
	l.reg(lk, "fd_pread", []wasm.ValType{wasm.I32, wasm.I32, wasm.I32, wasm.I64, wasm.I32}, errT, wasiFdPread)
	l.reg(lk, "fd_write", i32x4, errT, wasiFdWrite)
	l.reg(lk, "fd_pwrite", []wasm.ValType{wasm.I32, wasm.I32, wasm.I32, wasm.I64, wasm.I32}, errT, wasiFdPwrite)
	l.reg(lk, "fd_seek", []wasm.ValType{wasm.I32, wasm.I64, wasm.I32, wasm.I32}, errT, wasiFdSeek)
	l.reg(lk, "fd_tell", i32x2, errT, wasiFdTell)
	l.reg(lk, "fd_sync", i32x1, errT, wasiFdSync)
	l.reg(lk, "fd_datasync", i32x1, errT, wasiFdSync)
	l.reg(lk, "fd_advise", []wasm.ValType{wasm.I32, wasm.I64, wasm.I64, wasm.I32}, errT, wasiFdAdvise)
	l.reg(lk, "fd_readdir", []wasm.ValType{wasm.I32, wasm.I32, wasm.I32, wasm.I64, wasm.I32}, errT, wasiFdReaddir)
	l.regPrestat(lk)
	l.regPaths(lk)
	l.reg(lk, "poll_oneoff", i32x4, errT, wasiPollOneoff)
	lk.DefineFunc(Namespace, "proc_exit", i32x1, nil, func(e *interp.Exec, a []uint64) {
		panic(&interp.Exit{Status: int32(uint32(a[0]))})
	})
	l.reg(lk, "random_get", i32x2, errT, wasiRandomGet)
	l.reg(lk, "sched_yield", nil, errT, wasiSchedYield)
}

func (l *Layer) regPrestat(lk *interp.Linker) {
	l.reg(lk, "fd_prestat_get", i32x2, errT,
		func(p *core.Process, st *procState, e *interp.Exec, a []uint64) uint32 {
			fd := int32(uint32(a[0]))
			guest, ok := st.preopens[fd]
			if !ok {
				return uint32(ErrnoBadf)
			}
			buf, ok2 := p.Inst.Mem.Bytes(uint32(a[1]), 8)
			if !ok2 {
				return uint32(ErrnoFault)
			}
			buf[0] = 0 // preopentype dir
			le.PutUint32(buf[4:], uint32(len(guest)))
			return 0
		})
	l.reg(lk, "fd_prestat_dir_name", i32x3, errT,
		func(p *core.Process, st *procState, e *interp.Exec, a []uint64) uint32 {
			fd := int32(uint32(a[0]))
			guest, ok := st.preopens[fd]
			if !ok {
				return uint32(ErrnoBadf)
			}
			buf, ok2 := p.Inst.Mem.Bytes(uint32(a[1]), uint32(a[2]))
			if !ok2 {
				return uint32(ErrnoFault)
			}
			copy(buf, guest)
			return 0
		})
}

func (l *Layer) regPaths(lk *interp.Linker) {
	l.reg(lk, "path_open",
		[]wasm.ValType{wasm.I32, wasm.I32, wasm.I32, wasm.I32, wasm.I32, wasm.I64, wasm.I64, wasm.I32, wasm.I32},
		errT, l.pathOpen)
	l.reg(lk, "path_create_directory", i32x3, errT, l.pathMkdir)
	l.reg(lk, "path_remove_directory", i32x3, errT, l.pathRmdir)
	l.reg(lk, "path_unlink_file", i32x3, errT, l.pathUnlink)
	l.reg(lk, "path_filestat_get", i32x5, errT, l.pathFilestat)
	l.reg(lk, "path_readlink", i32x6, errT, l.pathReadlink)
	l.reg(lk, "path_rename", i32x6, errT, l.pathRename)
	l.reg(lk, "path_symlink", i32x5, errT, l.pathSymlink)
}

// --- args / environ ---

func wasiArgsSizes(p *core.Process, st *procState, e *interp.Exec, a []uint64) uint32 {
	argv := p.Argv()
	total := 0
	for _, s := range argv {
		total += len(s) + 1
	}
	mem := p.Inst.Mem
	if !mem.WriteU32(uint32(a[0]), uint32(len(argv))) || !mem.WriteU32(uint32(a[1]), uint32(total)) {
		return uint32(ErrnoFault)
	}
	return 0
}

func wasiArgsGet(p *core.Process, st *procState, e *interp.Exec, a []uint64) uint32 {
	return strVecGet(p, p.Argv(), uint32(a[0]), uint32(a[1]))
}

func wasiEnvironSizes(p *core.Process, st *procState, e *interp.Exec, a []uint64) uint32 {
	env := p.Env()
	total := 0
	for _, s := range env {
		total += len(s) + 1
	}
	mem := p.Inst.Mem
	if !mem.WriteU32(uint32(a[0]), uint32(len(env))) || !mem.WriteU32(uint32(a[1]), uint32(total)) {
		return uint32(ErrnoFault)
	}
	return 0
}

func wasiEnvironGet(p *core.Process, st *procState, e *interp.Exec, a []uint64) uint32 {
	return strVecGet(p, p.Env(), uint32(a[0]), uint32(a[1]))
}

func strVecGet(p *core.Process, vec []string, ptrs, buf uint32) uint32 {
	mem := p.Inst.Mem
	off := buf
	for i, s := range vec {
		if !mem.WriteU32(ptrs+uint32(i)*4, off) {
			return uint32(ErrnoFault)
		}
		b, ok := mem.Bytes(off, uint32(len(s))+1)
		if !ok {
			return uint32(ErrnoFault)
		}
		copy(b, s)
		b[len(s)] = 0
		off += uint32(len(s)) + 1
	}
	return 0
}

// --- clocks ---

func wasiClockRes(p *core.Process, st *procState, e *interp.Exec, a []uint64) uint32 {
	if !p.Inst.Mem.WriteU64(uint32(a[1]), 1) {
		return uint32(ErrnoFault)
	}
	return 0
}

func wasiClockTime(p *core.Process, st *procState, e *interp.Exec, a []uint64) uint32 {
	clock := int64(linux.CLOCK_REALTIME)
	if uint32(a[0]) == ClockMonotonic {
		clock = linux.CLOCK_MONOTONIC
	}
	// Through WALI: clock_gettime writes a timespec into scratch.
	if st.scratch == 0 {
		return uint32(ErrnoNosys)
	}
	ret := p.Syscall(e, "clock_gettime", clock, int64(st.scratch))
	if ret < 0 {
		return uint32(fromRet(ret))
	}
	sec, _ := p.Inst.Mem.ReadU64(st.scratch)
	nsec, _ := p.Inst.Mem.ReadU64(st.scratch + 8)
	if !p.Inst.Mem.WriteU64(uint32(a[2]), sec*1e9+nsec) {
		return uint32(ErrnoFault)
	}
	return 0
}

// --- fd ops ---

func wasiFdClose(p *core.Process, st *procState, e *interp.Exec, a []uint64) uint32 {
	return uint32(fromRet(p.Syscall(e, "close", int64(int32(uint32(a[0]))))))
}

func wasiFdstatGet(p *core.Process, st *procState, e *interp.Exec, a []uint64) uint32 {
	fd := int64(int32(uint32(a[0])))
	if st.scratch == 0 {
		return uint32(ErrnoNosys)
	}
	ret := p.Syscall(e, "fstat", fd, int64(st.scratch))
	if ret < 0 {
		return uint32(fromRet(ret))
	}
	mode, _ := p.Inst.Mem.ReadU32(st.scratch + 20)
	flags := p.Syscall(e, "fcntl", fd, linux.F_GETFL, 0)
	buf, ok := p.Inst.Mem.Bytes(uint32(a[1]), 24)
	if !ok {
		return uint32(ErrnoFault)
	}
	zero24(buf)
	buf[0] = filetypeFromMode(mode)
	var fdflags uint16
	if flags >= 0 {
		if flags&linux.O_APPEND != 0 {
			fdflags |= FdflagAppend
		}
		if flags&linux.O_NONBLOCK != 0 {
			fdflags |= FdflagNonblock
		}
	}
	le.PutUint16(buf[2:], fdflags)
	le.PutUint64(buf[8:], ^uint64(0))  // rights: everything
	le.PutUint64(buf[16:], ^uint64(0)) // inheriting: everything
	return 0
}

func zero24(b []byte) {
	for i := 0; i < 24 && i < len(b); i++ {
		b[i] = 0
	}
}

func wasiFdstatSetFlags(p *core.Process, st *procState, e *interp.Exec, a []uint64) uint32 {
	var fl int64
	if uint32(a[1])&FdflagAppend != 0 {
		fl |= linux.O_APPEND
	}
	if uint32(a[1])&FdflagNonblock != 0 {
		fl |= linux.O_NONBLOCK
	}
	return uint32(fromRet(p.Syscall(e, "fcntl", int64(int32(uint32(a[0]))), linux.F_SETFL, fl)))
}

// putFilestat converts the kstat in scratch to a WASI filestat at out.
func putFilestat(p *core.Process, st *procState, out uint32) uint32 {
	mem := p.Inst.Mem
	buf, ok := mem.Bytes(out, 64)
	if !ok {
		return uint32(ErrnoFault)
	}
	dev, _ := mem.ReadU64(st.scratch + 0)
	ino, _ := mem.ReadU64(st.scratch + 8)
	nlink, _ := mem.ReadU32(st.scratch + 16)
	mode, _ := mem.ReadU32(st.scratch + 20)
	size, _ := mem.ReadU64(st.scratch + 40)
	atS, _ := mem.ReadU64(st.scratch + 64)
	atN, _ := mem.ReadU64(st.scratch + 72)
	mtS, _ := mem.ReadU64(st.scratch + 80)
	mtN, _ := mem.ReadU64(st.scratch + 88)
	ctS, _ := mem.ReadU64(st.scratch + 96)
	ctN, _ := mem.ReadU64(st.scratch + 104)
	le.PutUint64(buf[0:], dev)
	le.PutUint64(buf[8:], ino)
	buf[16] = filetypeFromMode(mode)
	for i := 17; i < 24; i++ {
		buf[i] = 0
	}
	le.PutUint64(buf[24:], uint64(nlink))
	le.PutUint64(buf[32:], size)
	le.PutUint64(buf[40:], atS*1e9+atN)
	le.PutUint64(buf[48:], mtS*1e9+mtN)
	le.PutUint64(buf[56:], ctS*1e9+ctN)
	return 0
}

func wasiFdFilestat(p *core.Process, st *procState, e *interp.Exec, a []uint64) uint32 {
	if st.scratch == 0 {
		return uint32(ErrnoNosys)
	}
	ret := p.Syscall(e, "fstat", int64(int32(uint32(a[0]))), int64(st.scratch))
	if ret < 0 {
		return uint32(fromRet(ret))
	}
	return putFilestat(p, st, uint32(a[1]))
}

func wasiFdSetSize(p *core.Process, st *procState, e *interp.Exec, a []uint64) uint32 {
	return uint32(fromRet(p.Syscall(e, "ftruncate", int64(int32(uint32(a[0]))), int64(a[1]))))
}

func wasiFdRead(p *core.Process, st *procState, e *interp.Exec, a []uint64) uint32 {
	ret := p.Syscall(e, "readv", int64(int32(uint32(a[0]))), int64(uint32(a[1])), int64(uint32(a[2])))
	if ret < 0 {
		return uint32(fromRet(ret))
	}
	if !p.Inst.Mem.WriteU32(uint32(a[3]), uint32(ret)) {
		return uint32(ErrnoFault)
	}
	return 0
}

func wasiFdWrite(p *core.Process, st *procState, e *interp.Exec, a []uint64) uint32 {
	ret := p.Syscall(e, "writev", int64(int32(uint32(a[0]))), int64(uint32(a[1])), int64(uint32(a[2])))
	if ret < 0 {
		return uint32(fromRet(ret))
	}
	if !p.Inst.Mem.WriteU32(uint32(a[3]), uint32(ret)) {
		return uint32(ErrnoFault)
	}
	return 0
}

// preadIovs runs pread64 over an iovec array at a file offset.
func preadIovs(p *core.Process, e *interp.Exec, fd int64, iovs, cnt uint32, off int64, write bool) (int64, Errno) {
	total := int64(0)
	for i := uint32(0); i < cnt; i++ {
		base, ok1 := p.Inst.Mem.ReadU32(iovs + i*8)
		ln, ok2 := p.Inst.Mem.ReadU32(iovs + i*8 + 4)
		if !ok1 || !ok2 {
			return 0, ErrnoFault
		}
		if ln == 0 {
			continue
		}
		var ret int64
		if write {
			ret = p.Syscall(e, "pwrite64", fd, int64(base), int64(ln), off+total)
		} else {
			ret = p.Syscall(e, "pread64", fd, int64(base), int64(ln), off+total)
		}
		if ret < 0 {
			if total > 0 {
				break
			}
			return 0, fromRet(ret)
		}
		total += ret
		if ret < int64(ln) {
			break
		}
	}
	return total, ErrnoSuccess
}

func wasiFdPread(p *core.Process, st *procState, e *interp.Exec, a []uint64) uint32 {
	n, errno := preadIovs(p, e, int64(int32(uint32(a[0]))), uint32(a[1]), uint32(a[2]), int64(a[3]), false)
	if errno != 0 {
		return uint32(errno)
	}
	if !p.Inst.Mem.WriteU32(uint32(a[4]), uint32(n)) {
		return uint32(ErrnoFault)
	}
	return 0
}

func wasiFdPwrite(p *core.Process, st *procState, e *interp.Exec, a []uint64) uint32 {
	n, errno := preadIovs(p, e, int64(int32(uint32(a[0]))), uint32(a[1]), uint32(a[2]), int64(a[3]), true)
	if errno != 0 {
		return uint32(errno)
	}
	if !p.Inst.Mem.WriteU32(uint32(a[4]), uint32(n)) {
		return uint32(ErrnoFault)
	}
	return 0
}

func wasiFdSeek(p *core.Process, st *procState, e *interp.Exec, a []uint64) uint32 {
	ret := p.Syscall(e, "lseek", int64(int32(uint32(a[0]))), int64(a[1]), int64(uint32(a[2])))
	if ret < 0 {
		return uint32(fromRet(ret))
	}
	if !p.Inst.Mem.WriteU64(uint32(a[3]), uint64(ret)) {
		return uint32(ErrnoFault)
	}
	return 0
}

func wasiFdTell(p *core.Process, st *procState, e *interp.Exec, a []uint64) uint32 {
	ret := p.Syscall(e, "lseek", int64(int32(uint32(a[0]))), 0, linux.SEEK_CUR)
	if ret < 0 {
		return uint32(fromRet(ret))
	}
	if !p.Inst.Mem.WriteU64(uint32(a[1]), uint64(ret)) {
		return uint32(ErrnoFault)
	}
	return 0
}

func wasiFdSync(p *core.Process, st *procState, e *interp.Exec, a []uint64) uint32 {
	return uint32(fromRet(p.Syscall(e, "fsync", int64(int32(uint32(a[0]))))))
}

func wasiFdAdvise(p *core.Process, st *procState, e *interp.Exec, a []uint64) uint32 {
	if _, errno := p.KP.FDs.Get(int32(uint32(a[0]))); errno != 0 {
		return uint32(fromLinux(errno))
	}
	return 0
}

func wasiFdReaddir(p *core.Process, st *procState, e *interp.Exec, a []uint64) uint32 {
	fd := int64(int32(uint32(a[0])))
	bufAddr := uint32(a[1])
	bufLen := uint32(a[2])
	cookie := a[3]
	// Rewind then skip `cookie` entries: simple and correct for the
	// modest directory sizes in the simulated FS.
	if ret := p.Syscall(e, "lseek", fd, 0, linux.SEEK_SET); ret < 0 {
		return uint32(fromRet(ret))
	}
	ret := p.Syscall(e, "getdents64", fd, int64(st.scratch), int64(st.scratchN))
	if ret < 0 {
		return uint32(fromRet(ret))
	}
	out, ok := p.Inst.Mem.Bytes(bufAddr, bufLen)
	if !ok {
		return uint32(ErrnoFault)
	}
	raw, _ := p.Inst.Mem.Bytes(st.scratch, uint32(ret))
	used := 0
	idx := uint64(0)
	off := 0
	for off < len(raw) {
		ino := le.Uint64(raw[off:])
		recLen := int(le.Uint16(raw[off+16:]))
		dtype := raw[off+18]
		name := raw[off+19 : off+recLen]
		if i := strings.IndexByte(string(name), 0); i >= 0 {
			name = name[:i]
		}
		off += recLen
		idx++
		if idx <= cookie {
			continue
		}
		need := 24 + len(name)
		if used+need > len(out) {
			// Partial fill: truncated final entry signals "buffer full".
			used = len(out)
			break
		}
		le.PutUint64(out[used:], idx)
		le.PutUint64(out[used+8:], ino)
		le.PutUint32(out[used+16:], uint32(len(name)))
		out[used+20] = wasiDirentType(dtype)
		out[used+21] = 0
		out[used+22] = 0
		out[used+23] = 0
		copy(out[used+24:], name)
		used += need
	}
	if !p.Inst.Mem.WriteU32(uint32(a[4]), uint32(used)) {
		return uint32(ErrnoFault)
	}
	return 0
}

func wasiDirentType(dt byte) byte {
	switch dt {
	case linux.DT_REG:
		return FiletypeRegularFile
	case linux.DT_DIR:
		return FiletypeDirectory
	case linux.DT_LNK:
		return FiletypeSymlink
	case linux.DT_CHR:
		return FiletypeCharDevice
	case linux.DT_SOCK:
		return FiletypeSocketStream
	}
	return FiletypeUnknown
}

// --- path ops ---

func (l *Layer) pathOpen(p *core.Process, st *procState, e *interp.Exec, a []uint64) uint32 {
	dirfd := int32(uint32(a[0]))
	pathAddr, errno := l.guestPath(p, st, dirfd, uint32(a[2]), uint32(a[3]))
	if errno != 0 {
		return uint32(errno)
	}
	oflags := uint32(a[4])
	rights := a[5]
	fdflags := uint32(a[7])

	var flags int64
	readable := rights&RightFdRead != 0
	writable := rights&RightFdWrite != 0
	switch {
	case readable && writable, rights == 0:
		flags = linux.O_RDWR
	case writable:
		flags = linux.O_WRONLY
	default:
		flags = linux.O_RDONLY
	}
	if oflags&OflagCreat != 0 {
		flags |= linux.O_CREAT
		if flags&linux.O_ACCMODE == linux.O_RDONLY {
			flags = flags&^int64(linux.O_ACCMODE) | linux.O_RDWR
		}
	}
	if oflags&OflagExcl != 0 {
		flags |= linux.O_EXCL
	}
	if oflags&OflagTrunc != 0 {
		flags |= linux.O_TRUNC
		if flags&linux.O_ACCMODE == linux.O_RDONLY {
			flags = flags&^int64(linux.O_ACCMODE) | linux.O_RDWR
		}
	}
	if oflags&OflagDirectory != 0 {
		flags |= linux.O_DIRECTORY
	}
	if fdflags&FdflagAppend != 0 {
		flags |= linux.O_APPEND
	}
	if fdflags&FdflagNonblock != 0 {
		flags |= linux.O_NONBLOCK
	}
	ret := p.Syscall(e, "openat", int64(dirfd), int64(pathAddr), flags, 0o644)
	if ret < 0 {
		return uint32(fromRet(ret))
	}
	if !p.Inst.Mem.WriteU32(uint32(a[8]), uint32(ret)) {
		p.Syscall(e, "close", ret)
		return uint32(ErrnoFault)
	}
	return 0
}

func (l *Layer) pathMkdir(p *core.Process, st *procState, e *interp.Exec, a []uint64) uint32 {
	dirfd := int32(uint32(a[0]))
	addr, errno := l.guestPath(p, st, dirfd, uint32(a[1]), uint32(a[2]))
	if errno != 0 {
		return uint32(errno)
	}
	return uint32(fromRet(p.Syscall(e, "mkdirat", int64(dirfd), int64(addr), 0o755)))
}

func (l *Layer) pathRmdir(p *core.Process, st *procState, e *interp.Exec, a []uint64) uint32 {
	dirfd := int32(uint32(a[0]))
	addr, errno := l.guestPath(p, st, dirfd, uint32(a[1]), uint32(a[2]))
	if errno != 0 {
		return uint32(errno)
	}
	return uint32(fromRet(p.Syscall(e, "unlinkat", int64(dirfd), int64(addr), linux.AT_REMOVEDIR)))
}

func (l *Layer) pathUnlink(p *core.Process, st *procState, e *interp.Exec, a []uint64) uint32 {
	dirfd := int32(uint32(a[0]))
	addr, errno := l.guestPath(p, st, dirfd, uint32(a[1]), uint32(a[2]))
	if errno != 0 {
		return uint32(errno)
	}
	return uint32(fromRet(p.Syscall(e, "unlinkat", int64(dirfd), int64(addr), 0)))
}

func (l *Layer) pathFilestat(p *core.Process, st *procState, e *interp.Exec, a []uint64) uint32 {
	dirfd := int32(uint32(a[0]))
	lookupFlags := uint32(a[1])
	addr, errno := l.guestPath(p, st, dirfd, uint32(a[2]), uint32(a[3]))
	if errno != 0 {
		return uint32(errno)
	}
	// newfstatat(dirfd, path, statbuf, flags): kstat into scratch+4096.
	statAddr := st.scratch + 4096
	var atFlags int64
	if lookupFlags&1 == 0 { // LOOKUP_SYMLINK_FOLLOW not set
		atFlags = linux.AT_SYMLINK_NOFOLLOW
	}
	ret := p.Syscall(e, "newfstatat", int64(dirfd), int64(addr), int64(statAddr), atFlags)
	if ret < 0 {
		return uint32(fromRet(ret))
	}
	saved := st.scratch
	st.scratch = statAddr
	r := putFilestat(p, st, uint32(a[4]))
	st.scratch = saved
	return r
}

func (l *Layer) pathReadlink(p *core.Process, st *procState, e *interp.Exec, a []uint64) uint32 {
	dirfd := int32(uint32(a[0]))
	addr, errno := l.guestPath(p, st, dirfd, uint32(a[1]), uint32(a[2]))
	if errno != 0 {
		return uint32(errno)
	}
	ret := p.Syscall(e, "readlinkat", int64(dirfd), int64(addr), int64(uint32(a[3])), int64(uint32(a[4])))
	if ret < 0 {
		return uint32(fromRet(ret))
	}
	if !p.Inst.Mem.WriteU32(uint32(a[5]), uint32(ret)) {
		return uint32(ErrnoFault)
	}
	return 0
}

func (l *Layer) pathRename(p *core.Process, st *procState, e *interp.Exec, a []uint64) uint32 {
	oldFd := int32(uint32(a[0]))
	// Two paths share the scratch buffer: second goes at +2048.
	oldAddr, errno := l.guestPath(p, st, oldFd, uint32(a[1]), uint32(a[2]))
	if errno != 0 {
		return uint32(errno)
	}
	newFd := int32(uint32(a[3]))
	raw, ok := p.Inst.Mem.Bytes(uint32(a[4]), uint32(a[5]))
	if !ok {
		return uint32(ErrnoFault)
	}
	if escapes(string(raw)) {
		return uint32(ErrnoNotcapable)
	}
	newAddr := st.scratch + 2048
	nb, ok := p.Inst.Mem.Bytes(newAddr, uint32(len(raw))+1)
	if !ok {
		return uint32(ErrnoFault)
	}
	copy(nb, raw)
	nb[len(raw)] = 0
	return uint32(fromRet(p.Syscall(e, "renameat", int64(oldFd), int64(oldAddr), int64(newFd), int64(newAddr))))
}

func (l *Layer) pathSymlink(p *core.Process, st *procState, e *interp.Exec, a []uint64) uint32 {
	// path_symlink(old_ptr, old_len, fd, new_ptr, new_len)
	raw, ok := p.Inst.Mem.Bytes(uint32(a[0]), uint32(a[1]))
	if !ok {
		return uint32(ErrnoFault)
	}
	oldAddr := st.scratch + 2048
	ob, ok := p.Inst.Mem.Bytes(oldAddr, uint32(len(raw))+1)
	if !ok {
		return uint32(ErrnoFault)
	}
	copy(ob, raw)
	ob[len(raw)] = 0
	dirfd := int32(uint32(a[2]))
	newAddr, errno := l.guestPath(p, st, dirfd, uint32(a[3]), uint32(a[4]))
	if errno != 0 {
		return uint32(errno)
	}
	return uint32(fromRet(p.Syscall(e, "symlinkat", int64(oldAddr), int64(dirfd), int64(newAddr))))
}

// --- poll / misc ---

func wasiPollOneoff(p *core.Process, st *procState, e *interp.Exec, a []uint64) uint32 {
	nsubs := uint32(a[2])
	if nsubs == 0 {
		return uint32(ErrnoInval)
	}
	subs, ok := p.Inst.Mem.Bytes(uint32(a[0]), nsubs*48)
	if !ok {
		return uint32(ErrnoFault)
	}
	events, ok := p.Inst.Mem.Bytes(uint32(a[1]), nsubs*32)
	if !ok {
		return uint32(ErrnoFault)
	}
	nevents := 0
	emit := func(userdata uint64, typ byte, errno Errno, n uint64) {
		out := events[nevents*32:]
		le.PutUint64(out[0:], userdata)
		le.PutUint16(out[8:], uint16(errno))
		out[10] = typ
		le.PutUint64(out[16:], n)
		nevents++
	}
	// Clock-only subscriptions sleep; fd subscriptions go through WALI
	// poll with the minimum clock timeout.
	minTimeout := int64(-1)
	var clockSubs []int
	type fdSub struct {
		idx  int
		fd   int32
		read bool
	}
	var fdSubs []fdSub
	for i := uint32(0); i < nsubs; i++ {
		s := subs[i*48:]
		tag := s[8]
		switch tag {
		case 0: // clock
			timeout := int64(le.Uint64(s[24:]))
			flags := le.Uint16(s[40:])
			if flags&1 != 0 { // abstime
				now := p.Syscall(e, "clock_gettime", linux.CLOCK_MONOTONIC, int64(st.scratch))
				_ = now
				sec, _ := p.Inst.Mem.ReadU64(st.scratch)
				nsec, _ := p.Inst.Mem.ReadU64(st.scratch + 8)
				timeout -= int64(sec*1e9 + nsec)
				if timeout < 0 {
					timeout = 0
				}
			}
			if minTimeout < 0 || timeout < minTimeout {
				minTimeout = timeout
			}
			clockSubs = append(clockSubs, int(i))
		case 1, 2: // fd_read, fd_write
			fd := int32(le.Uint32(s[16:]))
			fdSubs = append(fdSubs, fdSub{idx: int(i), fd: fd, read: tag == 1})
		}
	}
	if len(fdSubs) == 0 {
		// Pure timer: nanosleep through WALI.
		if minTimeout > 0 {
			p.Inst.Mem.WriteU64(st.scratch, uint64(minTimeout/1e9))
			p.Inst.Mem.WriteU64(st.scratch+8, uint64(minTimeout%1e9))
			p.Syscall(e, "nanosleep", int64(st.scratch), 0)
		}
		for _, ci := range clockSubs {
			s := subs[ci*48:]
			emit(le.Uint64(s[0:]), 0, ErrnoSuccess, 0)
		}
		if !p.Inst.Mem.WriteU32(uint32(a[3]), uint32(nevents)) {
			return uint32(ErrnoFault)
		}
		return 0
	}
	// Build a pollfd array in scratch (+3072).
	pfdAddr := st.scratch + 3072
	for i, fs := range fdSubs {
		buf, ok := p.Inst.Mem.Bytes(pfdAddr+uint32(i)*8, 8)
		if !ok {
			return uint32(ErrnoFault)
		}
		le.PutUint32(buf[0:], uint32(fs.fd))
		ev := uint16(linux.POLLIN)
		if !fs.read {
			ev = linux.POLLOUT
		}
		le.PutUint16(buf[4:], ev)
		le.PutUint16(buf[6:], 0)
	}
	ms := int64(-1)
	if minTimeout >= 0 {
		ms = minTimeout / 1e6
	}
	ret := p.Syscall(e, "poll", int64(pfdAddr), int64(len(fdSubs)), ms)
	if ret < 0 {
		return uint32(fromRet(ret))
	}
	for i, fs := range fdSubs {
		buf, _ := p.Inst.Mem.Bytes(pfdAddr+uint32(i)*8, 8)
		revents := le.Uint16(buf[6:])
		if revents == 0 {
			continue
		}
		s := subs[fs.idx*48:]
		typ := byte(1)
		if !fs.read {
			typ = 2
		}
		var n uint64
		if fs.read {
			n = 1 // at least one byte readable
		}
		emit(le.Uint64(s[0:]), typ, ErrnoSuccess, n)
	}
	if ret == 0 {
		// Timed out: report clock completions.
		for _, ci := range clockSubs {
			s := subs[ci*48:]
			emit(le.Uint64(s[0:]), 0, ErrnoSuccess, 0)
		}
	}
	if !p.Inst.Mem.WriteU32(uint32(a[3]), uint32(nevents)) {
		return uint32(ErrnoFault)
	}
	return 0
}

func wasiRandomGet(p *core.Process, st *procState, e *interp.Exec, a []uint64) uint32 {
	return uint32(fromRet(p.Syscall(e, "getrandom", int64(uint32(a[0])), int64(uint32(a[1])), 0)))
}

func wasiSchedYield(p *core.Process, st *procState, e *interp.Exec, a []uint64) uint32 {
	return uint32(fromRet(p.Syscall(e, "sched_yield")))
}
