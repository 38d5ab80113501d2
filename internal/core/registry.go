package core

import (
	"encoding/binary"
	"strings"
	"sync"
	"time"

	"gowali/internal/interp"
	"gowali/internal/isa"
	"gowali/internal/linux"
	"gowali/internal/wasm"
)

// MaxArgs is the Linux syscall argument limit.
const MaxArgs = 6

// Args holds a syscall's raw i64 arguments; slots past the syscall's
// arity are zero. It travels by value: dispatch converts the operand-stack
// view into one without touching the heap, and a handler that re-enters
// the interpreter (signal delivery) or starts a goroutine (clone) cannot
// have its arguments clobbered by the nested call.
type Args [MaxArgs]int64

// HandlerFn is a WALI syscall handler. The return value follows the Linux
// convention (negative -errno on failure).
type HandlerFn func(p *Process, e *interp.Exec, a Args) int64

// SyscallDef describes one WALI syscall: its name-bound identity, arity,
// whether the handler keeps engine-side state (Table 2's "State" column),
// and whether it is pure passthrough — i.e. auto-generatable from steps
// (1)-(3) of the §5 recipe (enumerate + translate addresses + convert
// layouts), with no process-model or memory-model bridging.
type SyscallDef struct {
	Name        string
	NArgs       int
	Stateful    bool
	Passthrough bool
	Fn          HandlerFn
}

var le = binary.LittleEndian

// errnoRet converts a kernel errno to the syscall return convention.
func errnoRet(e linux.Errno) int64 { return -int64(e) }

// retN folds an (n, errno) kernel result into one return value.
func retN(n int, errno linux.Errno) int64 {
	if errno != 0 {
		return errnoRet(errno)
	}
	return int64(n)
}

func ret64(n int64, errno linux.Errno) int64 {
	if errno != 0 {
		return errnoRet(errno)
	}
	return n
}

// registry is the complete WALI syscall specification: the union across
// ISAs (§3.5), name-bound with static signatures.
var registry = map[string]*SyscallDef{}

func def(name string, nargs int, stateful, passthrough bool, fn HandlerFn) {
	registry[name] = &SyscallDef{
		Name: name, NArgs: nargs, Stateful: stateful, Passthrough: passthrough, Fn: fn,
	}
}

// Registry exposes the syscall table (read-only by convention).
func Registry() map[string]*SyscallDef { return registry }

// PassthroughRatio reports the fraction of implemented syscalls that are
// pure passthrough — the recipe's ">85% auto-generated" accounting.
func PassthroughRatio() float64 {
	n, pt := 0, 0
	for _, d := range registry {
		n++
		if d.Passthrough {
			pt++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(pt) / float64(n)
}

// i64s returns an n-length []wasm.ValType of i64.
func i64s(n int) []wasm.ValType {
	out := make([]wasm.ValType, n)
	for i := range out {
		out[i] = wasm.I64
	}
	return out
}

// knownSyscalls is the set of names that are a Linux syscall on some ISA,
// computed once: merging and sorting every ISA table is far too much work
// to repeat per process start.
var knownSyscalls = sync.OnceValue(func() map[string]bool {
	known := make(map[string]bool)
	for _, s := range isa.Union() {
		known[s] = true
	}
	return known
})

// hostFuncs is the WALI import surface keyed by import name: SYS_<name>
// for every registry entry plus the §3.4 external-parameter methods. It
// is built once per process and never written again. Host functions find
// their process, and through it their engine, in Exec.HostCtx, so one
// table serves every engine — rebuilding ~150 closures and map entries
// per process start used to be half the cost of starting a small guest.
var hostFuncs = sync.OnceValue(func() map[string]interp.HostFunc {
	t := make(map[string]interp.HostFunc, len(registry)+6)
	def := func(name string, params, results []wasm.ValType, fn func(*interp.Exec, []uint64)) {
		t[name] = interp.HostFunc{Type: wasm.FuncType{Params: params, Results: results}, Fn: fn}
	}
	res := []wasm.ValType{wasm.I64}
	for name, d := range registry {
		d := d
		def("SYS_"+name, i64s(d.NArgs), res, func(e *interp.Exec, stack []uint64) {
			var a Args
			for i, v := range stack[:d.NArgs] {
				a[i] = int64(v)
			}
			stack[0] = uint64(fromExec(e).dispatch(d, e, a))
		})
	}
	defArgvEnv(def)
	return t
})

// RegisterHost makes every WALI host function resolvable through the
// linker: the syscall surface plus the §3.4 external-parameter methods.
// Unknown names that are valid Linux syscalls on some ISA resolve to
// -ENOSYS stubs (or traps under Strict), so the import section always
// links. The functions come from the process-wide table by way of the
// linker's Fallback; nothing is copied into l.
func (w *WALI) RegisterHost(l *interp.Linker) {
	table, known := hostFuncs(), knownSyscalls()
	l.Fallback = func(module, name string, ft wasm.FuncType) (interp.HostFunc, bool) {
		if module != Namespace {
			return interp.HostFunc{}, false
		}
		if hf, ok := table[name]; ok {
			return hf, true
		}
		sys, ok := strings.CutPrefix(name, "SYS_")
		if !ok || !known[sys] {
			return interp.HostFunc{}, false
		}
		return interp.HostFunc{Type: ft, Fn: func(e *interp.Exec, stack []uint64) {
			if w.Strict {
				interp.Throw(interp.TrapHost, "wali: syscall %s not supported on this platform", sys)
			}
			if len(ft.Results) > 0 {
				stack[0] = uint64(errnoRet(linux.ENOSYS))
			}
		}}, true
	}
}

// hostLinker returns the linker every process of this engine instantiates
// against — the WALI host functions plus ExtendLinker's namespaces — built
// at the first process start and read-only afterwards.
func (w *WALI) hostLinker() *interp.Linker {
	w.linkerOnce.Do(func() {
		w.linker = interp.NewLinker()
		w.RegisterHost(w.linker)
		if w.ExtendLinker != nil {
			w.ExtendLinker(w.linker)
		}
	})
	return w.linker
}

// dispatch is the one WALI syscall wrapper: module imports, Process.Syscall
// and through it the layered APIs all funnel here. With no consumer armed
// at call time it bumps the process's syscall count, runs the handler and
// delivers a pending fatal signal — no clock read, no allocation, no
// deferred closure. The count is taken before the handler because exit and
// execve unwind by panic.
func (p *Process) dispatch(d *SyscallDef, e *interp.Exec, a Args) int64 {
	var ret int64
	if p.W.armed() {
		ret = p.dispatchTimed(d, e, a)
	} else {
		p.stats.n.Add(1)
		ret = d.Fn(p, e, a)
	}
	// Linux delivers pending signals on the return to userspace; without
	// this, a fatal signal that interrupted the syscall (EINTR) could be
	// outrun by straight-line guest code — close/exit with no safepoint
	// back-edge — and the kill status lost. Only dispositions that
	// terminate are acted on here; handler-backed signals stay queued for
	// the next safepoint, which may reenter Wasm safely.
	if sig, fatal := p.KP.PendingFatal(); fatal {
		panic(&interp.Exit{Status: 128 + sig})
	}
	return ret
}

// dispatchTimed is dispatch with a consumer armed: the handler is
// bracketed by clock reads and every sink is fed, through panics too —
// exit/execve unwind the interpreter, but Fig. 2 profiles must still see
// them. It is a function of its own so that what it needs — a copy of a
// on the heap (the strace formatter lets it escape) and a deferred
// closure — is never set up on the disarmed path.
func (p *Process) dispatchTimed(d *SyscallDef, e *interp.Exec, a Args) (ret int64) {
	w := p.W
	entry := p.straceEntry(d.Name, a[:d.NArgs])
	start := time.Now()
	defer func() {
		dur := time.Since(start)
		p.stats.add(dur)
		w.emitSyscall(p.KP.PID, d.Name, dur, ret)
		w.observeSyscall(p.KP.PID, d.Name, dur, ret)
		p.straceExit(entry, ret, dur)
	}()
	return d.Fn(p, e, a)
}

// defArgvEnv defines the §3.4 support methods: the standard library owns
// the argument/environment buffers; the engine only copies into the
// sandbox on request, so parser overflows stay contained.
func defArgvEnv(def func(name string, params, results []wasm.ValType, fn func(*interp.Exec, []uint64))) {
	i32 := []wasm.ValType{wasm.I32}
	i32i32 := []wasm.ValType{wasm.I32, wasm.I32}

	// vecLen and vecCopy serve argv and env alike; sel picks the vector.
	vecLen := func(sel func(*Process) []string) func(*interp.Exec, []uint64) {
		return func(e *interp.Exec, stack []uint64) {
			v := sel(fromExec(e))
			i := int(uint32(stack[0]))
			if i < 0 || i >= len(v) {
				stack[0] = 0
				return
			}
			stack[0] = uint64(uint32(len(v[i]) + 1))
		}
	}
	vecCopy := func(sel func(*Process) []string) func(*interp.Exec, []uint64) {
		return func(e *interp.Exec, stack []uint64) {
			p := fromExec(e)
			v := sel(p)
			buf := uint32(stack[0])
			i := int(uint32(stack[1]))
			stack[0] = 0xFFFFFFFF
			if i < 0 || i >= len(v) {
				return
			}
			s := v[i]
			mem, ok := p.Inst.Mem.Bytes(buf, uint32(len(s)+1))
			if !ok {
				return
			}
			copy(mem, s)
			mem[len(s)] = 0
			stack[0] = uint64(uint32(len(s) + 1))
		}
	}
	argv := func(p *Process) []string { return p.argv }
	env := func(p *Process) []string { return p.env }

	def("get_argc", nil, i32, func(e *interp.Exec, stack []uint64) {
		stack[0] = uint64(uint32(len(fromExec(e).argv)))
	})
	def("get_argv_len", i32, i32, vecLen(argv))
	def("copy_argv", i32i32, i32, vecCopy(argv))
	def("get_envc", nil, i32, func(e *interp.Exec, stack []uint64) {
		stack[0] = uint64(uint32(len(fromExec(e).env)))
	})
	def("get_env_len", i32, i32, vecLen(env))
	def("copy_env", i32i32, i32, vecCopy(env))
}

// ImportSyscall is the toolchain-side helper: it declares the WALI import
// for name on a module builder with the correct arity. Apps in
// internal/apps "compile against" WALI through this, like the paper's
// custom clang target.
func ImportSyscall(b *wasm.Builder, name string) uint32 {
	d, ok := registry[name]
	nargs := MaxArgs
	if ok {
		nargs = d.NArgs
	}
	return b.ImportFunc(Namespace, "SYS_"+name, i64s(nargs), []wasm.ValType{wasm.I64})
}

// PathAt reads a NUL-terminated path from module memory.
func (p *Process) pathArg(addr uint32) (string, linux.Errno) {
	s, ok := p.Inst.Mem.ReadCString(addr, 4096)
	if !ok {
		return "", linux.EFAULT
	}
	return s, 0
}

// bufArg translates a (ptr, len) pair into a host byte window — the
// zero-copy address-space translation (§3.2).
func (p *Process) bufArg(addr uint32, length int64) ([]byte, linux.Errno) {
	if length < 0 || length > int64(^uint32(0)) {
		return nil, linux.EINVAL
	}
	b, ok := p.Inst.Mem.Bytes(addr, uint32(length))
	if !ok {
		return nil, linux.EFAULT
	}
	return b, 0
}
