// Package wazi implements WAZI — the thin kernel interface for Zephyr
// RTOS (§5.1), produced by applying the paper's §5 recipe to a second,
// ISA-portable kernel:
//
//  1. Zephyr's compile-time syscall encoding (zephyr.SyscallTable) is
//     extracted and the host bindings below are generated from it;
//  2. all memory addresses crossing the boundary are translated and
//     bounds-checked through the module's linear memory;
//  3. Zephyr's syscall ABI is already ISA-portable, so layout conversion
//     is the identity;
//  4. k_thread_create maps onto instance-per-thread engine threads — the
//     only hand-written bridge;
//     5-6. Zephyr has no mmap or signals, so steps 5-6 are vacuous.
//
// The auto-generated fraction is reported by PassthroughRatio and exceeds
// the paper's >85% claim.
package wazi

import (
	"fmt"
	"sync"

	"gowali/internal/interp"
	"gowali/internal/wasm"
	"gowali/internal/zephyr"
)

// Namespace is the WAZI import module name.
const Namespace = "wazi"

// WAZI binds a simulated Zephyr kernel to the engine.
type WAZI struct {
	Z      *zephyr.Kernel
	Scheme interp.SafepointScheme
	Tier   interp.ExecTier

	wg sync.WaitGroup
}

// New boots a Zephyr kernel and wraps it.
func New() *WAZI {
	return &WAZI{Z: zephyr.New()}
}

// Process is one WAZI application instance (plus its spawned threads).
type Process struct {
	W    *WAZI
	Inst *interp.Instance
	Exec *interp.Exec
}

// memAdapter exposes a linear memory as zephyr.Mem.
type memAdapter struct{ m *interp.Memory }

func (a memAdapter) Bytes(addr, size uint32) ([]byte, bool) { return a.m.Bytes(addr, size) }

func i64s(n int) []wasm.ValType {
	out := make([]wasm.ValType, n)
	for i := range out {
		out[i] = wasm.I64
	}
	return out
}

// RegisterHost generates the WAZI bindings from the Zephyr syscall
// encoding — the auto-generation step of the recipe.
func (w *WAZI) RegisterHost(l *interp.Linker) {
	res := []wasm.ValType{wasm.I64}
	for _, d := range zephyr.SyscallTable() {
		d := d
		l.DefineFunc(Namespace, "zsys_"+d.Name, i64s(d.NArgs), res,
			func(e *interp.Exec, stack []uint64) {
				var a zephyr.Args
				for i, v := range stack[:d.NArgs] {
					a[i] = int64(v)
				}
				stack[0] = uint64(d.Fn(w.Z, memAdapter{e.Mem()}, a))
			})
	}
	// Domain-specific subsystems: linkable, ENOSYS at runtime — they are
	// outside WAZI's supported core, like the paper's scoping argues.
	domain := make(map[string]bool)
	for _, n := range zephyr.DomainSpecificSyscalls() {
		domain[n] = true
	}
	l.Fallback = func(module, name string, ft wasm.FuncType) (interp.HostFunc, bool) {
		if module != Namespace || len(name) < 6 || name[:5] != "zsys_" || !domain[name[5:]] {
			return interp.HostFunc{}, false
		}
		return interp.HostFunc{Type: ft, Fn: func(e *interp.Exec, stack []uint64) {
			if len(ft.Results) > 0 {
				nosys := zephyr.RetENOSYS
				stack[0] = uint64(nosys)
			}
		}}, true
	}
}

// PassthroughRatio reports the auto-generated fraction of the WAZI
// implementation (§5.1: ">85%").
func PassthroughRatio() float64 {
	table := zephyr.SyscallTable()
	pt := 0
	for _, d := range table {
		if d.Passthrough {
			pt++
		}
	}
	return float64(pt) / float64(len(table))
}

// ImportSyscall declares the WAZI import for a syscall on a builder.
func ImportSyscall(b *wasm.Builder, name string) uint32 {
	for _, d := range zephyr.SyscallTable() {
		if d.Name == name {
			return b.ImportFunc(Namespace, "zsys_"+name, i64s(d.NArgs), []wasm.ValType{wasm.I64})
		}
	}
	panic("wazi: unknown syscall " + name)
}

// Spawn instantiates a module over WAZI, translating it first. Repeated
// spawns of one module should interp.Compile once and use SpawnCompiled.
func (w *WAZI) Spawn(m *wasm.Module) (*Process, error) {
	if err := wasm.Validate(m); err != nil {
		return nil, err
	}
	c, err := interp.Compile(m)
	if err != nil {
		return nil, err
	}
	return w.SpawnCompiled(c)
}

// SpawnCompiled instantiates a pre-translated module over WAZI, reusing
// the cached pre-decoded IR.
func (w *WAZI) SpawnCompiled(c *interp.Compiled) (*Process, error) {
	l := interp.NewLinker()
	w.RegisterHost(l)
	inst, err := c.Instantiate(l)
	if err != nil {
		return nil, err
	}
	p := &Process{W: w, Inst: inst}
	p.Exec = interp.NewExec(inst)
	p.Exec.Scheme = w.Scheme
	p.Exec.Tier = w.Tier

	// Recipe step 4: thread bridge via instance-per-thread. Threads
	// inherit the main exec's safepoint Poll as installed at spawn time,
	// so an embedder's cancellation hook reaches every thread.
	w.Z.ThreadSpawn = func(fnTableIdx, arg, stack uint32) int64 {
		fidx := inst.TableGet(fnTableIdx)
		if fidx < 0 {
			return zephyr.RetEINVAL
		}
		tinst := inst.ShareForThread()
		texec := interp.NewExec(tinst)
		texec.Scheme = w.Scheme
		texec.Tier = w.Tier
		texec.Poll = p.Exec.Poll
		w.wg.Add(1)
		go func() {
			defer w.wg.Done()
			texec.Invoke(uint32(fidx), uint64(arg))
		}()
		return int64(fnTableIdx) + 1000 // synthetic thread id
	}
	return p, nil
}

// Run invokes _start and waits for spawned threads, returning the
// application's exit status (0 on normal return) and any trap.
func (p *Process) Run() (int32, error) {
	fidx, ok := p.Inst.Module.ExportedFunc("_start")
	if !ok {
		return 127, fmt.Errorf("wazi: module has no _start export")
	}
	_, err := p.Exec.Invoke(fidx)
	p.W.wg.Wait()
	if exit, ok := err.(*interp.Exit); ok {
		return exit.Status, nil
	}
	if err != nil {
		return 128, err
	}
	return 0, nil
}
