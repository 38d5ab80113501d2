package interp

import (
	"errors"
	"math"
	"testing"

	"gowali/internal/wasm"
)

// compile builds, validates and instantiates a module from a builder.
func compile(t *testing.T, b *wasm.Builder, l *Linker) *Instance {
	t.Helper()
	m, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if l == nil {
		l = NewLinker()
	}
	inst, err := NewInstance(m, l)
	if err != nil {
		t.Fatalf("instantiate: %v", err)
	}
	return inst
}

// run1 invokes the exported function and returns its single result.
func run1(t *testing.T, inst *Instance, name string, args ...uint64) uint64 {
	t.Helper()
	fidx, ok := inst.Module.ExportedFunc(name)
	if !ok {
		t.Fatalf("no export %q", name)
	}
	res, err := NewExec(inst).Invoke(fidx, args...)
	if err != nil {
		t.Fatalf("invoke %s: %v", name, err)
	}
	if len(res) != 1 {
		t.Fatalf("invoke %s: %d results", name, len(res))
	}
	return res[0]
}

// expectTrap invokes and requires a trap with the given code.
func expectTrap(t *testing.T, inst *Instance, name string, code TrapCode, args ...uint64) {
	t.Helper()
	fidx, ok := inst.Module.ExportedFunc(name)
	if !ok {
		t.Fatalf("no export %q", name)
	}
	_, err := NewExec(inst).Invoke(fidx, args...)
	var trap *Trap
	if !errors.As(err, &trap) {
		t.Fatalf("expected trap, got %v", err)
	}
	if trap.Code != code {
		t.Fatalf("trap code %d (%v), want %d", trap.Code, trap, code)
	}
}

func TestArithmeticBasics(t *testing.T) {
	b := wasm.NewBuilder("arith")
	f := b.NewFunc("addmul", []wasm.ValType{wasm.I32, wasm.I32}, []wasm.ValType{wasm.I32})
	f.LocalGet(0).LocalGet(1).Op(wasm.OpI32Add).LocalGet(0).Op(wasm.OpI32Mul)
	f.Finish()
	inst := compile(t, b, nil)
	if got := run1(t, inst, "addmul", 3, 4); uint32(got) != 21 {
		t.Errorf("(3+4)*3 = %d, want 21", got)
	}
}

func TestFib(t *testing.T) {
	b := wasm.NewBuilder("fib")
	f := b.NewFunc("fib", []wasm.ValType{wasm.I32}, []wasm.ValType{wasm.I32})
	// if n < 2 return n; return fib(n-1)+fib(n-2)
	f.LocalGet(0).I32Const(2).Op(wasm.OpI32LtS).If(wasm.I32)
	f.LocalGet(0)
	f.Else()
	f.LocalGet(0).I32Const(1).Op(wasm.OpI32Sub).Call(f.Index())
	f.LocalGet(0).I32Const(2).Op(wasm.OpI32Sub).Call(f.Index())
	f.Op(wasm.OpI32Add)
	f.End()
	f.Finish()
	inst := compile(t, b, nil)
	if got := run1(t, inst, "fib", 20); uint32(got) != 6765 {
		t.Errorf("fib(20) = %d, want 6765", got)
	}
}

func TestLoopSum(t *testing.T) {
	b := wasm.NewBuilder("loop")
	f := b.NewFunc("sum", []wasm.ValType{wasm.I32}, []wasm.ValType{wasm.I32})
	acc := f.Local(wasm.I32)
	i := f.Local(wasm.I32)
	f.Block()
	f.Loop()
	f.LocalGet(i).LocalGet(0).Op(wasm.OpI32GeS).BrIf(1) // exit
	f.LocalGet(acc).LocalGet(i).Op(wasm.OpI32Add).LocalSet(acc)
	f.LocalGet(i).I32Const(1).Op(wasm.OpI32Add).LocalSet(i)
	f.Br(0)
	f.End()
	f.End()
	f.LocalGet(acc)
	f.Finish()
	inst := compile(t, b, nil)
	if got := run1(t, inst, "sum", 100); uint32(got) != 4950 {
		t.Errorf("sum(100) = %d, want 4950", got)
	}
}

func TestBrTable(t *testing.T) {
	b := wasm.NewBuilder("brt")
	f := b.NewFunc("sel", []wasm.ValType{wasm.I32}, []wasm.ValType{wasm.I32})
	r := f.Local(wasm.I32)
	f.Block() // exit
	f.Block() // case 1
	f.Block() // case 0
	f.LocalGet(0).BrTable(0, 1, 2)
	f.End()
	f.I32Const(100).LocalSet(r).Br(1)
	f.End()
	f.I32Const(200).LocalSet(r).Br(0)
	f.End()
	f.LocalGet(r)
	f.Finish()
	inst := compile(t, b, nil)
	for _, c := range []struct{ in, want uint32 }{{0, 100}, {1, 200}, {2, 0}, {99, 0}} {
		if got := run1(t, inst, "sel", uint64(c.in)); uint32(got) != c.want {
			t.Errorf("sel(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestBrTableDefault(t *testing.T) {
	b := wasm.NewBuilder("brtd")
	f := b.NewFunc("sel", []wasm.ValType{wasm.I32}, []wasm.ValType{wasm.I32})
	f.Block()                   // case 0 (depth 0)
	f.LocalGet(0).BrTable(0, 0) // any value goes to depth 0
	f.End()
	f.I32Const(7)
	f.Finish()
	inst := compile(t, b, nil)
	for _, in := range []uint64{0, 1, 99} {
		if got := run1(t, inst, "sel", in); uint32(got) != 7 {
			t.Errorf("sel(%d) = %d, want 7", in, got)
		}
	}
}

func TestCallIndirect(t *testing.T) {
	b := wasm.NewBuilder("ci")
	double := b.NewFunc("", []wasm.ValType{wasm.I32}, []wasm.ValType{wasm.I32})
	double.LocalGet(0).I32Const(2).Op(wasm.OpI32Mul)
	dIdx := double.Finish()
	square := b.NewFunc("", []wasm.ValType{wasm.I32}, []wasm.ValType{wasm.I32})
	square.LocalGet(0).LocalGet(0).Op(wasm.OpI32Mul)
	sIdx := square.Finish()
	wrongSig := b.NewFunc("", nil, nil)
	wIdx := wrongSig.Finish()

	b.Table(4, 4)
	b.Elem(0, dIdx, sIdx, wIdx)

	f := b.NewFunc("dispatch", []wasm.ValType{wasm.I32, wasm.I32}, []wasm.ValType{wasm.I32})
	f.LocalGet(1).LocalGet(0).CallIndirect([]wasm.ValType{wasm.I32}, []wasm.ValType{wasm.I32})
	f.Finish()

	inst := compile(t, b, nil)
	if got := run1(t, inst, "dispatch", 0, 21); uint32(got) != 42 {
		t.Errorf("double(21) = %d", got)
	}
	if got := run1(t, inst, "dispatch", 1, 9); uint32(got) != 81 {
		t.Errorf("square(9) = %d", got)
	}
	expectTrap(t, inst, "dispatch", TrapSigMismatch, 2, 1) // wrong signature
	expectTrap(t, inst, "dispatch", TrapNullFunc, 3, 1)    // uninitialized
	expectTrap(t, inst, "dispatch", TrapTableOutOfBounds, 99, 1)
}

func TestMemoryOps(t *testing.T) {
	b := wasm.NewBuilder("mem")
	b.Memory(1, 2, false)
	b.Data(8, []byte{0xDE, 0xAD, 0xBE, 0xEF})

	f := b.NewFunc("load8", []wasm.ValType{wasm.I32}, []wasm.ValType{wasm.I32})
	f.LocalGet(0).Load(wasm.OpI32Load8U, 0)
	f.Finish()

	g := b.NewFunc("store_load", []wasm.ValType{wasm.I32, wasm.I32}, []wasm.ValType{wasm.I32})
	g.LocalGet(0).LocalGet(1).Store(wasm.OpI32Store, 0)
	g.LocalGet(0).Load(wasm.OpI32Load, 0)
	g.Finish()

	h := b.NewFunc("grow", []wasm.ValType{wasm.I32}, []wasm.ValType{wasm.I32})
	h.LocalGet(0).MemoryGrow()
	h.Finish()

	sz := b.NewFunc("size", nil, []wasm.ValType{wasm.I32})
	sz.MemorySize()
	sz.Finish()

	inst := compile(t, b, nil)
	if got := run1(t, inst, "load8", 8); uint32(got) != 0xDE {
		t.Errorf("load8(8) = %#x, want 0xDE", got)
	}
	if got := run1(t, inst, "store_load", 100, 0x12345678); uint32(got) != 0x12345678 {
		t.Errorf("store_load = %#x", got)
	}
	if got := run1(t, inst, "size"); uint32(got) != 1 {
		t.Errorf("size = %d, want 1", got)
	}
	if got := run1(t, inst, "grow", 1); uint32(got) != 1 {
		t.Errorf("grow(1) = %d, want 1 (old size)", got)
	}
	if got := run1(t, inst, "size"); uint32(got) != 2 {
		t.Errorf("size after grow = %d, want 2", got)
	}
	// Growth beyond max fails with -1.
	if got := run1(t, inst, "grow", 10); int32(uint32(got)) != -1 {
		t.Errorf("grow(10) = %d, want -1", int32(uint32(got)))
	}
	expectTrap(t, inst, "load8", TrapMemOutOfBounds, uint64(3*wasm.PageSize))
}

func TestMemoryBulkOps(t *testing.T) {
	b := wasm.NewBuilder("bulk")
	b.Memory(1, 1, false)
	f := b.NewFunc("fillcopy", nil, []wasm.ValType{wasm.I32})
	// fill [0,16) with 0xAB; copy [0,16) to [32,48); load byte 40
	f.I32Const(0).I32Const(0xAB).I32Const(16).MemoryFill()
	f.I32Const(32).I32Const(0).I32Const(16).MemoryCopy()
	f.I32Const(40).Load(wasm.OpI32Load8U, 0)
	f.Finish()
	inst := compile(t, b, nil)
	if got := run1(t, inst, "fillcopy"); uint32(got) != 0xAB {
		t.Errorf("fillcopy = %#x, want 0xAB", got)
	}
}

func TestDivisionTraps(t *testing.T) {
	b := wasm.NewBuilder("div")
	f := b.NewFunc("divs", []wasm.ValType{wasm.I32, wasm.I32}, []wasm.ValType{wasm.I32})
	f.LocalGet(0).LocalGet(1).Op(wasm.OpI32DivS)
	f.Finish()
	g := b.NewFunc("rems", []wasm.ValType{wasm.I32, wasm.I32}, []wasm.ValType{wasm.I32})
	g.LocalGet(0).LocalGet(1).Op(wasm.OpI32RemS)
	g.Finish()
	inst := compile(t, b, nil)
	if got := run1(t, inst, "divs", uint64(uint32(0xFFFFFFF9)), uint64(uint32(0xFFFFFFFE))); uint32(got) != 3 {
		t.Errorf("-7/-2 = %d, want 3", int32(uint32(got)))
	}
	expectTrap(t, inst, "divs", TrapDivByZero, 1, 0)
	expectTrap(t, inst, "divs", TrapIntOverflow, uint64(uint32(1)<<31), uint64(uint32(0xFFFFFFFF)))
	// MinInt32 % -1 == 0, not a trap.
	if got := run1(t, inst, "rems", uint64(uint32(1)<<31), uint64(uint32(0xFFFFFFFF))); uint32(got) != 0 {
		t.Errorf("MinInt32 %% -1 = %d, want 0", got)
	}
}

func TestFloatSemantics(t *testing.T) {
	b := wasm.NewBuilder("float")
	f := b.NewFunc("fmin", []wasm.ValType{wasm.F64, wasm.F64}, []wasm.ValType{wasm.F64})
	f.LocalGet(0).LocalGet(1).Op(wasm.OpF64Min)
	f.Finish()
	g := b.NewFunc("trunc", []wasm.ValType{wasm.F64}, []wasm.ValType{wasm.I32})
	g.LocalGet(0).Op(wasm.OpI32TruncF64S)
	g.Finish()
	s := b.NewFunc("truncsat", []wasm.ValType{wasm.F64}, []wasm.ValType{wasm.I32})
	s.LocalGet(0).Op(wasm.OpPrefixFC, byte(wasm.FCI32TruncSatF64S))
	s.Finish()
	inst := compile(t, b, nil)

	nan := math.Float64bits(math.NaN())
	res := run1(t, inst, "fmin", nan, math.Float64bits(1.0))
	if !math.IsNaN(math.Float64frombits(res)) {
		t.Error("min(NaN, 1) must be NaN")
	}
	negZero := math.Float64bits(math.Copysign(0, -1))
	posZero := math.Float64bits(0.0)
	res = run1(t, inst, "fmin", posZero, negZero)
	if !math.Signbit(math.Float64frombits(res)) {
		t.Error("min(+0, -0) must be -0")
	}
	if got := run1(t, inst, "trunc", math.Float64bits(-3.99)); int32(uint32(got)) != -3 {
		t.Errorf("trunc(-3.99) = %d, want -3", int32(uint32(got)))
	}
	expectTrap(t, inst, "trunc", TrapInvalidConversion, nan)
	expectTrap(t, inst, "trunc", TrapIntOverflow, math.Float64bits(3e9))
	if got := run1(t, inst, "truncsat", math.Float64bits(3e9)); int32(uint32(got)) != math.MaxInt32 {
		t.Errorf("truncsat(3e9) = %d, want MaxInt32", int32(uint32(got)))
	}
	if got := run1(t, inst, "truncsat", nan); uint32(got) != 0 {
		t.Errorf("truncsat(NaN) = %d, want 0", got)
	}
}

func TestHostFunctions(t *testing.T) {
	b := wasm.NewBuilder("host")
	add := b.ImportFunc("env", "add", []wasm.ValType{wasm.I32, wasm.I32}, []wasm.ValType{wasm.I32})
	f := b.NewFunc("run", []wasm.ValType{wasm.I32}, []wasm.ValType{wasm.I32})
	f.LocalGet(0).I32Const(10).Call(add)
	f.Finish()

	l := NewLinker()
	l.DefineFunc("env", "add", []wasm.ValType{wasm.I32, wasm.I32}, []wasm.ValType{wasm.I32},
		func(e *Exec, stack []uint64) {
			stack[0] = uint64(uint32(stack[0]) + uint32(stack[1]))
		})
	inst := compile(t, b, l)
	if got := run1(t, inst, "run", 32); uint32(got) != 42 {
		t.Errorf("run(32) = %d, want 42", got)
	}
}

func TestLinkErrors(t *testing.T) {
	b := wasm.NewBuilder("link")
	b.ImportFunc("env", "missing", nil, nil)
	f := b.NewFunc("run", nil, nil)
	f.Finish()
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewInstance(m, NewLinker()); err == nil {
		t.Fatal("expected link error")
	}
	var le *LinkError
	_, err = NewInstance(m, NewLinker())
	if !errors.As(err, &le) {
		t.Fatalf("expected LinkError, got %T", err)
	}
	// Signature mismatch.
	l := NewLinker()
	l.DefineFunc("env", "missing", []wasm.ValType{wasm.I32}, nil, func(e *Exec, stack []uint64) {})
	if _, err := NewInstance(m, l); err == nil {
		t.Fatal("expected signature mismatch link error")
	}
}

func TestLinkerFallback(t *testing.T) {
	b := wasm.NewBuilder("fb")
	idx := b.ImportFunc("wali", "SYS_bogus", nil, []wasm.ValType{wasm.I32})
	f := b.NewFunc("run", nil, []wasm.ValType{wasm.I32})
	f.Call(idx)
	f.Finish()
	l := NewLinker()
	l.Fallback = func(module, name string, ft wasm.FuncType) (HostFunc, bool) {
		return HostFunc{Type: ft, Fn: func(e *Exec, stack []uint64) {
			Throw(TrapHost, "unimplemented %s.%s", module, name)
		}}, true
	}
	inst := compile(t, b, l)
	expectTrap(t, inst, "run", TrapHost)
}

func TestReentrantCallFunc(t *testing.T) {
	// Host function calls back into the module (signal-handler pattern).
	b := wasm.NewBuilder("reentrant")
	cb := b.ImportFunc("env", "invoke_handler", nil, []wasm.ValType{wasm.I32})
	handler := b.NewFunc("handler", nil, []wasm.ValType{wasm.I32})
	handler.I32Const(99)
	hIdx := handler.Finish()
	f := b.NewFunc("run", nil, []wasm.ValType{wasm.I32})
	f.Call(cb).I32Const(1).Op(wasm.OpI32Add)
	f.Finish()

	l := NewLinker()
	l.DefineFunc("env", "invoke_handler", nil, []wasm.ValType{wasm.I32},
		func(e *Exec, stack []uint64) {
			stack[0] = e.CallFunc(hIdx)[0]
		})
	inst := compile(t, b, l)
	if got := run1(t, inst, "run"); uint32(got) != 100 {
		t.Errorf("run = %d, want 100", got)
	}
}

func TestCloneResumesAfterHostCall(t *testing.T) {
	// The fork pattern: a host call clones the exec mid-flight; both parent
	// and child resume after the call with different return values. The
	// call's params are still on the parent's operand stack while the host
	// function runs, above a value (700) the caller is holding: the clone
	// must keep the 700 and drop the params, for fork() and for the 5-arg
	// clone()-as-fork alike.
	for _, nargs := range []int{0, 5} {
		for _, tier := range []ExecTier{TierFused, TierIR, TierWire} {
			params := make([]wasm.ValType, nargs)
			for i := range params {
				params[i] = wasm.I64
			}
			b := wasm.NewBuilder("fork")
			forkImp := b.ImportFunc("env", "fork", params, []wasm.ValType{wasm.I32})
			b.Memory(1, 1, false)
			f := b.NewFunc("run", nil, []wasm.ValType{wasm.I32})
			// v = 700 + fork(11, 12, ...); mem[(v-700)*4] = v+1; return v
			v := f.Local(wasm.I32)
			f.I32Const(700)
			for i := 0; i < nargs; i++ {
				f.I64Const(int64(11 + i))
			}
			f.Call(forkImp).Op(wasm.OpI32Add).LocalSet(v)
			f.LocalGet(v).I32Const(700).Op(wasm.OpI32Sub).I32Const(4).Op(wasm.OpI32Mul)
			f.LocalGet(v).I32Const(1).Op(wasm.OpI32Add).Store(wasm.OpI32Store, 0)
			f.LocalGet(v)
			f.Finish()

			var child *Exec
			l := NewLinker()
			l.DefineFunc("env", "fork", params, []wasm.ValType{wasm.I32},
				func(e *Exec, stack []uint64) {
					for i := 0; i < nargs; i++ {
						if stack[i] != uint64(11+i) {
							t.Errorf("nargs=%d %v: param %d = %d", nargs, tier, i, stack[i])
						}
					}
					ci := e.Inst.Clone()
					child = e.CloneWith(ci)
					child.Push(1) // child sees fork() == 1
					stack[0] = 0
				})
			inst := compile(t, b, l)
			fidx, _ := inst.Module.ExportedFunc("run")
			pe := NewExec(inst)
			pe.Tier = tier
			res, err := pe.Invoke(fidx)
			if err != nil {
				t.Fatalf("nargs=%d %v: parent: %v", nargs, tier, err)
			}
			if uint32(res[0]) != 700 {
				t.Fatalf("nargs=%d %v: parent run() = %d, want 700", nargs, tier, res[0])
			}
			if child == nil {
				t.Fatal("child not cloned")
			}
			if err := child.Resume(); err != nil {
				t.Fatalf("nargs=%d %v: child resume: %v", nargs, tier, err)
			}
			// Parent memory: mem[0] = 701. Child memory: mem[4] = 702, and
			// the child inherited mem[0] = 0 because the clone happened
			// before the parent's store.
			if v, _ := inst.Mem.ReadU32(0); v != 701 {
				t.Errorf("nargs=%d %v: parent mem[0] = %d, want 701", nargs, tier, v)
			}
			cm := child.Inst.Mem
			if v, _ := cm.ReadU32(4); v != 702 {
				t.Errorf("nargs=%d %v: child mem[4] = %d, want 702", nargs, tier, v)
			}
			if v, _ := cm.ReadU32(0); v != 0 {
				t.Errorf("nargs=%d %v: child mem[0] = %d, want 0 (cloned before parent store)", nargs, tier, v)
			}
		}
	}
}

func TestHostStackViewSurvivesReentry(t *testing.T) {
	// A host function re-enters the interpreter deeply enough to reallocate
	// the operand stack, then reads its params and writes its result
	// through the view it was handed.
	b := wasm.NewBuilder("reentry")
	cb := b.ImportFunc("env", "sum_after_call", []wasm.ValType{wasm.I32, wasm.I32}, []wasm.ValType{wasm.I32})
	big := b.NewFunc("big", nil, []wasm.ValType{wasm.I32})
	for i := 0; i < 4096; i++ {
		big.Local(wasm.I64)
	}
	big.I32Const(5)
	bigIdx := big.Finish()
	f := b.NewFunc("run", nil, []wasm.ValType{wasm.I32})
	f.I32Const(1000).I32Const(20).I32Const(300).Call(cb).Op(wasm.OpI32Add)
	f.Finish()

	l := NewLinker()
	l.DefineFunc("env", "sum_after_call", []wasm.ValType{wasm.I32, wasm.I32}, []wasm.ValType{wasm.I32},
		func(e *Exec, stack []uint64) {
			r := e.CallFunc(bigIdx)[0]
			stack[0] = uint64(uint32(stack[0]) + uint32(stack[1]) + uint32(r))
		})
	inst := compile(t, b, l)
	if got := run1(t, inst, "run"); uint32(got) != 1325 {
		t.Errorf("run = %d, want 1325", got)
	}
}

func TestHostResultSlotRespectsMaxStack(t *testing.T) {
	// A 0-param, 1-result host function needs a slot the caller did not
	// push; reserving it is subject to the value-stack limit.
	b := wasm.NewBuilder("wide")
	imp := b.ImportFunc("env", "one", nil, []wasm.ValType{wasm.I32})
	f := b.NewFunc("run", nil, nil)
	f.Finish()
	l := NewLinker()
	l.DefineFunc("env", "one", nil, []wasm.ValType{wasm.I32}, func(e *Exec, stack []uint64) { stack[0] = 1 })
	inst := compile(t, b, l)
	e := NewExec(inst)
	if res, err := e.Invoke(imp); err != nil || len(res) != 1 || res[0] != 1 {
		t.Fatalf("one() = %v, %v", res, err)
	}
	e.MaxStack = 0
	_, err := e.Invoke(imp)
	var trap *Trap
	if !errors.As(err, &trap) || trap.Code != TrapStackExhausted {
		t.Fatalf("one() at MaxStack 0: got %v, want stack exhaustion", err)
	}
}

func TestSafepointSchemes(t *testing.T) {
	b := wasm.NewBuilder("sp")
	f := b.NewFunc("spin", []wasm.ValType{wasm.I32}, []wasm.ValType{wasm.I32})
	i := f.Local(wasm.I32)
	f.Block()
	f.Loop()
	f.LocalGet(i).LocalGet(0).Op(wasm.OpI32GeS).BrIf(1)
	f.LocalGet(i).I32Const(1).Op(wasm.OpI32Add).LocalSet(i)
	f.Br(0)
	f.End()
	f.End()
	f.LocalGet(i)
	f.Finish()
	inst := compile(t, b, nil)

	counts := map[SafepointScheme]uint64{}
	for _, scheme := range []SafepointScheme{SafepointNone, SafepointLoop, SafepointFunc, SafepointEveryInst} {
		e := NewExec(inst)
		e.Scheme = scheme
		var polls uint64
		e.Poll = func(*Exec) { polls++ }
		fidx, _ := inst.Module.ExportedFunc("spin")
		if _, err := e.Invoke(fidx, 1000); err != nil {
			t.Fatalf("scheme %v: %v", scheme, err)
		}
		counts[scheme] = polls
	}
	if counts[SafepointNone] != 0 {
		t.Errorf("none scheme polled %d times", counts[SafepointNone])
	}
	if counts[SafepointLoop] < 1000 {
		t.Errorf("loop scheme polled %d times, want >= 1000 (back-edges)", counts[SafepointLoop])
	}
	if counts[SafepointFunc] != 1 {
		t.Errorf("func scheme polled %d times, want 1", counts[SafepointFunc])
	}
	if counts[SafepointEveryInst] <= counts[SafepointLoop] {
		t.Errorf("every-inst polls (%d) must exceed loop polls (%d)",
			counts[SafepointEveryInst], counts[SafepointLoop])
	}
}

func TestExitPanic(t *testing.T) {
	b := wasm.NewBuilder("exit")
	ex := b.ImportFunc("env", "exit", []wasm.ValType{wasm.I32}, nil)
	f := b.NewFunc("run", nil, []wasm.ValType{wasm.I32})
	f.I32Const(3).Call(ex).I32Const(0)
	f.Finish()
	l := NewLinker()
	l.DefineFunc("env", "exit", []wasm.ValType{wasm.I32}, nil,
		func(e *Exec, stack []uint64) {
			panic(&Exit{Status: int32(uint32(stack[0]))})
		})
	inst := compile(t, b, l)
	fidx, _ := inst.Module.ExportedFunc("run")
	_, err := NewExec(inst).Invoke(fidx)
	var exit *Exit
	if !errors.As(err, &exit) || exit.Status != 3 {
		t.Fatalf("expected Exit{3}, got %v", err)
	}
}

func TestStackExhaustion(t *testing.T) {
	b := wasm.NewBuilder("deep")
	f := b.NewFunc("rec", []wasm.ValType{wasm.I32}, []wasm.ValType{wasm.I32})
	f.LocalGet(0).I32Const(1).Op(wasm.OpI32Add).Call(f.Index())
	f.Finish()
	inst := compile(t, b, nil)
	expectTrap(t, inst, "rec", TrapStackExhausted, 0)
}

func TestGlobals(t *testing.T) {
	b := wasm.NewBuilder("glob")
	g := b.GlobalI64(5, true)
	f := b.NewFunc("bump", []wasm.ValType{wasm.I64}, []wasm.ValType{wasm.I64})
	f.GlobalGet(g).LocalGet(0).Op(wasm.OpI64Add).GlobalSet(g)
	f.GlobalGet(g)
	f.Finish()
	inst := compile(t, b, nil)
	if got := run1(t, inst, "bump", 10); got != 15 {
		t.Errorf("bump(10) = %d, want 15", got)
	}
	if got := run1(t, inst, "bump", 1); got != 16 {
		t.Errorf("bump(1) = %d, want 16 (global persists)", got)
	}
}

func TestThreadSharedMemory(t *testing.T) {
	b := wasm.NewBuilder("thr")
	b.Memory(1, 1, true)
	f := b.NewFunc("store", []wasm.ValType{wasm.I32, wasm.I32}, nil)
	f.LocalGet(0).LocalGet(1).Store(wasm.OpI32Store, 0)
	f.Finish()
	g := b.NewFunc("load", []wasm.ValType{wasm.I32}, []wasm.ValType{wasm.I32})
	g.LocalGet(0).Load(wasm.OpI32Load, 0)
	g.Finish()
	parent := compile(t, b, nil)
	child := parent.ShareForThread()
	if child.Mem != parent.Mem {
		t.Fatal("thread instance must share memory")
	}
	fidx, _ := parent.Module.ExportedFunc("store")
	if _, err := NewExec(parent).Invoke(fidx, 64, 777); err != nil {
		t.Fatal(err)
	}
	gidx, _ := child.Module.ExportedFunc("load")
	res, err := NewExec(child).Invoke(gidx, 64)
	if err != nil {
		t.Fatal(err)
	}
	if uint32(res[0]) != 777 {
		t.Errorf("child sees %d, want 777", res[0])
	}
}

func TestDecodedModuleExecution(t *testing.T) {
	// Round-trip a module through the binary codec, then execute it.
	b := wasm.NewBuilder("rt")
	f := b.NewFunc("f", []wasm.ValType{wasm.I64}, []wasm.ValType{wasm.I64})
	f.LocalGet(0).I64Const(1).Op(wasm.OpI64Shl)
	f.Finish()
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := wasm.Decode(wasm.Encode(m))
	if err != nil {
		t.Fatal(err)
	}
	if err := wasm.Validate(dec); err != nil {
		t.Fatal(err)
	}
	inst, err := NewInstance(dec, NewLinker())
	if err != nil {
		t.Fatal(err)
	}
	if got := run1(t, inst, "f", 21); got != 42 {
		t.Errorf("f(21) = %d, want 42", got)
	}
}

func TestSignExtensionOps(t *testing.T) {
	b := wasm.NewBuilder("ext")
	f := b.NewFunc("e8", []wasm.ValType{wasm.I32}, []wasm.ValType{wasm.I32})
	f.LocalGet(0).Op(wasm.OpI32Extend8S)
	f.Finish()
	inst := compile(t, b, nil)
	if got := run1(t, inst, "e8", 0x80); int32(uint32(got)) != -128 {
		t.Errorf("extend8_s(0x80) = %d, want -128", int32(uint32(got)))
	}
	if got := run1(t, inst, "e8", 0x7F); int32(uint32(got)) != 127 {
		t.Errorf("extend8_s(0x7F) = %d, want 127", int32(uint32(got)))
	}
}

func TestRotates(t *testing.T) {
	b := wasm.NewBuilder("rot")
	f := b.NewFunc("rotl", []wasm.ValType{wasm.I32, wasm.I32}, []wasm.ValType{wasm.I32})
	f.LocalGet(0).LocalGet(1).Op(wasm.OpI32Rotl)
	f.Finish()
	inst := compile(t, b, nil)
	if got := run1(t, inst, "rotl", 0x80000000, 1); uint32(got) != 1 {
		t.Errorf("rotl(0x80000000,1) = %#x, want 1", got)
	}
}

// TestOverlongLEBImmediates locks in LEB-correct immediate skipping: the
// validator accepts overlong encodings (here a 2-byte LEB 0 as the
// memory.size index), so the pre-decoder and both engines must skip by
// decode, not by fixed width. Regression for a desync where the trailing
// continuation byte was decoded as an opcode.
func TestOverlongLEBImmediates(t *testing.T) {
	m := &wasm.Module{
		Types: []wasm.FuncType{{Results: []wasm.ValType{wasm.I32}}},
		Funcs: []wasm.Func{{TypeIdx: 0, Body: []byte{
			wasm.OpMemorySize, 0x80, 0x00, // overlong LEB memory index 0
			wasm.OpEnd,
		}}},
		Mem:     &wasm.Limits{Min: 1, HasMax: true, Max: 1},
		Exports: []wasm.Export{{Name: "main", Kind: wasm.ExternFunc, Index: 0}},
	}
	if err := wasm.Validate(m); err != nil {
		t.Fatalf("validate: %v", err)
	}
	inst, err := NewInstance(m, NewLinker())
	if err != nil {
		t.Fatalf("instantiate: %v", err)
	}
	for _, tier := range []ExecTier{TierFused, TierIR, TierWire} {
		e := NewExec(inst)
		e.Tier = tier
		res, err := e.Invoke(0)
		if err != nil {
			t.Fatalf("tier=%v: %v", tier, err)
		}
		if uint32(res[0]) != 1 {
			t.Errorf("tier=%v: memory.size = %d, want 1", tier, res[0])
		}
	}
}
