package interp

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"gowali/internal/wasm"
)

// SafepointScheme selects where the engine polls for asynchronous events
// (virtual signal delivery in WALI). The paper's Table 3 compares these.
type SafepointScheme int

// Safepoint schemes.
const (
	// SafepointNone never polls; asynchronous signals are only delivered
	// at host-call boundaries.
	SafepointNone SafepointScheme = iota
	// SafepointLoop polls at loop headers and taken back-edges (the
	// paper's implementation choice).
	SafepointLoop
	// SafepointFunc polls at every function entry.
	SafepointFunc
	// SafepointEveryInst polls at every bytecode instruction boundary.
	SafepointEveryInst
)

func (s SafepointScheme) String() string {
	switch s {
	case SafepointNone:
		return "none"
	case SafepointLoop:
		return "loop"
	case SafepointFunc:
		return "func"
	case SafepointEveryInst:
		return "all"
	}
	return "invalid"
}

// ExecTier selects the execution engine. TierFused and TierIR share one pc
// space (fuse.go), so an Exec may move between them at any safepoint;
// TierWire interprets the raw bytecode with its own pc space and must be
// chosen for an Exec's whole lifetime.
type ExecTier uint8

// Execution tiers.
const (
	// TierFused executes the superinstruction-fused IR (the default):
	// dominant dynamic sequences fold into single dispatch slots that
	// read and write the locals frame directly.
	TierFused ExecTier = iota
	// TierIR executes the plain pre-decoded flat IR (predecode.go).
	TierIR
	// TierWire interprets the wire bytecode directly, decoding LEB
	// immediates and keeping a runtime label stack. The reference engine
	// for differential testing, and the tier the opcode profiler hooks.
	TierWire
)

func (t ExecTier) String() string {
	switch t {
	case TierFused:
		return "fused"
	case TierIR:
		return "ir"
	case TierWire:
		return "wire"
	}
	return "invalid"
}

// ParseTier parses a -tier flag value.
func ParseTier(s string) (ExecTier, error) {
	switch s {
	case "fused", "":
		return TierFused, nil
	case "ir":
		return TierIR, nil
	case "wire":
		return TierWire, nil
	}
	return TierFused, fmt.Errorf("interp: unknown exec tier %q (want fused, ir or wire)", s)
}

// label is a runtime control label within a frame.
type label struct {
	cont   int // continuation pc on branch
	height int // absolute value-stack height at label entry (below params)
	carry  int // values carried by a branch
	isLoop bool
}

// frame is one activation record. pc always points at the next instruction
// to execute, so an Exec captured during a host call resumes cleanly — the
// property WALI's fork relies on.
type frame struct {
	fn     *resolvedFunc
	inst   *Instance
	base   int // locals base in the value stack
	pc     int
	labels []label
}

// Defaults for execution limits.
const (
	DefaultMaxFrames = 8192
	DefaultMaxStack  = 1 << 22
)

// Exec is a resumable execution: an explicit value stack and frame stack.
// One Exec corresponds to one thread of a WALI process.
type Exec struct {
	Inst *Instance

	stack  []uint64
	frames []frame

	// hostBase is the operand-stack height below the innermost in-flight
	// host call's stack view (its params stay on the stack for the
	// duration of the call), or -1 when no host call is in flight.
	// CloneWith cuts the child's stack here.
	hostBase int

	// Poll, if non-nil, is invoked at safepoints according to Scheme.
	// WALI installs its virtual signal delivery here.
	Poll   func(*Exec)
	Scheme SafepointScheme

	// Tier selects the execution engine. TierFused and TierIR may be
	// swapped whenever the Exec is parked at a safepoint (shared pc
	// space); TierWire must not change while frames are live.
	Tier ExecTier

	MaxFrames int
	MaxStack  int

	// Steps counts executed instructions in IR units (a fused slot counts
	// its fold width, so the metric is tier-independent); SafepointCount
	// counts executed polls. Both feed the Table 3 / Fig 7
	// instrumentation. Dispatches counts dispatch-loop iterations: under
	// TierIR it equals the instructions executed, under TierFused the
	// Steps/Dispatches ratio is the measured fusion coverage
	// (benchvirt -opstats).
	Steps          uint64
	Dispatches     uint64
	SafepointCount uint64

	// Ops, if non-nil, accumulates a dynamic opcode/sequence frequency
	// profile. Only the wire engine records into it (the profiler runs
	// TierWire), so the IR/fused hot loops stay instrumentation-free.
	Ops *OpStats

	// HostCtx carries embedder per-thread state (the WALI process).
	HostCtx any
}

// NewExec creates an execution context for inst.
func NewExec(inst *Instance) *Exec {
	return &Exec{Inst: inst, hostBase: -1, MaxFrames: DefaultMaxFrames, MaxStack: DefaultMaxStack}
}

// CurInstance returns the instance of the innermost frame, or the root
// instance when no frame is active (e.g. during a host call made directly
// from Invoke).
func (e *Exec) CurInstance() *Instance {
	if len(e.frames) > 0 {
		return e.frames[len(e.frames)-1].inst
	}
	return e.Inst
}

// Mem returns the current instance's memory.
func (e *Exec) Mem() *Memory { return e.CurInstance().Mem }

func (e *Exec) push(v uint64) {
	if len(e.stack) >= e.MaxStack {
		Throw(TrapStackExhausted, "value stack limit %d", e.MaxStack)
	}
	e.stack = append(e.stack, v)
}

func (e *Exec) pop() uint64 {
	v := e.stack[len(e.stack)-1]
	e.stack = e.stack[:len(e.stack)-1]
	return v
}

func (e *Exec) top() *uint64 { return &e.stack[len(e.stack)-1] }

// Invoke calls the exported function index fidx with args (raw bits),
// returning result bits. Traps and exits are converted to errors. The Exec
// must be idle (no live frames).
func (e *Exec) Invoke(fidx uint32, args ...uint64) (res []uint64, err error) {
	if len(e.frames) != 0 {
		panic("interp: Invoke on a busy Exec")
	}
	defer func() {
		if r := recover(); r != nil {
			switch t := r.(type) {
			case *Trap:
				t.Stack = e.Backtrace()
				err = t
			case *Exit:
				err = t
			default:
				panic(r)
			}
			// The exec state is dead after a trap; reset so the Exec is
			// reusable for diagnostics.
			e.stack = e.stack[:0]
			e.frames = e.frames[:0]
			e.hostBase = -1
		}
	}()
	fn := &e.Inst.funcs[fidx]
	for _, a := range args {
		e.push(a)
	}
	e.invokeIndex(e.Inst, fidx)
	e.run(0)
	nr := len(fn.typ.Results)
	res = make([]uint64, nr)
	copy(res, e.stack[len(e.stack)-nr:])
	e.stack = e.stack[:len(e.stack)-nr]
	return res, nil
}

// Resume continues a cloned (forked) execution until completion. Any
// results from the outermost function are discarded.
func (e *Exec) Resume() (err error) {
	defer func() {
		if r := recover(); r != nil {
			switch t := r.(type) {
			case *Trap:
				t.Stack = e.Backtrace()
				err = t
			case *Exit:
				err = t
			default:
				panic(r)
			}
			e.stack = e.stack[:0]
			e.frames = e.frames[:0]
			e.hostBase = -1
		}
	}()
	e.run(0)
	e.stack = e.stack[:0]
	return nil
}

// CallFunc reentrantly invokes function fidx from within a host function or
// safepoint callback — the mechanism for executing virtual signal handlers
// (Fig. 5's call(wint_hdl)) and for layered APIs calling down into modules.
func (e *Exec) CallFunc(fidx uint32, args ...uint64) []uint64 {
	inst := e.CurInstance()
	base := len(e.frames)
	for _, a := range args {
		e.push(a)
	}
	e.invokeIndex(inst, fidx)
	e.run(base)
	nr := len(inst.funcs[fidx].typ.Results)
	res := make([]uint64, nr)
	copy(res, e.stack[len(e.stack)-nr:])
	e.stack = e.stack[:len(e.stack)-nr]
	return res
}

// CloneWith deep-copies the execution state onto a new instance — the
// engine-side half of WALI fork. The caller supplies the cloned instance
// (memory already copied). Poll and HostCtx are NOT copied; the embedder
// rebinds them for the child process. Called from inside a host function
// (fork is one), the clone's operand stack stops below that call's stack
// view: the child sees the stack as it was before the call's params were
// pushed, and the embedder supplies its return value with Push.
func (e *Exec) CloneWith(inst *Instance) *Exec {
	live := e.stack
	if e.hostBase >= 0 {
		live = live[:e.hostBase]
	}
	c := &Exec{
		Inst:      inst,
		stack:     append([]uint64(nil), live...),
		hostBase:  -1,
		Scheme:    e.Scheme,
		Tier:      e.Tier,
		MaxFrames: e.MaxFrames,
		MaxStack:  e.MaxStack,
	}
	c.frames = make([]frame, len(e.frames))
	for i := range e.frames {
		c.frames[i] = e.frames[i]
		c.frames[i].labels = append([]label(nil), e.frames[i].labels...)
		if e.frames[i].inst == e.Inst {
			c.frames[i].inst = inst
		}
	}
	return c
}

// Push places a raw value on the operand stack. Only host functions
// implementing fork-style semantics need this.
func (e *Exec) Push(v uint64) { e.push(v) }

// invokeIndex begins executing function fidx of inst: a host function runs
// to completion; a wasm function gets a frame.
func (e *Exec) invokeIndex(inst *Instance, fidx uint32) {
	fn := &inst.funcs[fidx]
	if fn.kind == kindHost {
		e.callHost(fn)
		return
	}
	if len(e.frames) >= e.MaxFrames {
		Throw(TrapStackExhausted, "frame limit %d", e.MaxFrames)
	}
	base := len(e.stack) - fn.numParam
	for i := fn.numParam; i < fn.numLocal; i++ {
		e.push(0)
	}
	e.frames = append(e.frames, frame{fn: fn, inst: inst, base: base})
	if e.Scheme == SafepointFunc {
		e.safepoint()
	}
}

// callHost runs a host function over a view of the operand stack (see
// HostFunc): the params stay where the caller pushed them, slots for
// results wider than the params are reserved first, and the view is cut
// down to the results afterwards — no allocation either way.
func (e *Exec) callHost(fn *resolvedFunc) {
	np, nr := fn.numParam, len(fn.typ.Results)
	base := len(e.stack) - np
	n := np
	if nr > np {
		if base+nr > e.MaxStack {
			Throw(TrapStackExhausted, "value stack limit %d", e.MaxStack)
		}
		for ; n < nr; n++ {
			e.stack = append(e.stack, 0)
		}
	}
	view := e.stack[base : base+n : base+n]
	outer := e.hostBase
	e.hostBase = base
	fn.host.Fn(e, view)
	e.hostBase = outer
	// A re-entrant call may have grown (reallocated) the stack under the
	// view; the params' slots are still below everything it pushed.
	e.stack = e.stack[:base+nr]
	for i := 0; i < nr; i++ {
		e.stack[base+i] = view[i]
	}
}

func (e *Exec) safepoint() {
	e.SafepointCount++
	if e.Poll != nil {
		e.Poll(e)
	}
}

// doReturn pops the current frame, moving its results into place.
func (e *Exec) doReturn() {
	f := &e.frames[len(e.frames)-1]
	nr := len(f.fn.typ.Results)
	copy(e.stack[f.base:], e.stack[len(e.stack)-nr:])
	e.stack = e.stack[:f.base+nr]
	e.frames = e.frames[:len(e.frames)-1]
}

// branch transfers control to the label depth levels up, or returns from
// the function when depth addresses the function body itself.
func (e *Exec) branch(f *frame, depth int) bool {
	idx := len(f.labels) - 1 - depth
	if idx < 0 {
		e.doReturn()
		return true // frame gone
	}
	l := f.labels[idx]
	copy(e.stack[l.height:], e.stack[len(e.stack)-l.carry:])
	e.stack = e.stack[:l.height+l.carry]
	if l.isLoop {
		f.labels = f.labels[:idx+1]
		if e.Scheme == SafepointLoop {
			e.safepoint()
		}
	} else {
		f.labels = f.labels[:idx]
	}
	f.pc = l.cont
	return false
}

// slide moves a branch's carried values down to the target label height —
// the IR engines' entire runtime cost of taking a branch. Small enough to
// inline into every fused branch arm.
func (e *Exec) slide(h, c int) {
	copy(e.stack[h:], e.stack[len(e.stack)-c:])
	e.stack = e.stack[:h+c]
}

// run executes until the frame stack shrinks to minFrames.
func (e *Exec) run(minFrames int) {
	if e.Tier == TierWire {
		e.runWire(minFrames)
	} else {
		e.runIR(minFrames)
	}
}

// Backtrace returns one line per live frame, innermost first, for trap
// diagnostics. pc is in the active engine's pc space (IR index or wire
// byte offset).
func (e *Exec) Backtrace() []string {
	bt := make([]string, 0, len(e.frames))
	for i := len(e.frames) - 1; i >= 0; i-- {
		f := &e.frames[i]
		bt = append(bt, fmt.Sprintf("%s +%d", f.fn.name, f.pc))
	}
	return bt
}

// runIR is the hot loop over the pre-decoded IR (see predecode.go).
//
// The outer loop pins the current frame and caches its invariants (IR
// slice, locals base, instance); the inner loop advances a local pc. The
// resumability invariant — f.pc always points at the next IR instruction —
// is maintained by flushing the local pc to f.pc at every point where the
// frame stack can change or the Exec can be observed: function calls and
// safepoint polls. Traps abandon the Exec, so the innermost frame's pc may
// be slightly stale in a trap backtrace; outer frames are always exact.
func (e *Exec) runIR(minFrames int) {
	// Steps is accumulated locally and flushed to e.Steps at every point
	// where other code can observe the Exec (safepoints, calls, returns),
	// keeping the per-instruction fast path free of heap writes. The defer
	// preserves the count when a trap unwinds mid-burst; on normal return
	// every exit path has already flushed, so it adds zero.
	var steps, disp uint64
	defer func() { e.Steps += steps; e.Dispatches += disp }()
	fused := e.Tier == TierFused
	for len(e.frames) > minFrames {
		f := &e.frames[len(e.frames)-1]
		ins := f.fn.code.ins
		if fused && f.fn.fused != nil {
			ins = f.fn.fused.ins
		}
		inst := f.inst
		base := f.base
		lbase := base + f.fn.numLocal
		pc := f.pc

	frameLoop:
		for {
			in := &ins[pc]
			if e.Scheme == SafepointEveryInst {
				// Poll at the boundary BEFORE executing the instruction,
				// with f.pc still addressing it: an Exec captured (forked)
				// inside the poll re-executes it on resume, exactly like
				// the parent does after the poll returns.
				f.pc = pc
				e.Steps += steps
				steps = 0
				e.safepoint()
				// A poll may reenter the module, growing (relocating) the
				// frame stack; the cached invariants are unchanged but the
				// frame pointer must be refetched.
				f = &e.frames[len(e.frames)-1]
			}
			// n is 1 for plain IR; a fused superinstruction advances past
			// its whole folded sequence and accounts for every slot in it,
			// keeping Steps tier-independent.
			pc += int(in.n)
			steps += uint64(in.n)
			disp++

			switch in.op {
			case iLoopEnter:
				if e.Scheme == SafepointLoop {
					f.pc = pc
					e.Steps += steps
					steps = 0
					e.safepoint()
					f = &e.frames[len(e.frames)-1]
				}
			case iBr:
				h := lbase + int(in.b)
				c := int(in.c)
				copy(e.stack[h:], e.stack[len(e.stack)-c:])
				e.stack = e.stack[:h+c]
				pc = int(in.a)
			case iBrIf:
				if uint32(e.pop()) != 0 {
					h := lbase + int(in.b)
					c := int(in.c)
					copy(e.stack[h:], e.stack[len(e.stack)-c:])
					e.stack = e.stack[:h+c]
					pc = int(in.a)
				}
			case iBrTable:
				i := uint32(e.pop())
				if i > in.b {
					i = in.b
				}
				t := &f.fn.code.tables[in.a+i]
				if t.pc == brTargetReturn {
					e.Steps += steps
					steps = 0
					e.doReturn()
					break frameLoop
				}
				h := lbase + int(t.height)
				c := int(t.carry)
				copy(e.stack[h:], e.stack[len(e.stack)-c:])
				e.stack = e.stack[:h+c]
				pc = int(t.pc)
			case iIf:
				if uint32(e.pop()) == 0 {
					pc = int(in.a)
				}
			case iReturn:
				e.Steps += steps
				steps = 0
				e.doReturn()
				break frameLoop

			case iCall:
				f.pc = pc
				e.Steps += steps
				steps = 0
				e.invokeIndex(inst, in.a)
				break frameLoop
			case iCallIndirect:
				elem := uint32(e.pop())
				if int(elem) >= len(inst.Table) {
					Throw(TrapTableOutOfBounds, "element %d, table size %d", elem, len(inst.Table))
				}
				fidx := inst.Table[elem]
				if fidx < 0 {
					Throw(TrapNullFunc, "element %d", elem)
				}
				want := inst.Module.Types[in.a]
				if !inst.funcs[fidx].typ.Equal(want) {
					Throw(TrapSigMismatch, "element %d: expected %v, got %v", elem, want, inst.funcs[fidx].typ)
				}
				f.pc = pc
				e.Steps += steps
				steps = 0
				e.invokeIndex(inst, uint32(fidx))
				break frameLoop

			case iUnreachable:
				f.pc = pc
				e.Steps += steps
				steps = 0
				Throw(TrapUnreachable, "")

			case iDrop:
				e.pop()
			case iSelect:
				c := uint32(e.pop())
				b := e.pop()
				a := e.pop()
				if c != 0 {
					e.push(a)
				} else {
					e.push(b)
				}

			case iLocalGet:
				e.push(e.stack[base+int(in.a)])
			case iLocalSet:
				e.stack[base+int(in.a)] = e.pop()
			case iLocalTee:
				e.stack[base+int(in.a)] = *e.top()
			case iGlobalGet:
				e.push(inst.Globals[in.a])
			case iGlobalSet:
				inst.Globals[in.a] = e.pop()

			case iConst:
				e.push(in.imm)

			case iMemorySize:
				e.push(uint64(inst.Mem.Pages()))
			case iMemoryGrow:
				delta := uint32(e.pop())
				e.push(uint64(uint32(inst.Mem.Grow(delta))))

			case iMemCopy:
				ln := uint32(e.pop())
				src := uint32(e.pop())
				dst := uint32(e.pop())
				mem := inst.Mem
				if !mem.CopyRange(dst, src, ln) {
					Throw(TrapMemOutOfBounds, "memory.copy dst=%d src=%d len=%d", dst, src, ln)
				}
			case iMemFill:
				ln := uint32(e.pop())
				val := byte(e.pop())
				dst := uint32(e.pop())
				mem := inst.Mem
				if !mem.FillRange(dst, val, ln) {
					Throw(TrapMemOutOfBounds, "memory.fill dst=%d len=%d", dst, ln)
				}
			case iTruncSat:
				e.execTruncSat(in.a)

			case iMemAccess:
				e.execMemAccess(inst.Mem, byte(in.b), in.a)
			case iNumeric:
				e.execNumeric(byte(in.a))

			// Inlined hot ALU/compare ops with direct stack indexing.
			case iI32Eqz:
				v := &e.stack[len(e.stack)-1]
				*v = b2i(uint32(*v) == 0)
			case iI32Add:
				n := len(e.stack)
				e.stack[n-2] = uint64(uint32(e.stack[n-2]) + uint32(e.stack[n-1]))
				e.stack = e.stack[:n-1]
			case iI32Sub:
				n := len(e.stack)
				e.stack[n-2] = uint64(uint32(e.stack[n-2]) - uint32(e.stack[n-1]))
				e.stack = e.stack[:n-1]
			case iI32Mul:
				n := len(e.stack)
				e.stack[n-2] = uint64(uint32(e.stack[n-2]) * uint32(e.stack[n-1]))
				e.stack = e.stack[:n-1]
			case iI32And:
				n := len(e.stack)
				e.stack[n-2] = uint64(uint32(e.stack[n-2]) & uint32(e.stack[n-1]))
				e.stack = e.stack[:n-1]
			case iI32Or:
				n := len(e.stack)
				e.stack[n-2] = uint64(uint32(e.stack[n-2]) | uint32(e.stack[n-1]))
				e.stack = e.stack[:n-1]
			case iI32Xor:
				n := len(e.stack)
				e.stack[n-2] = uint64(uint32(e.stack[n-2]) ^ uint32(e.stack[n-1]))
				e.stack = e.stack[:n-1]
			case iI32Shl:
				n := len(e.stack)
				e.stack[n-2] = uint64(uint32(e.stack[n-2]) << (uint32(e.stack[n-1]) & 31))
				e.stack = e.stack[:n-1]
			case iI32ShrS:
				n := len(e.stack)
				e.stack[n-2] = uint64(uint32(int32(e.stack[n-2]) >> (uint32(e.stack[n-1]) & 31)))
				e.stack = e.stack[:n-1]
			case iI32ShrU:
				n := len(e.stack)
				e.stack[n-2] = uint64(uint32(e.stack[n-2]) >> (uint32(e.stack[n-1]) & 31))
				e.stack = e.stack[:n-1]
			case iI32Eq:
				n := len(e.stack)
				e.stack[n-2] = b2i(uint32(e.stack[n-2]) == uint32(e.stack[n-1]))
				e.stack = e.stack[:n-1]
			case iI32Ne:
				n := len(e.stack)
				e.stack[n-2] = b2i(uint32(e.stack[n-2]) != uint32(e.stack[n-1]))
				e.stack = e.stack[:n-1]
			case iI32LtS:
				n := len(e.stack)
				e.stack[n-2] = b2i(int32(e.stack[n-2]) < int32(e.stack[n-1]))
				e.stack = e.stack[:n-1]
			case iI32LtU:
				n := len(e.stack)
				e.stack[n-2] = b2i(uint32(e.stack[n-2]) < uint32(e.stack[n-1]))
				e.stack = e.stack[:n-1]
			case iI32GtS:
				n := len(e.stack)
				e.stack[n-2] = b2i(int32(e.stack[n-2]) > int32(e.stack[n-1]))
				e.stack = e.stack[:n-1]
			case iI32GtU:
				n := len(e.stack)
				e.stack[n-2] = b2i(uint32(e.stack[n-2]) > uint32(e.stack[n-1]))
				e.stack = e.stack[:n-1]
			case iI32LeS:
				n := len(e.stack)
				e.stack[n-2] = b2i(int32(e.stack[n-2]) <= int32(e.stack[n-1]))
				e.stack = e.stack[:n-1]
			case iI32LeU:
				n := len(e.stack)
				e.stack[n-2] = b2i(uint32(e.stack[n-2]) <= uint32(e.stack[n-1]))
				e.stack = e.stack[:n-1]
			case iI32GeS:
				n := len(e.stack)
				e.stack[n-2] = b2i(int32(e.stack[n-2]) >= int32(e.stack[n-1]))
				e.stack = e.stack[:n-1]
			case iI32GeU:
				n := len(e.stack)
				e.stack[n-2] = b2i(uint32(e.stack[n-2]) >= uint32(e.stack[n-1]))
				e.stack = e.stack[:n-1]
			case iI64Add:
				n := len(e.stack)
				e.stack[n-2] += e.stack[n-1]
				e.stack = e.stack[:n-1]
			case iI64Sub:
				n := len(e.stack)
				e.stack[n-2] -= e.stack[n-1]
				e.stack = e.stack[:n-1]
			case iI64LeS:
				n := len(e.stack)
				e.stack[n-2] = b2i(int64(e.stack[n-2]) <= int64(e.stack[n-1]))
				e.stack = e.stack[:n-1]
			case iI32WrapI64, iI64ExtendI32U:
				v := &e.stack[len(e.stack)-1]
				*v = uint64(uint32(*v))

			// Fused superinstructions (fuse.go), present only in the
			// TierFused code array. Each variant is written out so the
			// dispatch switch stays a single jump table — one indirect
			// branch per folded sequence instead of one per instruction.

			// [const, binop]
			case iFConstBin + fAdd:
				v := &e.stack[len(e.stack)-1]
				*v = uint64(uint32(*v) + uint32(in.imm))
			case iFConstBin + fSub:
				v := &e.stack[len(e.stack)-1]
				*v = uint64(uint32(*v) - uint32(in.imm))
			case iFConstBin + fMul:
				v := &e.stack[len(e.stack)-1]
				*v = uint64(uint32(*v) * uint32(in.imm))
			case iFConstBin + fAnd:
				v := &e.stack[len(e.stack)-1]
				*v = uint64(uint32(*v) & uint32(in.imm))
			case iFConstBin + fOr:
				v := &e.stack[len(e.stack)-1]
				*v = uint64(uint32(*v) | uint32(in.imm))
			case iFConstBin + fXor:
				v := &e.stack[len(e.stack)-1]
				*v = uint64(uint32(*v) ^ uint32(in.imm))
			case iFConstBin + fShl:
				v := &e.stack[len(e.stack)-1]
				*v = uint64(uint32(*v) << (uint32(in.imm) & 31))
			case iFConstBin + fShrS:
				v := &e.stack[len(e.stack)-1]
				*v = uint64(uint32(int32(*v) >> (uint32(in.imm) & 31)))
			case iFConstBin + fShrU:
				v := &e.stack[len(e.stack)-1]
				*v = uint64(uint32(*v) >> (uint32(in.imm) & 31))

			// [get, const, binop]
			case iFGetConstBin + fAdd:
				e.push(uint64(uint32(e.stack[base+int(in.a)]) + uint32(in.imm)))
			case iFGetConstBin + fSub:
				e.push(uint64(uint32(e.stack[base+int(in.a)]) - uint32(in.imm)))
			case iFGetConstBin + fMul:
				e.push(uint64(uint32(e.stack[base+int(in.a)]) * uint32(in.imm)))
			case iFGetConstBin + fAnd:
				e.push(uint64(uint32(e.stack[base+int(in.a)]) & uint32(in.imm)))
			case iFGetConstBin + fOr:
				e.push(uint64(uint32(e.stack[base+int(in.a)]) | uint32(in.imm)))
			case iFGetConstBin + fXor:
				e.push(uint64(uint32(e.stack[base+int(in.a)]) ^ uint32(in.imm)))
			case iFGetConstBin + fShl:
				e.push(uint64(uint32(e.stack[base+int(in.a)]) << (uint32(in.imm) & 31)))
			case iFGetConstBin + fShrS:
				e.push(uint64(uint32(int32(e.stack[base+int(in.a)]) >> (uint32(in.imm) & 31))))
			case iFGetConstBin + fShrU:
				e.push(uint64(uint32(e.stack[base+int(in.a)]) >> (uint32(in.imm) & 31)))

			// [get, const, binop, set] — fully register-ized: no operand
			// stack traffic at all.
			case iFGetConstBinSet + fAdd:
				e.stack[base+int(in.c)] = uint64(uint32(e.stack[base+int(in.a)]) + uint32(in.imm))
			case iFGetConstBinSet + fSub:
				e.stack[base+int(in.c)] = uint64(uint32(e.stack[base+int(in.a)]) - uint32(in.imm))
			case iFGetConstBinSet + fMul:
				e.stack[base+int(in.c)] = uint64(uint32(e.stack[base+int(in.a)]) * uint32(in.imm))
			case iFGetConstBinSet + fAnd:
				e.stack[base+int(in.c)] = uint64(uint32(e.stack[base+int(in.a)]) & uint32(in.imm))
			case iFGetConstBinSet + fOr:
				e.stack[base+int(in.c)] = uint64(uint32(e.stack[base+int(in.a)]) | uint32(in.imm))
			case iFGetConstBinSet + fXor:
				e.stack[base+int(in.c)] = uint64(uint32(e.stack[base+int(in.a)]) ^ uint32(in.imm))
			case iFGetConstBinSet + fShl:
				e.stack[base+int(in.c)] = uint64(uint32(e.stack[base+int(in.a)]) << (uint32(in.imm) & 31))
			case iFGetConstBinSet + fShrS:
				e.stack[base+int(in.c)] = uint64(uint32(int32(e.stack[base+int(in.a)]) >> (uint32(in.imm) & 31)))
			case iFGetConstBinSet + fShrU:
				e.stack[base+int(in.c)] = uint64(uint32(e.stack[base+int(in.a)]) >> (uint32(in.imm) & 31))

			// [get, get, binop]
			case iFGetGetBin + fAdd:
				e.push(uint64(uint32(e.stack[base+int(in.a)]) + uint32(e.stack[base+int(in.b)])))
			case iFGetGetBin + fSub:
				e.push(uint64(uint32(e.stack[base+int(in.a)]) - uint32(e.stack[base+int(in.b)])))
			case iFGetGetBin + fMul:
				e.push(uint64(uint32(e.stack[base+int(in.a)]) * uint32(e.stack[base+int(in.b)])))
			case iFGetGetBin + fAnd:
				e.push(uint64(uint32(e.stack[base+int(in.a)]) & uint32(e.stack[base+int(in.b)])))
			case iFGetGetBin + fOr:
				e.push(uint64(uint32(e.stack[base+int(in.a)]) | uint32(e.stack[base+int(in.b)])))
			case iFGetGetBin + fXor:
				e.push(uint64(uint32(e.stack[base+int(in.a)]) ^ uint32(e.stack[base+int(in.b)])))
			case iFGetGetBin + fShl:
				e.push(uint64(uint32(e.stack[base+int(in.a)]) << (uint32(e.stack[base+int(in.b)]) & 31)))
			case iFGetGetBin + fShrS:
				e.push(uint64(uint32(int32(e.stack[base+int(in.a)]) >> (uint32(e.stack[base+int(in.b)]) & 31))))
			case iFGetGetBin + fShrU:
				e.push(uint64(uint32(e.stack[base+int(in.a)]) >> (uint32(e.stack[base+int(in.b)]) & 31)))

			// [get, get, binop, set]
			case iFGetGetBinSet + fAdd:
				e.stack[base+int(in.c)] = uint64(uint32(e.stack[base+int(in.a)]) + uint32(e.stack[base+int(in.b)]))
			case iFGetGetBinSet + fSub:
				e.stack[base+int(in.c)] = uint64(uint32(e.stack[base+int(in.a)]) - uint32(e.stack[base+int(in.b)]))
			case iFGetGetBinSet + fMul:
				e.stack[base+int(in.c)] = uint64(uint32(e.stack[base+int(in.a)]) * uint32(e.stack[base+int(in.b)]))
			case iFGetGetBinSet + fAnd:
				e.stack[base+int(in.c)] = uint64(uint32(e.stack[base+int(in.a)]) & uint32(e.stack[base+int(in.b)]))
			case iFGetGetBinSet + fOr:
				e.stack[base+int(in.c)] = uint64(uint32(e.stack[base+int(in.a)]) | uint32(e.stack[base+int(in.b)]))
			case iFGetGetBinSet + fXor:
				e.stack[base+int(in.c)] = uint64(uint32(e.stack[base+int(in.a)]) ^ uint32(e.stack[base+int(in.b)]))
			case iFGetGetBinSet + fShl:
				e.stack[base+int(in.c)] = uint64(uint32(e.stack[base+int(in.a)]) << (uint32(e.stack[base+int(in.b)]) & 31))
			case iFGetGetBinSet + fShrS:
				e.stack[base+int(in.c)] = uint64(uint32(int32(e.stack[base+int(in.a)]) >> (uint32(e.stack[base+int(in.b)]) & 31)))
			case iFGetGetBinSet + fShrU:
				e.stack[base+int(in.c)] = uint64(uint32(e.stack[base+int(in.a)]) >> (uint32(e.stack[base+int(in.b)]) & 31))

			// [binop, set]
			case iFBinSet + fAdd:
				n := len(e.stack)
				e.stack[base+int(in.a)] = uint64(uint32(e.stack[n-2]) + uint32(e.stack[n-1]))
				e.stack = e.stack[:n-2]
			case iFBinSet + fSub:
				n := len(e.stack)
				e.stack[base+int(in.a)] = uint64(uint32(e.stack[n-2]) - uint32(e.stack[n-1]))
				e.stack = e.stack[:n-2]
			case iFBinSet + fMul:
				n := len(e.stack)
				e.stack[base+int(in.a)] = uint64(uint32(e.stack[n-2]) * uint32(e.stack[n-1]))
				e.stack = e.stack[:n-2]
			case iFBinSet + fAnd:
				n := len(e.stack)
				e.stack[base+int(in.a)] = uint64(uint32(e.stack[n-2]) & uint32(e.stack[n-1]))
				e.stack = e.stack[:n-2]
			case iFBinSet + fOr:
				n := len(e.stack)
				e.stack[base+int(in.a)] = uint64(uint32(e.stack[n-2]) | uint32(e.stack[n-1]))
				e.stack = e.stack[:n-2]
			case iFBinSet + fXor:
				n := len(e.stack)
				e.stack[base+int(in.a)] = uint64(uint32(e.stack[n-2]) ^ uint32(e.stack[n-1]))
				e.stack = e.stack[:n-2]
			case iFBinSet + fShl:
				n := len(e.stack)
				e.stack[base+int(in.a)] = uint64(uint32(e.stack[n-2]) << (uint32(e.stack[n-1]) & 31))
				e.stack = e.stack[:n-2]
			case iFBinSet + fShrS:
				n := len(e.stack)
				e.stack[base+int(in.a)] = uint64(uint32(int32(e.stack[n-2]) >> (uint32(e.stack[n-1]) & 31)))
				e.stack = e.stack[:n-2]
			case iFBinSet + fShrU:
				n := len(e.stack)
				e.stack[base+int(in.a)] = uint64(uint32(e.stack[n-2]) >> (uint32(e.stack[n-1]) & 31))
				e.stack = e.stack[:n-2]

			// [cmp, br_if] — the condition is consumed whether or not the
			// branch is taken, exactly like the unfused pair.
			case iFCmpBr + fEq:
				n := len(e.stack)
				x, y := e.stack[n-2], e.stack[n-1]
				e.stack = e.stack[:n-2]
				if uint32(x) == uint32(y) {
					e.slide(lbase+int(in.b), int(in.c))
					pc = int(in.a)
				}
			case iFCmpBr + fNe:
				n := len(e.stack)
				x, y := e.stack[n-2], e.stack[n-1]
				e.stack = e.stack[:n-2]
				if uint32(x) != uint32(y) {
					e.slide(lbase+int(in.b), int(in.c))
					pc = int(in.a)
				}
			case iFCmpBr + fLtS:
				n := len(e.stack)
				x, y := e.stack[n-2], e.stack[n-1]
				e.stack = e.stack[:n-2]
				if int32(x) < int32(y) {
					e.slide(lbase+int(in.b), int(in.c))
					pc = int(in.a)
				}
			case iFCmpBr + fLtU:
				n := len(e.stack)
				x, y := e.stack[n-2], e.stack[n-1]
				e.stack = e.stack[:n-2]
				if uint32(x) < uint32(y) {
					e.slide(lbase+int(in.b), int(in.c))
					pc = int(in.a)
				}
			case iFCmpBr + fGtS:
				n := len(e.stack)
				x, y := e.stack[n-2], e.stack[n-1]
				e.stack = e.stack[:n-2]
				if int32(x) > int32(y) {
					e.slide(lbase+int(in.b), int(in.c))
					pc = int(in.a)
				}
			case iFCmpBr + fGtU:
				n := len(e.stack)
				x, y := e.stack[n-2], e.stack[n-1]
				e.stack = e.stack[:n-2]
				if uint32(x) > uint32(y) {
					e.slide(lbase+int(in.b), int(in.c))
					pc = int(in.a)
				}
			case iFCmpBr + fLeS:
				n := len(e.stack)
				x, y := e.stack[n-2], e.stack[n-1]
				e.stack = e.stack[:n-2]
				if int32(x) <= int32(y) {
					e.slide(lbase+int(in.b), int(in.c))
					pc = int(in.a)
				}
			case iFCmpBr + fLeU:
				n := len(e.stack)
				x, y := e.stack[n-2], e.stack[n-1]
				e.stack = e.stack[:n-2]
				if uint32(x) <= uint32(y) {
					e.slide(lbase+int(in.b), int(in.c))
					pc = int(in.a)
				}
			case iFCmpBr + fGeS:
				n := len(e.stack)
				x, y := e.stack[n-2], e.stack[n-1]
				e.stack = e.stack[:n-2]
				if int32(x) >= int32(y) {
					e.slide(lbase+int(in.b), int(in.c))
					pc = int(in.a)
				}
			case iFCmpBr + fGeU:
				n := len(e.stack)
				x, y := e.stack[n-2], e.stack[n-1]
				e.stack = e.stack[:n-2]
				if uint32(x) >= uint32(y) {
					e.slide(lbase+int(in.b), int(in.c))
					pc = int(in.a)
				}

			// [cmp, if] — if jumps to its false-target when the compare
			// fails, so each arm tests the negation.
			case iFCmpIf + fEq:
				n := len(e.stack)
				x, y := e.stack[n-2], e.stack[n-1]
				e.stack = e.stack[:n-2]
				if uint32(x) != uint32(y) {
					pc = int(in.a)
				}
			case iFCmpIf + fNe:
				n := len(e.stack)
				x, y := e.stack[n-2], e.stack[n-1]
				e.stack = e.stack[:n-2]
				if uint32(x) == uint32(y) {
					pc = int(in.a)
				}
			case iFCmpIf + fLtS:
				n := len(e.stack)
				x, y := e.stack[n-2], e.stack[n-1]
				e.stack = e.stack[:n-2]
				if int32(x) >= int32(y) {
					pc = int(in.a)
				}
			case iFCmpIf + fLtU:
				n := len(e.stack)
				x, y := e.stack[n-2], e.stack[n-1]
				e.stack = e.stack[:n-2]
				if uint32(x) >= uint32(y) {
					pc = int(in.a)
				}
			case iFCmpIf + fGtS:
				n := len(e.stack)
				x, y := e.stack[n-2], e.stack[n-1]
				e.stack = e.stack[:n-2]
				if int32(x) <= int32(y) {
					pc = int(in.a)
				}
			case iFCmpIf + fGtU:
				n := len(e.stack)
				x, y := e.stack[n-2], e.stack[n-1]
				e.stack = e.stack[:n-2]
				if uint32(x) <= uint32(y) {
					pc = int(in.a)
				}
			case iFCmpIf + fLeS:
				n := len(e.stack)
				x, y := e.stack[n-2], e.stack[n-1]
				e.stack = e.stack[:n-2]
				if int32(x) > int32(y) {
					pc = int(in.a)
				}
			case iFCmpIf + fLeU:
				n := len(e.stack)
				x, y := e.stack[n-2], e.stack[n-1]
				e.stack = e.stack[:n-2]
				if uint32(x) > uint32(y) {
					pc = int(in.a)
				}
			case iFCmpIf + fGeS:
				n := len(e.stack)
				x, y := e.stack[n-2], e.stack[n-1]
				e.stack = e.stack[:n-2]
				if int32(x) < int32(y) {
					pc = int(in.a)
				}
			case iFCmpIf + fGeU:
				n := len(e.stack)
				x, y := e.stack[n-2], e.stack[n-1]
				e.stack = e.stack[:n-2]
				if uint32(x) < uint32(y) {
					pc = int(in.a)
				}

			// [get, const, cmp, br_if] — the loop-exit shape
			// (local.get i; i32.const N; i32.ge_u; br_if): one dispatch,
			// zero stack traffic.
			case iFGetConstCmpBr + fEq:
				if uint32(e.stack[base+int(in.imm>>32)]) == uint32(in.imm) {
					e.slide(lbase+int(in.b), int(in.c))
					pc = int(in.a)
				}
			case iFGetConstCmpBr + fNe:
				if uint32(e.stack[base+int(in.imm>>32)]) != uint32(in.imm) {
					e.slide(lbase+int(in.b), int(in.c))
					pc = int(in.a)
				}
			case iFGetConstCmpBr + fLtS:
				if int32(e.stack[base+int(in.imm>>32)]) < int32(in.imm) {
					e.slide(lbase+int(in.b), int(in.c))
					pc = int(in.a)
				}
			case iFGetConstCmpBr + fLtU:
				if uint32(e.stack[base+int(in.imm>>32)]) < uint32(in.imm) {
					e.slide(lbase+int(in.b), int(in.c))
					pc = int(in.a)
				}
			case iFGetConstCmpBr + fGtS:
				if int32(e.stack[base+int(in.imm>>32)]) > int32(in.imm) {
					e.slide(lbase+int(in.b), int(in.c))
					pc = int(in.a)
				}
			case iFGetConstCmpBr + fGtU:
				if uint32(e.stack[base+int(in.imm>>32)]) > uint32(in.imm) {
					e.slide(lbase+int(in.b), int(in.c))
					pc = int(in.a)
				}
			case iFGetConstCmpBr + fLeS:
				if int32(e.stack[base+int(in.imm>>32)]) <= int32(in.imm) {
					e.slide(lbase+int(in.b), int(in.c))
					pc = int(in.a)
				}
			case iFGetConstCmpBr + fLeU:
				if uint32(e.stack[base+int(in.imm>>32)]) <= uint32(in.imm) {
					e.slide(lbase+int(in.b), int(in.c))
					pc = int(in.a)
				}
			case iFGetConstCmpBr + fGeS:
				if int32(e.stack[base+int(in.imm>>32)]) >= int32(in.imm) {
					e.slide(lbase+int(in.b), int(in.c))
					pc = int(in.a)
				}
			case iFGetConstCmpBr + fGeU:
				if uint32(e.stack[base+int(in.imm>>32)]) >= uint32(in.imm) {
					e.slide(lbase+int(in.b), int(in.c))
					pc = int(in.a)
				}

			// [get, const, cmp, if]
			case iFGetConstCmpIf + fEq:
				if uint32(e.stack[base+int(in.imm>>32)]) != uint32(in.imm) {
					pc = int(in.a)
				}
			case iFGetConstCmpIf + fNe:
				if uint32(e.stack[base+int(in.imm>>32)]) == uint32(in.imm) {
					pc = int(in.a)
				}
			case iFGetConstCmpIf + fLtS:
				if int32(e.stack[base+int(in.imm>>32)]) >= int32(in.imm) {
					pc = int(in.a)
				}
			case iFGetConstCmpIf + fLtU:
				if uint32(e.stack[base+int(in.imm>>32)]) >= uint32(in.imm) {
					pc = int(in.a)
				}
			case iFGetConstCmpIf + fGtS:
				if int32(e.stack[base+int(in.imm>>32)]) <= int32(in.imm) {
					pc = int(in.a)
				}
			case iFGetConstCmpIf + fGtU:
				if uint32(e.stack[base+int(in.imm>>32)]) <= uint32(in.imm) {
					pc = int(in.a)
				}
			case iFGetConstCmpIf + fLeS:
				if int32(e.stack[base+int(in.imm>>32)]) > int32(in.imm) {
					pc = int(in.a)
				}
			case iFGetConstCmpIf + fLeU:
				if uint32(e.stack[base+int(in.imm>>32)]) > uint32(in.imm) {
					pc = int(in.a)
				}
			case iFGetConstCmpIf + fGeS:
				if int32(e.stack[base+int(in.imm>>32)]) < int32(in.imm) {
					pc = int(in.a)
				}
			case iFGetConstCmpIf + fGeU:
				if uint32(e.stack[base+int(in.imm>>32)]) < uint32(in.imm) {
					pc = int(in.a)
				}

			// [get, get, cmp, br_if]
			case iFGetGetCmpBr + fEq:
				if uint32(e.stack[base+int(in.imm>>32)]) == uint32(e.stack[base+int(uint32(in.imm))]) {
					e.slide(lbase+int(in.b), int(in.c))
					pc = int(in.a)
				}
			case iFGetGetCmpBr + fNe:
				if uint32(e.stack[base+int(in.imm>>32)]) != uint32(e.stack[base+int(uint32(in.imm))]) {
					e.slide(lbase+int(in.b), int(in.c))
					pc = int(in.a)
				}
			case iFGetGetCmpBr + fLtS:
				if int32(e.stack[base+int(in.imm>>32)]) < int32(e.stack[base+int(uint32(in.imm))]) {
					e.slide(lbase+int(in.b), int(in.c))
					pc = int(in.a)
				}
			case iFGetGetCmpBr + fLtU:
				if uint32(e.stack[base+int(in.imm>>32)]) < uint32(e.stack[base+int(uint32(in.imm))]) {
					e.slide(lbase+int(in.b), int(in.c))
					pc = int(in.a)
				}
			case iFGetGetCmpBr + fGtS:
				if int32(e.stack[base+int(in.imm>>32)]) > int32(e.stack[base+int(uint32(in.imm))]) {
					e.slide(lbase+int(in.b), int(in.c))
					pc = int(in.a)
				}
			case iFGetGetCmpBr + fGtU:
				if uint32(e.stack[base+int(in.imm>>32)]) > uint32(e.stack[base+int(uint32(in.imm))]) {
					e.slide(lbase+int(in.b), int(in.c))
					pc = int(in.a)
				}
			case iFGetGetCmpBr + fLeS:
				if int32(e.stack[base+int(in.imm>>32)]) <= int32(e.stack[base+int(uint32(in.imm))]) {
					e.slide(lbase+int(in.b), int(in.c))
					pc = int(in.a)
				}
			case iFGetGetCmpBr + fLeU:
				if uint32(e.stack[base+int(in.imm>>32)]) <= uint32(e.stack[base+int(uint32(in.imm))]) {
					e.slide(lbase+int(in.b), int(in.c))
					pc = int(in.a)
				}
			case iFGetGetCmpBr + fGeS:
				if int32(e.stack[base+int(in.imm>>32)]) >= int32(e.stack[base+int(uint32(in.imm))]) {
					e.slide(lbase+int(in.b), int(in.c))
					pc = int(in.a)
				}
			case iFGetGetCmpBr + fGeU:
				if uint32(e.stack[base+int(in.imm>>32)]) >= uint32(e.stack[base+int(uint32(in.imm))]) {
					e.slide(lbase+int(in.b), int(in.c))
					pc = int(in.a)
				}

			// [get, get, cmp, if]
			case iFGetGetCmpIf + fEq:
				if uint32(e.stack[base+int(in.imm>>32)]) != uint32(e.stack[base+int(uint32(in.imm))]) {
					pc = int(in.a)
				}
			case iFGetGetCmpIf + fNe:
				if uint32(e.stack[base+int(in.imm>>32)]) == uint32(e.stack[base+int(uint32(in.imm))]) {
					pc = int(in.a)
				}
			case iFGetGetCmpIf + fLtS:
				if int32(e.stack[base+int(in.imm>>32)]) >= int32(e.stack[base+int(uint32(in.imm))]) {
					pc = int(in.a)
				}
			case iFGetGetCmpIf + fLtU:
				if uint32(e.stack[base+int(in.imm>>32)]) >= uint32(e.stack[base+int(uint32(in.imm))]) {
					pc = int(in.a)
				}
			case iFGetGetCmpIf + fGtS:
				if int32(e.stack[base+int(in.imm>>32)]) <= int32(e.stack[base+int(uint32(in.imm))]) {
					pc = int(in.a)
				}
			case iFGetGetCmpIf + fGtU:
				if uint32(e.stack[base+int(in.imm>>32)]) <= uint32(e.stack[base+int(uint32(in.imm))]) {
					pc = int(in.a)
				}
			case iFGetGetCmpIf + fLeS:
				if int32(e.stack[base+int(in.imm>>32)]) > int32(e.stack[base+int(uint32(in.imm))]) {
					pc = int(in.a)
				}
			case iFGetGetCmpIf + fLeU:
				if uint32(e.stack[base+int(in.imm>>32)]) > uint32(e.stack[base+int(uint32(in.imm))]) {
					pc = int(in.a)
				}
			case iFGetGetCmpIf + fGeS:
				if int32(e.stack[base+int(in.imm>>32)]) < int32(e.stack[base+int(uint32(in.imm))]) {
					pc = int(in.a)
				}
			case iFGetGetCmpIf + fGeU:
				if uint32(e.stack[base+int(in.imm>>32)]) < uint32(e.stack[base+int(uint32(in.imm))]) {
					pc = int(in.a)
				}

			case iFEqzBr:
				if uint32(e.pop()) == 0 {
					e.slide(lbase+int(in.b), int(in.c))
					pc = int(in.a)
				}
			case iFEqzIf:
				if uint32(e.pop()) != 0 {
					pc = int(in.a)
				}
			case iFConstSet:
				e.stack[base+int(in.a)] = in.imm
			case iFGetSet:
				e.stack[base+int(in.c)] = e.stack[base+int(in.a)]
			case iFGetBrIf:
				if uint32(e.stack[base+int(in.imm)]) != 0 {
					e.slide(lbase+int(in.b), int(in.c))
					pc = int(in.a)
				}
			case iFGetLoad:
				// Push the address local, then run the shared load tail:
				// bounds traps throw from exactly the plain-tier state.
				e.push(e.stack[base+int(in.imm)])
				e.execMemAccess(inst.Mem, byte(in.b), in.a)

			// The xorshift/mix step: local[c] = local[a] ^ (local[b] ⊙ k).
			case iFShlXorSet:
				e.stack[base+int(in.c)] = uint64(uint32(e.stack[base+int(in.a)]) ^
					uint32(e.stack[base+int(in.b)])<<(uint32(in.imm)&31))
			case iFShrXorSet:
				e.stack[base+int(in.c)] = uint64(uint32(e.stack[base+int(in.a)]) ^
					uint32(e.stack[base+int(in.b)])>>(uint32(in.imm)&31))

			case iFGetConstAndEqzBr:
				if uint32(e.stack[base+int(in.imm>>32)])&uint32(in.imm) == 0 {
					e.slide(lbase+int(in.b), int(in.c))
					pc = int(in.a)
				}
			case iFGetConstAndEqzIf:
				if uint32(e.stack[base+int(in.imm>>32)])&uint32(in.imm) != 0 {
					pc = int(in.a)
				}
			case iFGetConstAddSetBr:
				e.stack[base+int((in.imm>>32)&0xffff)] =
					uint64(uint32(e.stack[base+int(in.imm>>48)]) + uint32(in.imm))
				e.slide(lbase+int(in.b), int(in.c))
				pc = int(in.a)
			}
		}
	}
}

// runWire executes the legacy wire-bytecode engine (TierWire), decoding
// LEB immediates and maintaining a runtime label stack per frame. Kept for
// differential testing against the IR engine.
func (e *Exec) runWire(minFrames int) {
	for len(e.frames) > minFrames {
		f := &e.frames[len(e.frames)-1]
		body := f.fn.body
		pc := f.pc
		opPC := pc
		if e.Scheme == SafepointEveryInst {
			// Poll before executing, with f.pc still addressing the
			// instruction, so a capture inside the poll resumes correctly
			// (same contract as runIR).
			e.safepoint()
			f = &e.frames[len(e.frames)-1]
		}
		op := body[pc]
		pc++
		e.Steps++
		if e.Ops != nil {
			e.Ops.note(op)
		}

		switch op {
		case wasm.OpUnreachable:
			Throw(TrapUnreachable, "")
		case wasm.OpNop:
			f.pc = pc

		case wasm.OpBlock:
			info := f.fn.side.ctrl[opPC]
			f.labels = append(f.labels, label{
				cont:   info.endPC + 1,
				height: len(e.stack) - info.paramArity,
				carry:  info.resultArity,
			})
			f.pc = info.bodyStart
		case wasm.OpLoop:
			info := f.fn.side.ctrl[opPC]
			f.labels = append(f.labels, label{
				cont:   info.bodyStart,
				height: len(e.stack) - info.paramArity,
				carry:  info.paramArity,
				isLoop: true,
			})
			f.pc = info.bodyStart
			if e.Scheme == SafepointLoop {
				e.safepoint()
			}
		case wasm.OpIf:
			info := f.fn.side.ctrl[opPC]
			cond := e.pop()
			f.labels = append(f.labels, label{
				cont:   info.endPC + 1,
				height: len(e.stack) - info.paramArity,
				carry:  info.resultArity,
			})
			if uint32(cond) != 0 {
				f.pc = info.bodyStart
			} else {
				f.pc = info.elseJump
			}
		case wasm.OpElse:
			// Reached only falling out of the true arm: jump to the End,
			// which pops the label.
			f.pc = f.fn.side.elseEnd[opPC]
		case wasm.OpEnd:
			if len(f.labels) > 0 {
				f.labels = f.labels[:len(f.labels)-1]
				f.pc = pc
			} else {
				e.doReturn()
			}

		case wasm.OpBr:
			depth, n := readU32(body, pc)
			pc += n
			f.pc = pc
			e.branch(f, int(depth))
		case wasm.OpBrIf:
			depth, n := readU32(body, pc)
			pc += n
			f.pc = pc
			if uint32(e.pop()) != 0 {
				e.branch(f, int(depth))
			}
		case wasm.OpBrTable:
			cnt, n := readU32(body, pc)
			pc += n
			i := uint32(e.pop())
			var target uint32
			for k := uint32(0); k <= cnt; k++ {
				d, n := readU32(body, pc)
				pc += n
				if (k == i && i < cnt) || (k == cnt && i >= cnt) {
					target = d
				}
			}
			f.pc = pc
			e.branch(f, int(target))
		case wasm.OpReturn:
			e.doReturn()

		case wasm.OpCall:
			idx, n := readU32(body, pc)
			pc += n
			f.pc = pc
			e.invokeIndex(f.inst, idx)
		case wasm.OpCallIndirect:
			ti, n := readU32(body, pc)
			pc += n
			_, n = readU32(body, pc) // table byte
			pc += n
			f.pc = pc
			inst := f.inst
			elem := uint32(e.pop())
			if int(elem) >= len(inst.Table) {
				Throw(TrapTableOutOfBounds, "element %d, table size %d", elem, len(inst.Table))
			}
			fidx := inst.Table[elem]
			if fidx < 0 {
				Throw(TrapNullFunc, "element %d", elem)
			}
			want := inst.Module.Types[ti]
			if !inst.funcs[fidx].typ.Equal(want) {
				Throw(TrapSigMismatch, "element %d: expected %v, got %v", elem, want, inst.funcs[fidx].typ)
			}
			e.invokeIndex(inst, uint32(fidx))

		case wasm.OpDrop:
			e.pop()
			f.pc = pc
		case wasm.OpSelect:
			c := uint32(e.pop())
			b := e.pop()
			a := e.pop()
			if c != 0 {
				e.push(a)
			} else {
				e.push(b)
			}
			f.pc = pc

		case wasm.OpLocalGet:
			idx, n := readU32(body, pc)
			pc += n
			e.push(e.stack[f.base+int(idx)])
			f.pc = pc
		case wasm.OpLocalSet:
			idx, n := readU32(body, pc)
			pc += n
			e.stack[f.base+int(idx)] = e.pop()
			f.pc = pc
		case wasm.OpLocalTee:
			idx, n := readU32(body, pc)
			pc += n
			e.stack[f.base+int(idx)] = *e.top()
			f.pc = pc
		case wasm.OpGlobalGet:
			idx, n := readU32(body, pc)
			pc += n
			e.push(f.inst.Globals[idx])
			f.pc = pc
		case wasm.OpGlobalSet:
			idx, n := readU32(body, pc)
			pc += n
			f.inst.Globals[idx] = e.pop()
			f.pc = pc

		case wasm.OpI32Const:
			v, n := readS32(body, pc)
			pc += n
			e.push(uint64(uint32(v)))
			f.pc = pc
		case wasm.OpI64Const:
			v, n := readS64(body, pc)
			pc += n
			e.push(uint64(v))
			f.pc = pc
		case wasm.OpF32Const:
			e.push(uint64(binary.LittleEndian.Uint32(body[pc:])))
			f.pc = pc + 4
		case wasm.OpF64Const:
			e.push(binary.LittleEndian.Uint64(body[pc:]))
			f.pc = pc + 8

		case wasm.OpMemorySize:
			_, n := readU32(body, pc) // LEB memory index
			pc += n
			e.push(uint64(f.inst.Mem.Pages()))
			f.pc = pc
		case wasm.OpMemoryGrow:
			_, n := readU32(body, pc)
			pc += n
			delta := uint32(e.pop())
			e.push(uint64(uint32(f.inst.Mem.Grow(delta))))
			f.pc = pc

		case wasm.OpPrefixFC:
			sub, n := readU32(body, pc)
			pc += n
			switch sub {
			case wasm.FCMemoryCopy:
				_, n1 := readU32(body, pc)
				pc += n1
				_, n2 := readU32(body, pc)
				pc += n2
				ln := uint32(e.pop())
				src := uint32(e.pop())
				dst := uint32(e.pop())
				mem := f.inst.Mem
				if !mem.CopyRange(dst, src, ln) {
					Throw(TrapMemOutOfBounds, "memory.copy dst=%d src=%d len=%d", dst, src, ln)
				}
			case wasm.FCMemoryFill:
				_, n := readU32(body, pc)
				pc += n
				ln := uint32(e.pop())
				val := byte(e.pop())
				dst := uint32(e.pop())
				mem := f.inst.Mem
				if !mem.FillRange(dst, val, ln) {
					Throw(TrapMemOutOfBounds, "memory.fill dst=%d len=%d", dst, ln)
				}
			default:
				e.execTruncSat(sub)
			}
			f.pc = pc

		default:
			if op >= wasm.OpI32Load && op <= wasm.OpI64Store32 {
				// memarg: align, offset
				_, n1 := readU32(body, pc)
				pc += n1
				off, n2 := readU32(body, pc)
				pc += n2
				f.pc = pc
				e.execMemAccess(f.inst.Mem, op, off)
			} else {
				f.pc = pc
				e.execNumeric(op)
			}
		}
	}
}

// effAddr computes the effective 33-bit address and traps if the access
// would exceed memory.
func effAddr(mem *Memory, base, off, size uint32) uint64 {
	addr := uint64(base) + uint64(off)
	if addr+uint64(size) > mem.size {
		Throw(TrapMemOutOfBounds, "address %d size %d, memory %d bytes", addr, size, mem.size)
	}
	return addr
}

func (e *Exec) execMemAccess(mem *Memory, op byte, off uint32) {
	switch op {
	case wasm.OpI32Load:
		a := effAddr(mem, uint32(e.pop()), off, 4)
		e.push(uint64(sharedLoadU32(mem, a)))
	case wasm.OpI64Load:
		a := effAddr(mem, uint32(e.pop()), off, 8)
		e.push(sharedLoadU64(mem, a))
	case wasm.OpF32Load:
		a := effAddr(mem, uint32(e.pop()), off, 4)
		e.push(uint64(sharedLoadU32(mem, a)))
	case wasm.OpF64Load:
		a := effAddr(mem, uint32(e.pop()), off, 8)
		e.push(sharedLoadU64(mem, a))
	case wasm.OpI32Load8S:
		a := effAddr(mem, uint32(e.pop()), off, 1)
		e.push(uint64(uint32(int32(int8(memLoad8(mem, a))))))
	case wasm.OpI32Load8U:
		a := effAddr(mem, uint32(e.pop()), off, 1)
		e.push(uint64(memLoad8(mem, a)))
	case wasm.OpI32Load16S:
		a := effAddr(mem, uint32(e.pop()), off, 2)
		e.push(uint64(uint32(int32(int16(memLoad16(mem, a))))))
	case wasm.OpI32Load16U:
		a := effAddr(mem, uint32(e.pop()), off, 2)
		e.push(uint64(memLoad16(mem, a)))
	case wasm.OpI64Load8S:
		a := effAddr(mem, uint32(e.pop()), off, 1)
		e.push(uint64(int64(int8(memLoad8(mem, a)))))
	case wasm.OpI64Load8U:
		a := effAddr(mem, uint32(e.pop()), off, 1)
		e.push(uint64(memLoad8(mem, a)))
	case wasm.OpI64Load16S:
		a := effAddr(mem, uint32(e.pop()), off, 2)
		e.push(uint64(int64(int16(memLoad16(mem, a)))))
	case wasm.OpI64Load16U:
		a := effAddr(mem, uint32(e.pop()), off, 2)
		e.push(uint64(memLoad16(mem, a)))
	case wasm.OpI64Load32S:
		a := effAddr(mem, uint32(e.pop()), off, 4)
		e.push(uint64(int64(int32(sharedLoadU32(mem, a)))))
	case wasm.OpI64Load32U:
		a := effAddr(mem, uint32(e.pop()), off, 4)
		e.push(uint64(sharedLoadU32(mem, a)))
	case wasm.OpI32Store:
		v := uint32(e.pop())
		a := effAddr(mem, uint32(e.pop()), off, 4)
		sharedStoreU32(mem, a, v)
	case wasm.OpI64Store:
		v := e.pop()
		a := effAddr(mem, uint32(e.pop()), off, 8)
		sharedStoreU64(mem, a, v)
	case wasm.OpF32Store:
		v := uint32(e.pop())
		a := effAddr(mem, uint32(e.pop()), off, 4)
		sharedStoreU32(mem, a, v)
	case wasm.OpF64Store:
		v := e.pop()
		a := effAddr(mem, uint32(e.pop()), off, 8)
		sharedStoreU64(mem, a, v)
	case wasm.OpI32Store8, wasm.OpI64Store8:
		v := byte(e.pop())
		a := effAddr(mem, uint32(e.pop()), off, 1)
		memStore8(mem, a, v)
	case wasm.OpI32Store16, wasm.OpI64Store16:
		v := uint16(e.pop())
		a := effAddr(mem, uint32(e.pop()), off, 2)
		memStore16(mem, a, v)
	case wasm.OpI64Store32:
		v := uint32(e.pop())
		a := effAddr(mem, uint32(e.pop()), off, 4)
		sharedStoreU32(mem, a, v)
	}
}

func f32bits(v uint64) float32  { return math.Float32frombits(uint32(v)) }
func f64bits(v uint64) float64  { return math.Float64frombits(v) }
func pushF32b(f float32) uint64 { return uint64(math.Float32bits(f)) }
func pushF64b(f float64) uint64 { return math.Float64bits(f) }

func b2i(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func (e *Exec) execNumeric(op byte) {
	switch op {
	// i32 compare
	case wasm.OpI32Eqz:
		*e.top() = b2i(uint32(*e.top()) == 0)
	case wasm.OpI32Eq:
		b := uint32(e.pop())
		*e.top() = b2i(uint32(*e.top()) == b)
	case wasm.OpI32Ne:
		b := uint32(e.pop())
		*e.top() = b2i(uint32(*e.top()) != b)
	case wasm.OpI32LtS:
		b := int32(e.pop())
		*e.top() = b2i(int32(*e.top()) < b)
	case wasm.OpI32LtU:
		b := uint32(e.pop())
		*e.top() = b2i(uint32(*e.top()) < b)
	case wasm.OpI32GtS:
		b := int32(e.pop())
		*e.top() = b2i(int32(*e.top()) > b)
	case wasm.OpI32GtU:
		b := uint32(e.pop())
		*e.top() = b2i(uint32(*e.top()) > b)
	case wasm.OpI32LeS:
		b := int32(e.pop())
		*e.top() = b2i(int32(*e.top()) <= b)
	case wasm.OpI32LeU:
		b := uint32(e.pop())
		*e.top() = b2i(uint32(*e.top()) <= b)
	case wasm.OpI32GeS:
		b := int32(e.pop())
		*e.top() = b2i(int32(*e.top()) >= b)
	case wasm.OpI32GeU:
		b := uint32(e.pop())
		*e.top() = b2i(uint32(*e.top()) >= b)

	// i64 compare
	case wasm.OpI64Eqz:
		*e.top() = b2i(*e.top() == 0)
	case wasm.OpI64Eq:
		b := e.pop()
		*e.top() = b2i(*e.top() == b)
	case wasm.OpI64Ne:
		b := e.pop()
		*e.top() = b2i(*e.top() != b)
	case wasm.OpI64LtS:
		b := int64(e.pop())
		*e.top() = b2i(int64(*e.top()) < b)
	case wasm.OpI64LtU:
		b := e.pop()
		*e.top() = b2i(*e.top() < b)
	case wasm.OpI64GtS:
		b := int64(e.pop())
		*e.top() = b2i(int64(*e.top()) > b)
	case wasm.OpI64GtU:
		b := e.pop()
		*e.top() = b2i(*e.top() > b)
	case wasm.OpI64LeS:
		b := int64(e.pop())
		*e.top() = b2i(int64(*e.top()) <= b)
	case wasm.OpI64LeU:
		b := e.pop()
		*e.top() = b2i(*e.top() <= b)
	case wasm.OpI64GeS:
		b := int64(e.pop())
		*e.top() = b2i(int64(*e.top()) >= b)
	case wasm.OpI64GeU:
		b := e.pop()
		*e.top() = b2i(*e.top() >= b)

	// f32 compare
	case wasm.OpF32Eq:
		b := f32bits(e.pop())
		*e.top() = b2i(f32bits(*e.top()) == b)
	case wasm.OpF32Ne:
		b := f32bits(e.pop())
		*e.top() = b2i(f32bits(*e.top()) != b)
	case wasm.OpF32Lt:
		b := f32bits(e.pop())
		*e.top() = b2i(f32bits(*e.top()) < b)
	case wasm.OpF32Gt:
		b := f32bits(e.pop())
		*e.top() = b2i(f32bits(*e.top()) > b)
	case wasm.OpF32Le:
		b := f32bits(e.pop())
		*e.top() = b2i(f32bits(*e.top()) <= b)
	case wasm.OpF32Ge:
		b := f32bits(e.pop())
		*e.top() = b2i(f32bits(*e.top()) >= b)

	// f64 compare
	case wasm.OpF64Eq:
		b := f64bits(e.pop())
		*e.top() = b2i(f64bits(*e.top()) == b)
	case wasm.OpF64Ne:
		b := f64bits(e.pop())
		*e.top() = b2i(f64bits(*e.top()) != b)
	case wasm.OpF64Lt:
		b := f64bits(e.pop())
		*e.top() = b2i(f64bits(*e.top()) < b)
	case wasm.OpF64Gt:
		b := f64bits(e.pop())
		*e.top() = b2i(f64bits(*e.top()) > b)
	case wasm.OpF64Le:
		b := f64bits(e.pop())
		*e.top() = b2i(f64bits(*e.top()) <= b)
	case wasm.OpF64Ge:
		b := f64bits(e.pop())
		*e.top() = b2i(f64bits(*e.top()) >= b)

	// i32 arithmetic
	case wasm.OpI32Clz:
		*e.top() = uint64(bits.LeadingZeros32(uint32(*e.top())))
	case wasm.OpI32Ctz:
		*e.top() = uint64(bits.TrailingZeros32(uint32(*e.top())))
	case wasm.OpI32Popcnt:
		*e.top() = uint64(bits.OnesCount32(uint32(*e.top())))
	case wasm.OpI32Add:
		b := uint32(e.pop())
		*e.top() = uint64(uint32(*e.top()) + b)
	case wasm.OpI32Sub:
		b := uint32(e.pop())
		*e.top() = uint64(uint32(*e.top()) - b)
	case wasm.OpI32Mul:
		b := uint32(e.pop())
		*e.top() = uint64(uint32(*e.top()) * b)
	case wasm.OpI32DivS:
		b := int32(e.pop())
		a := int32(*e.top())
		if b == 0 {
			Throw(TrapDivByZero, "i32.div_s")
		}
		if a == math.MinInt32 && b == -1 {
			Throw(TrapIntOverflow, "i32.div_s")
		}
		*e.top() = uint64(uint32(a / b))
	case wasm.OpI32DivU:
		b := uint32(e.pop())
		if b == 0 {
			Throw(TrapDivByZero, "i32.div_u")
		}
		*e.top() = uint64(uint32(*e.top()) / b)
	case wasm.OpI32RemS:
		b := int32(e.pop())
		a := int32(*e.top())
		if b == 0 {
			Throw(TrapDivByZero, "i32.rem_s")
		}
		if a == math.MinInt32 && b == -1 {
			*e.top() = 0
		} else {
			*e.top() = uint64(uint32(a % b))
		}
	case wasm.OpI32RemU:
		b := uint32(e.pop())
		if b == 0 {
			Throw(TrapDivByZero, "i32.rem_u")
		}
		*e.top() = uint64(uint32(*e.top()) % b)
	case wasm.OpI32And:
		b := uint32(e.pop())
		*e.top() = uint64(uint32(*e.top()) & b)
	case wasm.OpI32Or:
		b := uint32(e.pop())
		*e.top() = uint64(uint32(*e.top()) | b)
	case wasm.OpI32Xor:
		b := uint32(e.pop())
		*e.top() = uint64(uint32(*e.top()) ^ b)
	case wasm.OpI32Shl:
		b := uint32(e.pop()) & 31
		*e.top() = uint64(uint32(*e.top()) << b)
	case wasm.OpI32ShrS:
		b := uint32(e.pop()) & 31
		*e.top() = uint64(uint32(int32(*e.top()) >> b))
	case wasm.OpI32ShrU:
		b := uint32(e.pop()) & 31
		*e.top() = uint64(uint32(*e.top()) >> b)
	case wasm.OpI32Rotl:
		b := int(uint32(e.pop()) & 31)
		*e.top() = uint64(bits.RotateLeft32(uint32(*e.top()), b))
	case wasm.OpI32Rotr:
		b := int(uint32(e.pop()) & 31)
		*e.top() = uint64(bits.RotateLeft32(uint32(*e.top()), -b))

	// i64 arithmetic
	case wasm.OpI64Clz:
		*e.top() = uint64(bits.LeadingZeros64(*e.top()))
	case wasm.OpI64Ctz:
		*e.top() = uint64(bits.TrailingZeros64(*e.top()))
	case wasm.OpI64Popcnt:
		*e.top() = uint64(bits.OnesCount64(*e.top()))
	case wasm.OpI64Add:
		b := e.pop()
		*e.top() += b
	case wasm.OpI64Sub:
		b := e.pop()
		*e.top() -= b
	case wasm.OpI64Mul:
		b := e.pop()
		*e.top() *= b
	case wasm.OpI64DivS:
		b := int64(e.pop())
		a := int64(*e.top())
		if b == 0 {
			Throw(TrapDivByZero, "i64.div_s")
		}
		if a == math.MinInt64 && b == -1 {
			Throw(TrapIntOverflow, "i64.div_s")
		}
		*e.top() = uint64(a / b)
	case wasm.OpI64DivU:
		b := e.pop()
		if b == 0 {
			Throw(TrapDivByZero, "i64.div_u")
		}
		*e.top() /= b
	case wasm.OpI64RemS:
		b := int64(e.pop())
		a := int64(*e.top())
		if b == 0 {
			Throw(TrapDivByZero, "i64.rem_s")
		}
		if a == math.MinInt64 && b == -1 {
			*e.top() = 0
		} else {
			*e.top() = uint64(a % b)
		}
	case wasm.OpI64RemU:
		b := e.pop()
		if b == 0 {
			Throw(TrapDivByZero, "i64.rem_u")
		}
		*e.top() %= b
	case wasm.OpI64And:
		b := e.pop()
		*e.top() &= b
	case wasm.OpI64Or:
		b := e.pop()
		*e.top() |= b
	case wasm.OpI64Xor:
		b := e.pop()
		*e.top() ^= b
	case wasm.OpI64Shl:
		b := e.pop() & 63
		*e.top() <<= b
	case wasm.OpI64ShrS:
		b := e.pop() & 63
		*e.top() = uint64(int64(*e.top()) >> b)
	case wasm.OpI64ShrU:
		b := e.pop() & 63
		*e.top() >>= b
	case wasm.OpI64Rotl:
		b := int(e.pop() & 63)
		*e.top() = bits.RotateLeft64(*e.top(), b)
	case wasm.OpI64Rotr:
		b := int(e.pop() & 63)
		*e.top() = bits.RotateLeft64(*e.top(), -b)

	// f32 arithmetic
	case wasm.OpF32Abs:
		*e.top() = pushF32b(float32(math.Abs(float64(f32bits(*e.top())))))
	case wasm.OpF32Neg:
		*e.top() ^= 1 << 31
	case wasm.OpF32Ceil:
		*e.top() = pushF32b(float32(math.Ceil(float64(f32bits(*e.top())))))
	case wasm.OpF32Floor:
		*e.top() = pushF32b(float32(math.Floor(float64(f32bits(*e.top())))))
	case wasm.OpF32Trunc:
		*e.top() = pushF32b(float32(math.Trunc(float64(f32bits(*e.top())))))
	case wasm.OpF32Nearest:
		*e.top() = pushF32b(float32(math.RoundToEven(float64(f32bits(*e.top())))))
	case wasm.OpF32Sqrt:
		*e.top() = pushF32b(float32(math.Sqrt(float64(f32bits(*e.top())))))
	case wasm.OpF32Add:
		b := f32bits(e.pop())
		*e.top() = pushF32b(f32bits(*e.top()) + b)
	case wasm.OpF32Sub:
		b := f32bits(e.pop())
		*e.top() = pushF32b(f32bits(*e.top()) - b)
	case wasm.OpF32Mul:
		b := f32bits(e.pop())
		*e.top() = pushF32b(f32bits(*e.top()) * b)
	case wasm.OpF32Div:
		b := f32bits(e.pop())
		*e.top() = pushF32b(f32bits(*e.top()) / b)
	case wasm.OpF32Min:
		b := float64(f32bits(e.pop()))
		a := float64(f32bits(*e.top()))
		*e.top() = pushF32b(float32(wasmFmin(a, b)))
	case wasm.OpF32Max:
		b := float64(f32bits(e.pop()))
		a := float64(f32bits(*e.top()))
		*e.top() = pushF32b(float32(wasmFmax(a, b)))
	case wasm.OpF32Copysign:
		b := f32bits(e.pop())
		*e.top() = pushF32b(float32(math.Copysign(float64(f32bits(*e.top())), float64(b))))

	// f64 arithmetic
	case wasm.OpF64Abs:
		*e.top() = pushF64b(math.Abs(f64bits(*e.top())))
	case wasm.OpF64Neg:
		*e.top() ^= 1 << 63
	case wasm.OpF64Ceil:
		*e.top() = pushF64b(math.Ceil(f64bits(*e.top())))
	case wasm.OpF64Floor:
		*e.top() = pushF64b(math.Floor(f64bits(*e.top())))
	case wasm.OpF64Trunc:
		*e.top() = pushF64b(math.Trunc(f64bits(*e.top())))
	case wasm.OpF64Nearest:
		*e.top() = pushF64b(math.RoundToEven(f64bits(*e.top())))
	case wasm.OpF64Sqrt:
		*e.top() = pushF64b(math.Sqrt(f64bits(*e.top())))
	case wasm.OpF64Add:
		b := f64bits(e.pop())
		*e.top() = pushF64b(f64bits(*e.top()) + b)
	case wasm.OpF64Sub:
		b := f64bits(e.pop())
		*e.top() = pushF64b(f64bits(*e.top()) - b)
	case wasm.OpF64Mul:
		b := f64bits(e.pop())
		*e.top() = pushF64b(f64bits(*e.top()) * b)
	case wasm.OpF64Div:
		b := f64bits(e.pop())
		*e.top() = pushF64b(f64bits(*e.top()) / b)
	case wasm.OpF64Min:
		b := f64bits(e.pop())
		*e.top() = pushF64b(wasmFmin(f64bits(*e.top()), b))
	case wasm.OpF64Max:
		b := f64bits(e.pop())
		*e.top() = pushF64b(wasmFmax(f64bits(*e.top()), b))
	case wasm.OpF64Copysign:
		b := f64bits(e.pop())
		*e.top() = pushF64b(math.Copysign(f64bits(*e.top()), b))

	// Conversions
	case wasm.OpI32WrapI64:
		*e.top() = uint64(uint32(*e.top()))
	case wasm.OpI32TruncF32S:
		*e.top() = uint64(uint32(truncToI32(float64(f32bits(*e.top())), true)))
	case wasm.OpI32TruncF32U:
		*e.top() = uint64(uint32(truncToI32(float64(f32bits(*e.top())), false)))
	case wasm.OpI32TruncF64S:
		*e.top() = uint64(uint32(truncToI32(f64bits(*e.top()), true)))
	case wasm.OpI32TruncF64U:
		*e.top() = uint64(uint32(truncToI32(f64bits(*e.top()), false)))
	case wasm.OpI64ExtendI32S:
		*e.top() = uint64(int64(int32(*e.top())))
	case wasm.OpI64ExtendI32U:
		*e.top() = uint64(uint32(*e.top()))
	case wasm.OpI64TruncF32S:
		*e.top() = uint64(truncToI64(float64(f32bits(*e.top())), true))
	case wasm.OpI64TruncF32U:
		*e.top() = uint64(truncToI64(float64(f32bits(*e.top())), false))
	case wasm.OpI64TruncF64S:
		*e.top() = uint64(truncToI64(f64bits(*e.top()), true))
	case wasm.OpI64TruncF64U:
		*e.top() = uint64(truncToI64(f64bits(*e.top()), false))
	case wasm.OpF32ConvertI32S:
		*e.top() = pushF32b(float32(int32(*e.top())))
	case wasm.OpF32ConvertI32U:
		*e.top() = pushF32b(float32(uint32(*e.top())))
	case wasm.OpF32ConvertI64S:
		*e.top() = pushF32b(float32(int64(*e.top())))
	case wasm.OpF32ConvertI64U:
		*e.top() = pushF32b(float32(*e.top()))
	case wasm.OpF32DemoteF64:
		*e.top() = pushF32b(float32(f64bits(*e.top())))
	case wasm.OpF64ConvertI32S:
		*e.top() = pushF64b(float64(int32(*e.top())))
	case wasm.OpF64ConvertI32U:
		*e.top() = pushF64b(float64(uint32(*e.top())))
	case wasm.OpF64ConvertI64S:
		*e.top() = pushF64b(float64(int64(*e.top())))
	case wasm.OpF64ConvertI64U:
		*e.top() = pushF64b(float64(*e.top()))
	case wasm.OpF64PromoteF32:
		*e.top() = pushF64b(float64(f32bits(*e.top())))
	case wasm.OpI32ReinterpretF32, wasm.OpI64ReinterpretF64,
		wasm.OpF32ReinterpretI32, wasm.OpF64ReinterpretI64:
		// Bit patterns are already the representation.

	// Sign extension
	case wasm.OpI32Extend8S:
		*e.top() = uint64(uint32(int32(int8(*e.top()))))
	case wasm.OpI32Extend16S:
		*e.top() = uint64(uint32(int32(int16(*e.top()))))
	case wasm.OpI64Extend8S:
		*e.top() = uint64(int64(int8(*e.top())))
	case wasm.OpI64Extend16S:
		*e.top() = uint64(int64(int16(*e.top())))
	case wasm.OpI64Extend32S:
		*e.top() = uint64(int64(int32(*e.top())))

	default:
		Throw(TrapUnreachable, "unknown opcode 0x%02x", op)
	}
}

func (e *Exec) execTruncSat(sub uint32) {
	switch sub {
	case wasm.FCI32TruncSatF32S:
		*e.top() = uint64(uint32(satToI32(float64(f32bits(*e.top())), true)))
	case wasm.FCI32TruncSatF32U:
		*e.top() = uint64(uint32(satToI32(float64(f32bits(*e.top())), false)))
	case wasm.FCI32TruncSatF64S:
		*e.top() = uint64(uint32(satToI32(f64bits(*e.top()), true)))
	case wasm.FCI32TruncSatF64U:
		*e.top() = uint64(uint32(satToI32(f64bits(*e.top()), false)))
	case wasm.FCI64TruncSatF32S:
		*e.top() = uint64(satToI64(float64(f32bits(*e.top())), true))
	case wasm.FCI64TruncSatF32U:
		*e.top() = uint64(satToI64(float64(f32bits(*e.top())), false))
	case wasm.FCI64TruncSatF64S:
		*e.top() = uint64(satToI64(f64bits(*e.top()), true))
	case wasm.FCI64TruncSatF64U:
		*e.top() = uint64(satToI64(f64bits(*e.top()), false))
	default:
		Throw(TrapUnreachable, "unknown 0xFC sub-opcode %d", sub)
	}
}

// wasmFmin implements Wasm min semantics: NaN propagates, -0 < +0.
func wasmFmin(a, b float64) float64 {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.NaN()
	}
	if a == 0 && b == 0 {
		if math.Signbit(a) {
			return a
		}
		return b
	}
	if a < b {
		return a
	}
	return b
}

// wasmFmax implements Wasm max semantics: NaN propagates, +0 > -0.
func wasmFmax(a, b float64) float64 {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.NaN()
	}
	if a == 0 && b == 0 {
		if math.Signbit(a) {
			return b
		}
		return a
	}
	if a > b {
		return a
	}
	return b
}

func truncToI32(v float64, signed bool) int32 {
	if math.IsNaN(v) {
		Throw(TrapInvalidConversion, "NaN to i32")
	}
	t := math.Trunc(v)
	if signed {
		if t < -2147483648 || t > 2147483647 {
			Throw(TrapIntOverflow, "f to i32_s: %g", v)
		}
		return int32(t)
	}
	if t < 0 || t > 4294967295 {
		Throw(TrapIntOverflow, "f to i32_u: %g", v)
	}
	return int32(uint32(t))
}

func truncToI64(v float64, signed bool) int64 {
	if math.IsNaN(v) {
		Throw(TrapInvalidConversion, "NaN to i64")
	}
	t := math.Trunc(v)
	if signed {
		if t < -9223372036854775808 || t >= 9223372036854775808 {
			Throw(TrapIntOverflow, "f to i64_s: %g", v)
		}
		return int64(t)
	}
	if t < 0 || t >= 18446744073709551616 {
		Throw(TrapIntOverflow, "f to i64_u: %g", v)
	}
	return int64(uint64(t))
}

func satToI32(v float64, signed bool) int32 {
	if math.IsNaN(v) {
		return 0
	}
	t := math.Trunc(v)
	if signed {
		if t < -2147483648 {
			return math.MinInt32
		}
		if t > 2147483647 {
			return math.MaxInt32
		}
		return int32(t)
	}
	if t < 0 {
		return 0
	}
	if t > 4294967295 {
		return -1 // all bits set: u32 max
	}
	return int32(uint32(t))
}

func satToI64(v float64, signed bool) int64 {
	if math.IsNaN(v) {
		return 0
	}
	t := math.Trunc(v)
	if signed {
		if t < -9223372036854775808 {
			return math.MinInt64
		}
		if t >= 9223372036854775808 {
			return math.MaxInt64
		}
		return int64(t)
	}
	if t < 0 {
		return 0
	}
	if t >= 18446744073709551616 {
		return -1 // all bits set: u64 max
	}
	return int64(uint64(t))
}

// readU32/readS32/readS64 are the interpreter's immediate readers;
// validation guarantees well-formedness, so errors are impossible here.
func readU32(b []byte, off int) (uint32, int) {
	// Fast path: single byte.
	if c := b[off]; c < 0x80 {
		return uint32(c), 1
	}
	v, n, _ := wasm.ReadU32(b, off)
	return v, n
}

func readS32(b []byte, off int) (int32, int) {
	if c := b[off]; c < 0x40 {
		return int32(c), 1
	}
	v, n, _ := wasm.ReadS32(b, off)
	return v, n
}

func readS64(b []byte, off int) (int64, int) {
	if c := b[off]; c < 0x40 {
		return int64(c), 1
	}
	v, n, _ := wasm.ReadS64(b, off)
	return v, n
}
