package core

import (
	"sync"

	"gowali/internal/interp"
	"gowali/internal/isa"
	"gowali/internal/kernel"
	"gowali/internal/linux"
)

// Sigtable is WALI's virtual signal table (§3.3, Fig. 5): it maps each
// Linux signal to a Wasm handler — both the application-visible funcref
// table index (returned as the "old action") and the resolved function
// index the engine calls at delivery. Shared across CLONE_SIGHAND threads.
// Bookkeeping is well under the paper's 1 KiB budget.
type Sigtable struct {
	mu      sync.Mutex
	entries [linux.NSIG + 1]sigEntry
	// active marks signals whose handler is currently executing, so a
	// second identical signal is deferred unless SA_NODEFER (§3.3).
	active [linux.NSIG + 1]bool
}

type sigEntry struct {
	tableIdx uint32 // application funcref index (or SIG_DFL/SIG_IGN)
	funcIdx  int32  // resolved function index; -1 when special
	flags    uint32
	mask     uint64
}

// NewSigtable returns a table with every signal at SIG_DFL.
func NewSigtable() *Sigtable {
	t := &Sigtable{}
	for i := range t.entries {
		t.entries[i] = sigEntry{tableIdx: linux.SIG_DFL, funcIdx: -1}
	}
	return t
}

// Clone copies the table for fork.
func (t *Sigtable) Clone() *Sigtable {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := &Sigtable{entries: t.entries}
	return c
}

// set installs a handler, returning the previous application-visible
// action.
func (t *Sigtable) set(sig int32, e sigEntry) sigEntry {
	t.mu.Lock()
	defer t.mu.Unlock()
	old := t.entries[sig]
	t.entries[sig] = e
	return old
}

// get returns the current entry.
func (t *Sigtable) get(sig int32) sigEntry {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.entries[sig]
}

// beginHandler marks sig active; reports false when already active and
// the registration lacks SA_NODEFER (delivery deferred).
func (t *Sigtable) beginHandler(sig int32, flags uint32) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.active[sig] && flags&linux.SA_NODEFER == 0 {
		return false
	}
	t.active[sig] = true
	return true
}

func (t *Sigtable) endHandler(sig int32) {
	t.mu.Lock()
	t.active[sig] = false
	t.mu.Unlock()
}

// pollSignals is the safepoint callback (installed as Exec.Poll): it
// drains deliverable virtual signals, executing Wasm handlers reentrantly
// — the paper's sig_poll → get_handler → call(handler) sequence.
func (p *Process) pollSignals(e *interp.Exec) {
	// Signals first, then the scheduler: a SIGKILLed guest terminates
	// here (unwinding as Exit) without parking for a slot grant it would
	// never use.
	if p.KP.HasDeliverableSignal() {
		p.DeliverPending(e)
	}
	// Snapshot rendezvous: a quiesce request parks this guest here, at a
	// safepoint, where its execution state is fully observable; the
	// snapshotter captures it and releases the park (see snapshot.go).
	if p.KP.QuiesceRequested() {
		p.snapParkAt(e)
	}
	// Time-slice preemption: when the sysmon flagged this task (quantum
	// expired with runnable guests waiting, or a blocked guest woke
	// needing a slot), park at this safepoint. Execution state is fully
	// observable here, so preemption is invisible to the guest.
	if t := p.task; t != nil && t.NeedYield() {
		t.Yield()
	}
}

// DeliverPending dequeues and dispatches all deliverable signals. SIG_DFL
// with terminating default exits the process (unwinding as Exit);
// registered handlers run as reentrant Wasm calls with the signal number.
func (p *Process) DeliverPending(e *interp.Exec) {
	for {
		ds, ok := p.KP.NextDeliverableSignal()
		if !ok {
			return
		}
		if ds.Sig == linux.SIGKILL {
			panic(&interp.Exit{Status: 128 + linux.SIGKILL})
		}
		ent := p.Sig.get(ds.Sig)
		switch {
		case ent.tableIdx == linux.SIG_IGN:
			continue
		case ent.tableIdx == linux.SIG_DFL || ent.funcIdx < 0:
			if kernel.DefaultTerminates(ds.Sig) {
				panic(&interp.Exit{Status: 128 + ds.Sig})
			}
			continue
		default:
			if !p.Sig.beginHandler(ds.Sig, ent.flags) {
				// Identical signal already handling and no SA_NODEFER:
				// requeue for later delivery.
				p.KP.PostSignal(ds.Sig)
				return
			}
			// Block the registration mask plus the signal itself during
			// handler execution, per sigaction semantics.
			block := ent.mask | 1<<uint(ds.Sig-1)
			old, _ := p.KP.SigProcMask(linux.SIG_BLOCK, &block)
			func() {
				defer p.Sig.endHandler(ds.Sig)
				defer p.KP.SigProcMask(linux.SIG_SETMASK, &old)
				e.CallFunc(uint32(ent.funcIdx), uint64(uint32(ds.Sig)))
			}()
		}
	}
}

// sysRtSigaction implements wali rt_sigaction: dual registration into the
// virtual sigtable and the kernel disposition table (Fig. 5 step 1).
func sysRtSigaction(p *Process, e *interp.Exec, args Args) int64 {
	sig := int32(args[0])
	actAddr := uint32(args[1])
	oldAddr := uint32(args[2])
	if sig < 1 || sig > linux.NSIG {
		return errnoRet(linux.EINVAL)
	}

	mem := p.Inst.Mem
	var newEnt *sigEntry
	var kact *linux.Sigaction
	if actAddr != 0 {
		buf, ok := mem.Bytes(actAddr, isa.KSigactionSize)
		if !ok {
			return errnoRet(linux.EFAULT)
		}
		ka := isa.GetKSigaction(buf)
		ent := sigEntry{tableIdx: ka.Handler, funcIdx: -1, flags: ka.Flags, mask: ka.Mask}
		if ka.Handler != linux.SIG_DFL && ka.Handler != linux.SIG_IGN {
			// Dereference the Wasm function pointer now (registration
			// step): it must name a (i32)->() function in the table.
			fidx := p.Inst.TableGet(ka.Handler)
			if fidx < 0 {
				return errnoRet(linux.EINVAL)
			}
			ft := p.Inst.FuncType(uint32(fidx))
			if len(ft.Params) != 1 || len(ft.Results) != 0 {
				return errnoRet(linux.EINVAL)
			}
			ent.funcIdx = fidx
		}
		newEnt = &ent
		kact = &linux.Sigaction{Handler: uint64(ka.Handler), Flags: uint64(ka.Flags), Mask: ka.Mask}
	}

	// Kernel-side registration (generation machinery).
	oldK, errno := p.KP.SigAction(sig, kact)
	if errno != 0 {
		return errnoRet(errno)
	}
	_ = oldK

	var oldEnt sigEntry
	if newEnt != nil {
		oldEnt = p.Sig.set(sig, *newEnt)
	} else {
		oldEnt = p.Sig.get(sig)
	}

	if oldAddr != 0 {
		buf, ok := mem.Bytes(oldAddr, isa.KSigactionSize)
		if !ok {
			return errnoRet(linux.EFAULT)
		}
		isa.PutKSigaction(buf, isa.KSigaction{
			Handler: oldEnt.tableIdx,
			Flags:   oldEnt.flags,
			Mask:    oldEnt.mask,
		})
	}
	return 0
}

// sysRtSigprocmask implements rt_sigprocmask with the post-unblock
// safepoint the paper calls out: outstanding signals unblocked by this
// call are delivered before returning to the Wasm critical section.
func sysRtSigprocmask(p *Process, e *interp.Exec, args Args) int64 {
	how := int32(args[0])
	setAddr := uint32(args[1])
	oldAddr := uint32(args[2])
	mem := p.Inst.Mem

	var setP *uint64
	if setAddr != 0 {
		v, ok := mem.ReadU64(setAddr)
		if !ok {
			return errnoRet(linux.EFAULT)
		}
		setP = &v
	}
	old, errno := p.KP.SigProcMask(how, setP)
	if errno != 0 {
		return errnoRet(errno)
	}
	if oldAddr != 0 {
		if !mem.WriteU64(oldAddr, old) {
			return errnoRet(linux.EFAULT)
		}
	}
	// Immediate safepoint after the native call (§3.3): deliver anything
	// the new mask lets through.
	if p.KP.HasDeliverableSignal() {
		p.DeliverPending(e)
	}
	return 0
}

func sysRtSigpending(p *Process, e *interp.Exec, args Args) int64 {
	addr := uint32(args[0])
	if !p.Inst.Mem.WriteU64(addr, p.KP.PendingSet()) {
		return errnoRet(linux.EFAULT)
	}
	return 0
}

func sysRtSigsuspend(p *Process, e *interp.Exec, args Args) int64 {
	addr := uint32(args[0])
	mask, ok := p.Inst.Mem.ReadU64(addr)
	if !ok {
		return errnoRet(linux.EFAULT)
	}
	errno := p.KP.SigSuspend(mask)
	p.DeliverPending(e)
	return errnoRet(errno)
}

func sysRtSigtimedwait(p *Process, e *interp.Exec, args Args) int64 {
	setAddr := uint32(args[0])
	infoAddr := uint32(args[1])
	tsAddr := uint32(args[2])
	mem := p.Inst.Mem
	set, ok := mem.ReadU64(setAddr)
	if !ok {
		return errnoRet(linux.EFAULT)
	}
	var timeout *linux.Timespec
	if tsAddr != 0 {
		buf, ok := mem.Bytes(tsAddr, isa.TimespecSize)
		if !ok {
			return errnoRet(linux.EFAULT)
		}
		ts := isa.GetTimespec(buf)
		timeout = &ts
	}
	sig, errno := p.KP.SigTimedWait(set, timeout)
	if errno != 0 {
		return errnoRet(errno)
	}
	if infoAddr != 0 {
		// siginfo: only si_signo is populated.
		if !mem.WriteU32(infoAddr, uint32(sig)) {
			return errnoRet(linux.EFAULT)
		}
	}
	return int64(sig)
}

// sysRtSigreturn traps: the signal trampoline is fully managed by the
// engine, so direct invocation is a sigreturn-oriented-programming gadget
// and is prohibited (§3.6 pitfall 4).
func sysRtSigreturn(p *Process, e *interp.Exec, args Args) int64 {
	interp.Throw(interp.TrapHost, "wali: rt_sigreturn is engine-managed and cannot be invoked directly")
	return 0
}

func sysSigaltstack(p *Process, e *interp.Exec, args Args) int64 {
	// The Wasm execution stack is engine-managed; accept and ignore.
	return 0
}

func sysPause(p *Process, e *interp.Exec, args Args) int64 {
	errno := p.KP.Pause()
	p.DeliverPending(e)
	return errnoRet(errno)
}

func sysKill(p *Process, e *interp.Exec, args Args) int64 {
	errno := p.KP.Kill(int32(args[0]), int32(args[1]))
	// A self-directed signal should act promptly, not at the next loop
	// head: poll here.
	if p.KP.HasDeliverableSignal() {
		p.DeliverPending(e)
	}
	return errnoRet(errno)
}

func sysTkill(p *Process, e *interp.Exec, args Args) int64 {
	return errnoRet(p.KP.Tgkill(-1, int32(args[0]), int32(args[1])))
}

func sysTgkill(p *Process, e *interp.Exec, args Args) int64 {
	errno := p.KP.Tgkill(int32(args[0]), int32(args[1]), int32(args[2]))
	if p.KP.HasDeliverableSignal() {
		p.DeliverPending(e)
	}
	return errnoRet(errno)
}

func sysAlarm(p *Process, e *interp.Exec, args Args) int64 {
	return int64(p.KP.Alarm(uint32(args[0])))
}

func sysSetitimer(p *Process, e *interp.Exec, args Args) int64 {
	// ITIMER_REAL via the alarm machinery; value struct: two timevals
	// (interval, value), we honor the value seconds.
	which := int32(args[0])
	newAddr := uint32(args[1])
	if which != 0 { // ITIMER_REAL only
		return errnoRet(linux.EINVAL)
	}
	if newAddr == 0 {
		return 0
	}
	buf, ok := p.Inst.Mem.Bytes(newAddr, 32)
	if !ok {
		return errnoRet(linux.EFAULT)
	}
	sec := isa.GetTimespec(buf[16:]) // it_value
	p.KP.Alarm(uint32(sec.Sec))
	return 0
}

func sysGetitimer(p *Process, e *interp.Exec, args Args) int64 {
	addr := uint32(args[1])
	buf, ok := p.Inst.Mem.Bytes(addr, 32)
	if !ok {
		return errnoRet(linux.EFAULT)
	}
	zero(buf)
	return 0
}
