package kernel

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"gowali/internal/kernel/waitq"
	"gowali/internal/linux"
)

// SignalState is the signal disposition table and process-directed pending
// set, shared within a thread group (CLONE_SIGHAND).
type SignalState struct {
	mu      sync.Mutex
	actions [linux.NSIG + 1]linux.Sigaction
	pending uint64  // process-directed pending bit-vector
	queue   []int32 // delivery order for pending signals
	killed  bool    // SIGKILL latched; uncatchable

	// fast mirrors pending (with killed folded into the SIGKILL bit) for
	// the lock-free safepoint fast path. Written only with mu held; read
	// without it by HasDeliverableSignal, which is polled on every loop
	// back-edge of every interpreter thread.
	fast atomic.Uint64

	// threaded latches once the owning group spawns a second thread.
	// Multi-threaded groups keep the locked poll path: its lock pairing is
	// what orders the threads' shared wasm memory accesses (futex wake
	// protocols rely on it), matching the pre-fast-path behavior.
	threaded atomic.Bool

	// pollQ is the queue every sleeping group member is armed on (see
	// Process.sleep): a posted signal or a quiesce request wakes it, so
	// the sleep ends with EINTR immediately instead of at its next
	// readiness event.
	pollQ waitq.Queue
}

// refreshFast republishes the lock-free pending summary; callers hold s.mu.
func (s *SignalState) refreshFast() {
	v := s.pending
	if s.killed {
		v |= sigBit(linux.SIGKILL)
	}
	s.fast.Store(v)
}

func newSignalState() *SignalState { return &SignalState{} }

func (s *SignalState) clone() *SignalState {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := newSignalState()
	c.actions = s.actions
	return c
}

// resetForExec restores caught handlers to SIG_DFL (SIG_IGN persists),
// per execve semantics.
func (s *SignalState) resetForExec() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.actions {
		if s.actions[i].Handler != linux.SIG_IGN {
			s.actions[i] = linux.Sigaction{}
		}
	}
}

func sigBit(sig int32) uint64 { return 1 << uint(sig-1) }

// defaultIgnored reports signals whose default action is to ignore.
func defaultIgnored(sig int32) bool {
	switch sig {
	case linux.SIGCHLD, linux.SIGURG, linux.SIGWINCH, linux.SIGCONT:
		return true
	}
	return false
}

// SigAction implements rt_sigaction: set (when act non-nil) and return the
// previous action.
func (p *Process) SigAction(sig int32, act *linux.Sigaction) (linux.Sigaction, linux.Errno) {
	if sig < 1 || sig > linux.NSIG || sig == linux.SIGKILL || sig == linux.SIGSTOP {
		if sig == linux.SIGKILL || sig == linux.SIGSTOP {
			if act != nil {
				return linux.Sigaction{}, linux.EINVAL
			}
		} else {
			return linux.Sigaction{}, linux.EINVAL
		}
	}
	s := p.sig
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.actions[sig]
	if act != nil {
		s.actions[sig] = *act
	}
	return old, 0
}

// SigMask returns the per-thread blocked set.
func (p *Process) SigMask() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.sigMask
}

// SigProcMask implements rt_sigprocmask, returning the previous mask.
// SIGKILL and SIGSTOP can never be blocked.
func (p *Process) SigProcMask(how int32, set *uint64) (uint64, linux.Errno) {
	p.mu.Lock()
	defer p.mu.Unlock()
	old := p.sigMask
	if set != nil {
		v := *set &^ (sigBit(linux.SIGKILL) | sigBit(linux.SIGSTOP))
		switch how {
		case linux.SIG_BLOCK:
			p.sigMask |= v
		case linux.SIG_UNBLOCK:
			p.sigMask &^= *set
		case linux.SIG_SETMASK:
			p.sigMask = v
		default:
			return old, linux.EINVAL
		}
	}
	return old, 0
}

// PostSignal generates a process-directed signal (stage 2 of the paper's
// signal lifecycle: generation). Ignored-by-disposition signals are still
// queued; discard happens at delivery, matching the check order the WALI
// frontend expects.
func (p *Process) PostSignal(sig int32) linux.Errno {
	if sig == 0 {
		return 0
	}
	if sig < 1 || sig > linux.NSIG {
		return linux.EINVAL
	}
	s := p.sig
	s.mu.Lock()
	if sig == linux.SIGKILL {
		s.killed = true
	}
	if s.pending&sigBit(sig) == 0 {
		s.pending |= sigBit(sig)
		s.queue = append(s.queue, sig)
	}
	s.refreshFast()
	s.mu.Unlock()
	s.pollQ.Wake()
	return 0
}

// PostThreadSignal generates a thread-directed signal (tgkill).
func (p *Process) PostThreadSignal(sig int32) linux.Errno {
	if sig == 0 {
		return 0
	}
	if sig < 1 || sig > linux.NSIG {
		return linux.EINVAL
	}
	p.mu.Lock()
	p.pendingT |= sigBit(sig)
	p.pendingTFast.Store(p.pendingT)
	p.mu.Unlock()
	if sig == linux.SIGKILL {
		p.sig.mu.Lock()
		p.sig.killed = true
		p.sig.refreshFast()
		p.sig.mu.Unlock()
	}
	p.sig.pollQ.Wake()
	return 0
}

// Killed reports whether SIGKILL was ever posted to the group.
func (p *Process) Killed() bool {
	p.sig.mu.Lock()
	defer p.sig.mu.Unlock()
	return p.sig.killed
}

// PendingSet returns the union of thread- and process-pending signals
// (rt_sigpending).
func (p *Process) PendingSet() uint64 {
	p.mu.Lock()
	t := p.pendingT
	p.mu.Unlock()
	p.sig.mu.Lock()
	defer p.sig.mu.Unlock()
	return t | p.sig.pending
}

// HasDeliverableSignal reports whether an unblocked signal is pending for
// this thread. The lock-free fast path keeps the cost of the interpreter's
// per-back-edge safepoint poll to two atomic loads when (as almost always)
// nothing is pending; the locked slow path is authoritative.
func (p *Process) HasDeliverableSignal() bool {
	if !p.sig.threaded.Load() && p.pendingTFast.Load() == 0 && p.sig.fast.Load() == 0 {
		return false
	}
	p.mu.Lock()
	mask := p.sigMask
	t := p.pendingT
	p.mu.Unlock()
	p.sig.mu.Lock()
	defer p.sig.mu.Unlock()
	return (t|p.sig.pending)&^mask != 0 || p.sig.killed
}

// PendingFatal reports — without consuming anything — whether an
// unblocked pending signal would terminate the process under its
// current disposition. The frontend checks this on every syscall
// return, mirroring Linux's return-to-userspace delivery point: a
// guest whose blocking syscall was interrupted by SIGKILL must die at
// the syscall boundary, not survive through straight-line code (with
// no safepoint back-edge) to a voluntary exit. Handler-backed and
// ignorable signals are left pending for safepoint delivery, where a
// Wasm handler can legally be invoked.
func (p *Process) PendingFatal() (int32, bool) {
	if !p.sig.threaded.Load() && p.pendingTFast.Load() == 0 && p.sig.fast.Load() == 0 {
		return 0, false
	}
	p.mu.Lock()
	mask := p.sigMask
	tPending := p.pendingT
	p.mu.Unlock()

	s := p.sig
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.killed {
		return linux.SIGKILL, true
	}
	pend := tPending | s.pending
	for sig := int32(1); sig <= linux.NSIG; sig++ {
		b := sigBit(sig)
		if pend&b == 0 || mask&b != 0 {
			continue
		}
		if s.actions[sig].Handler == linux.SIG_DFL && DefaultTerminates(sig) {
			return sig, true
		}
	}
	return 0, false
}

// DeliverableSignal is a dequeued signal ready for handler dispatch.
type DeliverableSignal struct {
	Sig    int32
	Action linux.Sigaction
}

// NextDeliverableSignal dequeues the next unblocked pending signal
// (stage 3: delivery). Signals whose effective disposition is "ignore" are
// consumed silently; the caller (the WALI frontend) dispatches the rest:
// SIG_DFL terminate/stop semantics or a Wasm handler call. Returns ok=false
// when nothing is deliverable.
func (p *Process) NextDeliverableSignal() (DeliverableSignal, bool) {
	p.mu.Lock()
	mask := p.sigMask
	tPending := p.pendingT
	p.mu.Unlock()

	s := p.sig
	s.mu.Lock()
	defer s.mu.Unlock()

	if s.killed {
		return DeliverableSignal{Sig: linux.SIGKILL}, true
	}

	// Thread-directed first, lowest signal number first.
	for sig := int32(1); sig <= linux.NSIG; sig++ {
		b := sigBit(sig)
		if tPending&b != 0 && mask&b == 0 {
			p.mu.Lock()
			p.pendingT &^= b
			p.pendingTFast.Store(p.pendingT)
			p.mu.Unlock()
			act := s.actions[sig]
			if act.Handler == linux.SIG_IGN || (act.Handler == linux.SIG_DFL && defaultIgnored(sig)) {
				continue
			}
			return DeliverableSignal{Sig: sig, Action: act}, true
		}
	}

	for i := 0; i < len(s.queue); i++ {
		sig := s.queue[i]
		b := sigBit(sig)
		if mask&b != 0 {
			continue
		}
		s.queue = append(s.queue[:i], s.queue[i+1:]...)
		s.pending &^= b
		s.refreshFast()
		i--
		act := s.actions[sig]
		if act.Handler == linux.SIG_IGN || (act.Handler == linux.SIG_DFL && defaultIgnored(sig)) {
			continue
		}
		return DeliverableSignal{Sig: sig, Action: act}, true
	}
	return DeliverableSignal{}, false
}

// SigSuspend atomically replaces the mask and waits for a deliverable
// signal, then restores the mask. Always returns EINTR, like the syscall.
func (p *Process) SigSuspend(tempMask uint64) linux.Errno {
	p.mu.Lock()
	old := p.sigMask
	p.sigMask = tempMask &^ (sigBit(linux.SIGKILL) | sigBit(linux.SIGSTOP))
	p.mu.Unlock()

	errno := p.Pause()

	p.mu.Lock()
	p.sigMask = old
	p.mu.Unlock()
	return errno
}

// Pause waits until any deliverable signal arrives: a sleep whose
// attempt never succeeds, so only the primitive's EINTR ends it.
func (p *Process) Pause() linux.Errno {
	return p.sleep(nil, time.Time{}, func() linux.Errno { return linux.EAGAIN })
}

// takePending dequeues the lowest-numbered pending signal in set.
func (p *Process) takePending(set uint64) (int32, bool) {
	s := p.sig
	s.mu.Lock()
	defer s.mu.Unlock()
	p.mu.Lock()
	defer p.mu.Unlock()
	avail := (p.pendingT | s.pending) & set
	if avail == 0 {
		return 0, false
	}
	sig := int32(bits.TrailingZeros64(avail)) + 1
	b := sigBit(sig)
	p.pendingT &^= b
	p.pendingTFast.Store(p.pendingT)
	if s.pending&b != 0 {
		s.pending &^= b
		for i, q := range s.queue {
			if q == sig {
				s.queue = append(s.queue[:i], s.queue[i+1:]...)
				break
			}
		}
		s.refreshFast()
	}
	return sig, true
}

// SigTimedWait waits for one of the signals in set to become pending,
// dequeues and returns it. A nil timeout waits forever; an expired one
// returns EAGAIN, and a deliverable signal outside set (or a quiesce
// request) EINTR.
func (p *Process) SigTimedWait(set uint64, timeout *linux.Timespec) (int32, linux.Errno) {
	var deadline time.Time
	if timeout != nil {
		deadline = time.Now().Add(time.Duration(timeout.Nanos()))
	}
	sig := int32(-1)
	errno := p.sleep(nil, deadline, func() linux.Errno {
		if got, ok := p.takePending(set); ok {
			sig = got
			return 0
		}
		return linux.EAGAIN
	})
	if errno == linux.ETIMEDOUT {
		errno = linux.EAGAIN
	}
	return sig, errno
}

// Kill implements kill(2) semantics for pid > 0, pid == 0 (caller's
// group), pid == -1 (all except init) and pid < -1 (group |pid|).
func (p *Process) Kill(pid int32, sig int32) linux.Errno {
	k := p.K
	switch {
	case pid > 0:
		t, ok := k.Process(pid)
		if !ok {
			return linux.ESRCH
		}
		return t.PostSignal(sig)
	case pid == 0:
		return k.killGroup(p.pgid, sig)
	case pid == -1:
		k.pidMu.RLock()
		targets := make([]*Process, 0, len(k.procs))
		for _, t := range k.procs {
			if t != p && t.PID != 1 {
				targets = append(targets, t)
			}
		}
		k.pidMu.RUnlock()
		for _, t := range targets {
			t.PostSignal(sig)
		}
		return 0
	default:
		return k.killGroup(-pid, sig)
	}
}

func (k *Kernel) killGroup(pgid int32, sig int32) linux.Errno {
	k.pidMu.RLock()
	var targets []*Process
	for _, t := range k.procs {
		t.mu.Lock()
		if t.pgid == pgid {
			targets = append(targets, t)
		}
		t.mu.Unlock()
	}
	k.pidMu.RUnlock()
	if len(targets) == 0 {
		return linux.ESRCH
	}
	for _, t := range targets {
		t.PostSignal(sig)
	}
	return 0
}

// Tgkill sends a thread-directed signal.
func (p *Process) Tgkill(tgid, tid, sig int32) linux.Errno {
	t, ok := p.K.Process(tid)
	if !ok {
		return linux.ESRCH
	}
	if tgid > 0 && t.TGID != tgid {
		return linux.ESRCH
	}
	return t.PostThreadSignal(sig)
}

// DefaultTerminates reports whether sig's default disposition kills the
// process (the WALI frontend consults this for SIG_DFL delivery).
func DefaultTerminates(sig int32) bool {
	if defaultIgnored(sig) {
		return false
	}
	switch sig {
	case linux.SIGSTOP, linux.SIGTSTP, linux.SIGTTIN, linux.SIGTTOU:
		return false // stop (not modeled as termination)
	}
	return true
}
