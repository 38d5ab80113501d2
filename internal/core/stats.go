package core

import (
	"sync/atomic"
	"time"
)

// Per-process syscall accounting (Fig. 7's wali+kernel attribution).
//
// Counters live on the Process, not in a WALI-wide map: every syscall
// return bumps two atomics on its own process's cache line, so N guests
// account concurrently with zero shared state — the engine-wide map that
// used to sit behind a global mutex (and leaked an entry per PID forever)
// is gone. SyscallStats aggregates on demand instead.

// syscallCounters is a cache-line padded pair of atomic counters.
type syscallCounters struct {
	timeNs atomic.Int64
	n      atomic.Uint64
	_      [48]byte // keep neighboring processes' counters off this line
}

// add records one timed syscall. The disarmed dispatch path bumps n alone
// (see Process.dispatch): the count is always exact, handler time
// accumulates only over calls made while a consumer was armed.
func (c *syscallCounters) add(d time.Duration) {
	c.timeNs.Add(int64(d))
	c.n.Add(1)
}

func (c *syscallCounters) snapshot() (time.Duration, uint64) {
	return time.Duration(c.timeNs.Load()), c.n.Load()
}

// statTotals is a retired process's final accounting.
type statTotals struct {
	t time.Duration
	n uint64
}

// retainedStatsMax bounds the retired-stats window. PID-keyed queries
// for long-dead processes return zero; under spawn/execve storms the
// window evicts FIFO instead of growing without bound (the old maps kept
// every PID ever seen).
const retainedStatsMax = 256

// finishProcess atomically moves a finished process out of the live
// table and its totals into the bounded retired window (both locks held
// together, always mu before retMu, so aggregate readers never see a
// process in both places or in neither).
func (w *WALI) finishProcess(p *Process) {
	pid := p.KP.PID
	t, n := p.stats.snapshot()
	w.mu.Lock()
	w.retMu.Lock()
	delete(w.procs, pid)
	if n > 0 {
		if w.retained == nil {
			w.retained = make(map[int32]statTotals)
		}
		if _, ok := w.retained[pid]; !ok {
			w.retOrder = append(w.retOrder, pid)
		}
		w.retained[pid] = statTotals{t, n}
		for len(w.retained) > retainedStatsMax {
			evict := w.retOrder[0]
			w.retOrder = w.retOrder[1:]
			delete(w.retained, evict)
		}
	}
	w.retMu.Unlock()
	w.mu.Unlock()
}

// SyscallStats reports accumulated handler time and count for pid
// (Fig. 7's wali+kernel attribution): live processes read their own
// counters; recently exited ones come from the bounded retired window.
// The count is always exact. Handler time is measured only for calls made
// while a consumer was armed (see armed) — dispatch reads no clock
// otherwise — so a caller that wants the time subscribes a hook first, as
// trace.Collector does.
func (w *WALI) SyscallStats(pid int32) (time.Duration, uint64) {
	w.mu.Lock()
	p := w.procs[pid]
	w.mu.Unlock()
	if p != nil {
		return p.stats.snapshot()
	}
	w.retMu.Lock()
	defer w.retMu.Unlock()
	s := w.retained[pid]
	return s.t, s.n
}

// SyscallStatsTotal aggregates handler time and count across every live
// process and the retired window — the engine-wide view scale-out
// harnesses read after a run. Both locks are held together so a process
// mid-retirement is counted exactly once.
func (w *WALI) SyscallStatsTotal() (time.Duration, uint64) {
	var t time.Duration
	var n uint64
	w.mu.Lock()
	w.retMu.Lock()
	for _, p := range w.procs {
		pt, pn := p.stats.snapshot()
		t += pt
		n += pn
	}
	for _, s := range w.retained {
		t += s.t
		n += s.n
	}
	w.retMu.Unlock()
	w.mu.Unlock()
	return t, n
}

// AddHook subscribes fn to every syscall event, alongside any Hook
// field. Registration is copy-on-write: the dispatch fast path is one
// atomic load, and with no subscribers at all no event is even built.
// fn must be safe for concurrent use.
func (w *WALI) AddHook(fn func(ev SyscallEvent)) {
	w.hooksMu.Lock()
	defer w.hooksMu.Unlock()
	old := w.hooks.Load()
	var next []func(SyscallEvent)
	if old != nil {
		next = append(next, *old...)
	}
	next = append(next, fn)
	w.hooks.Store(&next)
}

// armed reports whether anything consumes per-syscall durations right now:
// a Hook, an AddHook subscriber, a metrics registry, an enabled tracer or
// an enabled strace writer (attached but disabled does not count). It is
// evaluated on every dispatch, so arming takes effect from a running
// guest's next syscall.
func (w *WALI) armed() bool {
	return w.Hook != nil || w.hooks.Load() != nil || w.Metrics != nil ||
		w.Trace.Enabled() || w.Strace.Enabled()
}

// emitSyscall fans one completed syscall out to the subscribers. The
// no-subscriber path is two loads and no allocation.
func (w *WALI) emitSyscall(pid int32, name string, dur time.Duration, ret int64) {
	hs := w.hooks.Load()
	if w.Hook == nil && hs == nil {
		return
	}
	ev := SyscallEvent{PID: pid, Name: name, Duration: dur, Ret: ret}
	if w.Hook != nil {
		w.Hook(ev)
	}
	if hs != nil {
		for _, h := range *hs {
			h(ev)
		}
	}
}
