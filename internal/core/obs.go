package core

import (
	"time"

	"gowali/internal/interp"
	"gowali/internal/obs"
)

// Observability plumbing for the syscall dispatch path. These helpers
// run only from dispatchTimed (registry.go), i.e. only while some
// consumer is armed; each still checks its own instrument, because being
// armed for one sink says nothing about the others.

// observeSyscall records one completed syscall into the tracer and the
// per-syscall latency histogram.
func (w *WALI) observeSyscall(pid int32, name string, dur time.Duration, ret int64) {
	if w.Trace.Enabled() {
		w.Trace.Emit(obs.Event{
			Kind: obs.EvSyscall, Name: name, PID: pid,
			Dur: dur.Nanoseconds(), Arg1: ret,
		})
	}
	if w.Metrics != nil {
		// Per-syscall count and total latency both fall out of the
		// histogram (count/sum), so no separate counter is kept.
		w.syscallHist(name).Record(dur.Nanoseconds())
	}
}

// syscallHist returns the latency histogram for one syscall name,
// cached per-WALI so the steady state is a lock-free map load plus
// atomic adds (no label-string formatting per call). The cache is
// per-engine rather than global because registries are per-engine.
func (w *WALI) syscallHist(name string) *obs.Histogram {
	if v, ok := w.sysHists.Load(name); ok {
		return v.(*obs.Histogram)
	}
	h := w.Metrics.Histogram(`wali_syscall_latency_ns{syscall="` + name + `"}`)
	w.sysHists.Store(name, h)
	return h
}

// observeSnapOp records one completed snapshot or restore (kind is
// EvSnapshot or EvRestore) with its end-to-end latency.
func (w *WALI) observeSnapOp(kind obs.Kind, hist string, pid int32, dur time.Duration) {
	if w.Trace.Enabled() {
		w.Trace.Emit(obs.Event{Kind: kind, PID: pid, Dur: dur.Nanoseconds()})
	}
	if w.Metrics != nil {
		w.Metrics.Histogram(hist).Record(dur.Nanoseconds())
	}
}

// installCowObserver hooks a process's linear memory so the pages its
// overlay materializes are counted and traced. The hook rides the
// materialize slow path only; the per-access barrier is untouched.
func (w *WALI) installCowObserver(mem *interp.Memory, pid int32) {
	if w.Trace == nil && w.Metrics == nil {
		return
	}
	faults := w.Metrics.Counter("wali_cow_faults_total")
	mem.OnCowFault = func(page int) {
		if w.Trace.Enabled() {
			w.Trace.Emit(obs.Event{Kind: obs.EvCowFault, PID: pid, Arg1: int64(page)})
		}
		faults.Add(1)
	}
}

// straceEntry captures the decoded "name(args)" half of an strace line
// at call entry — path pointers must be dereferenced before the
// handler runs, because the call itself may unmap or rewrite them.
// Returns "" when strace is off.
func (p *Process) straceEntry(name string, args []int64) string {
	if !p.W.Strace.Enabled() {
		return ""
	}
	var mem obs.MemReader
	if p.Inst != nil && p.Inst.Mem != nil {
		mem = p.Inst.Mem
	}
	return obs.FormatSyscallEntry(name, args, mem)
}

// straceExit completes and writes the line started by straceEntry.
func (p *Process) straceExit(entry string, ret int64, dur time.Duration) {
	if entry == "" {
		return
	}
	p.W.Strace.Line(p.KP.PID, entry, ret, dur.Nanoseconds())
}
