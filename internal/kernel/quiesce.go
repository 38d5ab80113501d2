package kernel

// Quiesce: the snapshot rendezvous. A snapshotter asks a running guest to
// park at its next safepoint by raising the quiesce flag and waking the
// sleep the guest's thread might be in. The sleep primitive observes the
// flag exactly where it observes deliverable signals and returns EINTR;
// the interpreter then reaches its next safepoint poll, where the
// engine-side handler (core.pollSignals) performs the capture on the
// guest's own goroutine — the only place its execution state is
// consistent. The flag is advisory and non-destructive: after capture the
// requester clears it and the guest resumes.

// RequestQuiesce asks this process to park at its next safepoint; a
// sleeping task is armed on its signal queue, so one Wake reaches it.
func (p *Process) RequestQuiesce() {
	p.quiesce.Store(true)
	p.sig.pollQ.Wake()
}

// ClearQuiesce releases a parked process (snapshot finished or aborted).
func (p *Process) ClearQuiesce() { p.quiesce.Store(false) }

// QuiesceRequested reports whether a snapshot rendezvous is pending. The
// engine polls it at safepoints through the same path as signal checks.
func (p *Process) QuiesceRequested() bool { return p.quiesce.Load() }
