package kernel

// Blocker is the kernel's hook into the engine's guest scheduler (when
// one is configured): the sleep primitive brackets its park with
// BeginBlock/EndBlock so the task's run slot is released while the
// guest is off-CPU and reacquired on wakeup. sched.Task implements it.
//
// Contract: both calls are made from the blocked process's own
// goroutine with NO kernel locks held. EndBlock may itself block
// (waiting for a run slot). The few blocking sites that do not go
// through the primitive (host dials) remain correct without these
// calls: the scheduler's handoff watchdog reclaims their slot.
type Blocker interface {
	BeginBlock()
	EndBlock()
}

// SetBlocker installs the scheduler hook for this task. Must be called
// before the task's goroutine starts running guest code (the field is
// published by the goroutine start's happens-before edge, not a lock).
func (p *Process) SetBlocker(b Blocker) { p.blocker = b }

// Blocker returns the installed scheduler hook (nil when unscheduled).
func (p *Process) Blocker() Blocker { return p.blocker }

// BeginBlock notifies the scheduler (if any) that this task is entering
// a blocking sleep. No-op without a scheduler.
func (p *Process) BeginBlock() {
	if p.blocker != nil {
		p.blocker.BeginBlock()
	}
}

// EndBlock reacquires the task's run slot after a blocking sleep.
func (p *Process) EndBlock() {
	if p.blocker != nil {
		p.blocker.EndBlock()
	}
}
