package core

import (
	"sync/atomic"

	"gowali/internal/interp"
	"gowali/internal/kernel/sched"
	"gowali/internal/linux"
)

// Tenant/budget glue: how sched.Tenant ceilings attach to the engine's
// existing accounting boundaries.
//
//   - Memory: the tenant is charged for the private bytes of every
//     process's linear memory: what it holds at spawn/exec/restore/fork
//     (Process.adopt, forkChild), then through interp.Memory.Reserve one
//     page at a time as the page overlay materializes pages, the
//     remaining clean pages when it collapses, and every growth —
//     memory.grow, mmap, brk and mremap all funnel through Memory.Grow,
//     so one hook covers them all. The charge is tracked per address
//     space (memCharge, shared by CLONE_THREAD siblings) and released
//     when the last thread of the group exits.
//   - Descriptors: kernel.FDTable charges the tenant through the
//     FDReserver interface; allocation past MaxFDs is EMFILE. Fork
//     inheritance and stdio are force-charged (Linux never fails fork on
//     NOFILE), so a tenant can transiently overshoot and then cannot
//     allocate until it drains.
//   - CPU: the scheduler charges run-slice wall time at every off-CPU
//     transition; crossing MaxCPU fires the overrun handler once, which
//     SIGKILLs every process in the tenant.

// memCharge tracks how much of a tenant's memory budget one guest
// address space holds. Threads share the charge (they share the
// memory); fork children get their own; exec swaps in a fresh one.
type memCharge struct {
	tenant *sched.Tenant
	n      atomic.Int64
}

// newMemCharge records an already-reserved initial charge of n bytes.
func newMemCharge(t *sched.Tenant, n int64) *memCharge {
	c := &memCharge{tenant: t}
	c.n.Store(n)
	return c
}

// reserve is installed as interp.Memory.Reserve: grow the tenant charge
// or refuse (Memory.Grow then returns -1, surfaced as ENOMEM).
func (c *memCharge) reserve(delta int64) bool {
	if !c.tenant.ReserveMemory(delta) {
		return false
	}
	c.n.Add(delta)
	return true
}

// release returns the whole charge to the tenant (last thread exited,
// or the address space was replaced by exec).
func (c *memCharge) release() {
	c.tenant.ReleaseMemory(c.n.Swap(0))
}

// NewTenant creates a budget domain whose overrun handler kills every
// process in the tenant (SIGKILL, delivered at the next safepoint).
// Processes join it via SpawnCompiledTenant or WALI.DefaultTenant.
func (w *WALI) NewTenant(name string, b sched.Budget) *sched.Tenant {
	t := sched.NewTenant(name, b)
	t.SetOverrunHandler(func(resource string) { w.killTenant(t) })
	return t
}

// killTenant SIGKILLs every live process belonging to t (budget
// overrun). Runs on the charging goroutine with no scheduler locks held.
func (w *WALI) killTenant(t *sched.Tenant) {
	w.mu.Lock()
	targets := make([]*Process, 0, 4)
	for _, p := range w.procs {
		if p.Tenant == t {
			targets = append(targets, p)
		}
	}
	w.mu.Unlock()
	for _, p := range targets {
		p.KP.PostSignal(linux.SIGKILL)
	}
}

// SpawnCompiledTenant is SpawnCompiled with an explicit budget domain
// (nil tenant = unbudgeted).
func (w *WALI) SpawnCompiledTenant(c *interp.Compiled, name string, argv, env []string, tenant *sched.Tenant) (*Process, error) {
	kp := w.Kernel.NewProcess(name, argv, env)
	return w.newProcess(kp, c, argv, env, tenant)
}

// attachTask registers the process with the scheduler (when one is
// configured) and hooks the kernel task's blocking sites to it. Must run
// before the process goroutine starts.
func (p *Process) attachTask() {
	if p.W.Sched == nil {
		return
	}
	p.task = p.W.Sched.NewTask(p.Tenant)
	p.task.SetTID(p.KP.PID)
	p.KP.SetBlocker(p.task)
}
