package kernel

import (
	"sync"
	"sync/atomic"
	"time"

	"gowali/internal/kernel/vfs"
	"gowali/internal/kernel/waitq"
	"gowali/internal/linux"
)

type procState int

const (
	stateRunning procState = iota
	stateZombie
	stateDead // reaped
)

// fsState is filesystem context shared by CLONE_FS threads.
type fsState struct {
	mu    sync.Mutex
	cwd   string
	umask uint32
}

// credState is the credential set shared within a thread group.
type credState struct {
	mu                   sync.Mutex
	uid, gid, euid, egid uint32
	groups               []uint32
}

func (c *credState) clone() *credState {
	c.mu.Lock()
	defer c.mu.Unlock()
	return &credState{
		uid: c.uid, gid: c.gid, euid: c.euid, egid: c.egid,
		groups: append([]uint32(nil), c.groups...),
	}
}

// threadGroup tracks live threads so process teardown happens once.
type threadGroup struct {
	mu     sync.Mutex
	count  int
	leader *Process
}

// Process is one schedulable task: a conventional process or a
// CLONE_THREAD light-weight process within a thread group. In the WALI
// 1-to-1 model each Wasm process/thread maps to exactly one of these,
// running on its own goroutine.
type Process struct {
	K    *Kernel
	PID  int32
	TGID int32

	mu        sync.Mutex
	ppid      int32
	pgid, sid int32
	comm      string
	argv      []string
	envp      []string
	state     procState
	exitSt    int32
	parent    *Process
	children  map[int32]*Process

	fs    *fsState
	creds *credState
	group *threadGroup
	// procDir is this process's /proc/<pid> directory (nil for tasks
	// that have none: threads and restored processes).
	procDir *vfs.Inode

	// FDs is the descriptor table (shared by threads).
	FDs *FDTable

	sig      *SignalState
	sigMask  uint64 // per-thread blocked set
	pendingT uint64 // per-thread directed signals (tgkill)

	// pendingTFast mirrors pendingT for the lock-free safepoint fast path
	// (see SignalState.fast). Written only with mu held.
	pendingTFast atomic.Uint64

	startMono linux.Timespec
	utimeNs   int64
	stimeNs   int64

	clearTIDAddr uint32 // set_tid_address / CLONE_CHILD_CLEARTID

	alarmTimer *time.Timer

	// Limits (prlimit64); only NOFILE is enforced.
	limits map[int32][2]uint64

	// blocker is the guest scheduler's slot hook (nil = unscheduled).
	// Set once before the task's goroutine runs; see SetBlocker.
	blocker Blocker

	// quiesce is the snapshot rendezvous flag (see quiesce.go): checked
	// at safepoints and by the sleep primitive.
	quiesce atomic.Bool

	// waiter is what the task parks on, armed on sig.pollQ from its first
	// block until Exit; armed and epollOut are the sleep primitive's queue
	// list and EpollWait's result buffer. All three belong to the task's
	// own goroutine and are reused from one syscall to the next.
	waiter   *waitq.Waiter
	armed    []*waitq.Queue
	epollOut []EpollEvent

	// childQ is woken when one of this task's children changes state;
	// Wait4 sleeps on it, so an exit wakes only the parent — not every
	// waiter in the kernel.
	childQ waitq.Queue
}

// NewProcess creates the initial process of a WALI application: fresh fd
// table with stdin/stdout/stderr on the console, cwd "/", default signal
// dispositions.
func (k *Kernel) NewProcess(comm string, argv, envp []string) *Process {
	pid := k.allocPID()

	p := &Process{
		K:         k,
		PID:       pid,
		TGID:      pid,
		ppid:      0,
		pgid:      pid,
		sid:       pid,
		comm:      comm,
		argv:      argv,
		envp:      envp,
		children:  make(map[int32]*Process),
		fs:        &fsState{cwd: "/", umask: 0o022},
		creds:     &credState{uid: 0, gid: 0, euid: 0, egid: 0},
		FDs:       NewFDTable(),
		sig:       newSignalState(),
		startMono: k.Monotonic(),
		limits:    map[int32][2]uint64{linux.RLIMIT_NOFILE: {DefaultNOFILE, DefaultNOFILE}},
	}
	p.group = &threadGroup{count: 1, leader: p}

	// Standard descriptors on the console tty.
	r, errno := k.FS.Walk("/", "/dev/console", true)
	if errno == 0 && r.Node != nil {
		for fd := int32(0); fd < 3; fd++ {
			flags := int32(linux.O_RDWR)
			p.FDs.Alloc(newDevFile(r.Node, "/dev/console", flags), false, fd)
		}
	}

	k.addProc(p)
	k.registerProcSynthetic(p)
	return p
}

// Fork creates a conventional child process: copied descriptor table
// (shared descriptions), copied signal actions, fresh pending set — the
// kernel-state half of WALI's pass-through fork.
func (p *Process) Fork() *Process {
	k := p.K
	pid := k.allocPID()

	p.mu.Lock()
	c := &Process{
		K:         k,
		PID:       pid,
		TGID:      pid,
		ppid:      p.TGID,
		pgid:      p.pgid,
		sid:       p.sid,
		comm:      p.comm,
		argv:      append([]string(nil), p.argv...),
		envp:      append([]string(nil), p.envp...),
		parent:    p,
		children:  make(map[int32]*Process),
		fs:        &fsState{cwd: p.fs.cwd, umask: p.fs.umask},
		creds:     p.creds.clone(),
		FDs:       p.FDs.Clone(),
		sig:       p.sig.clone(),
		sigMask:   p.sigMask,
		startMono: k.Monotonic(),
		limits:    cloneLimits(p.limits),
	}
	p.mu.Unlock()
	c.group = &threadGroup{count: 1, leader: c}

	p.mu.Lock()
	p.children[pid] = c
	p.mu.Unlock()

	k.addProc(c)
	k.registerProcSynthetic(c)
	return c
}

// CloneThread creates a CLONE_THREAD|CLONE_VM|CLONE_FILES|CLONE_SIGHAND
// light-weight process in p's thread group.
func (p *Process) CloneThread() *Process {
	k := p.K
	pid := k.allocPID()

	p.mu.Lock()
	t := &Process{
		K:         k,
		PID:       pid,
		TGID:      p.TGID,
		ppid:      p.ppid,
		pgid:      p.pgid,
		sid:       p.sid,
		comm:      p.comm,
		argv:      p.argv,
		envp:      p.envp,
		parent:    p.parent,
		children:  make(map[int32]*Process),
		fs:        p.fs,
		creds:     p.creds,
		FDs:       p.FDs,
		sig:       p.sig,
		sigMask:   p.sigMask,
		group:     p.group,
		startMono: k.Monotonic(),
		limits:    p.limits,
	}
	p.mu.Unlock()
	t.sig.threaded.Store(true)

	t.group.mu.Lock()
	t.group.count++
	t.group.mu.Unlock()

	k.addProc(t)
	return t
}

// Exec applies execve kernel semantics: close-on-exec descriptors are
// closed, caught signals reset to default, argv/envp replaced.
func (p *Process) Exec(comm string, argv, envp []string) {
	p.FDs.CloseExec()
	p.sig.resetForExec()
	p.mu.Lock()
	p.comm = comm
	p.argv = append([]string(nil), argv...)
	p.envp = append([]string(nil), envp...)
	p.mu.Unlock()
}

// Exit terminates the task. For the last thread in a group the process
// becomes a zombie, descriptors close, SIGCHLD is posted to the parent and
// waiters wake. Earlier threads just disappear. The return value reports
// whether this was the group's final thread (the engine releases
// address-space-wide accounting only then).
func (p *Process) Exit(status int32) bool {
	k := p.K

	p.group.mu.Lock()
	p.group.count--
	last := p.group.count == 0
	leader := p.group.leader
	p.group.mu.Unlock()

	if p.alarmTimer != nil {
		p.alarmTimer.Stop()
	}
	p.mu.Lock()
	if p.waiter != nil {
		p.sig.pollQ.Remove(p.waiter)
		p.waiter = nil
	}
	p.mu.Unlock()

	if !last {
		// A non-final thread: remove from the table and vanish (joiners
		// rendezvous on the clear-tid futex, not on wait4).
		k.delProc(p.PID)
		return false
	}

	leader.FDs.CloseAll()

	// Reparent children to "init" (auto-reap zombies, keep runners with
	// ppid 1).
	leader.mu.Lock()
	children := leader.children
	leader.children = map[int32]*Process{}
	leader.mu.Unlock()
	for _, c := range children {
		c.mu.Lock()
		c.ppid = 1
		c.parent = nil
		zombie := c.state == stateZombie
		c.mu.Unlock()
		if zombie {
			k.reap(c)
		}
	}

	leader.mu.Lock()
	leader.state = stateZombie
	leader.exitSt = status
	parent := leader.parent
	leader.mu.Unlock()

	if p != leader {
		k.delProc(p.PID)
	}

	if parent != nil {
		// SIGCHLD first, so a parent that returns from wait4 already
		// sees it pending; the wake of childQ is what wait4 sleeps on.
		parent.PostSignal(linux.SIGCHLD)
		parent.childQ.Wake()
	} else {
		// No parent: init reaps immediately.
		k.reap(leader)
	}
	return true
}

// reap removes a zombie from the process table.
func (k *Kernel) reap(p *Process) {
	p.mu.Lock()
	p.state = stateDead
	p.mu.Unlock()
	k.delProc(p.PID)
	k.unregisterProcSynthetic(p)
}

// findChild scans p's children for those pid selects (wait4's pid
// argument), returning a zombie among them, if any, and whether any
// waitable child matched at all.
func (p *Process) findChild(pid int32) (zombie *Process, anyChild bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.children {
		c.mu.Lock()
		ok := false
		switch {
		case pid > 0:
			ok = c.PID == pid
		case pid == -1:
			ok = true
		case pid == 0:
			ok = c.pgid == p.pgid
		default:
			ok = c.pgid == -pid
		}
		// A child a concurrent waiter has claimed (dead, about to leave
		// the map) is no longer waitable.
		ok = ok && c.state != stateDead
		isZombie := c.state == stateZombie
		c.mu.Unlock()
		if ok {
			anyChild = true
			if isZombie {
				return c, true
			}
		}
	}
	return nil, anyChild
}

// Wait4 implements wait4(pid, options): pid>0 waits for that child, -1 for
// any, 0 for the caller's process group, <-1 for |pid|'s group. Returns
// the reaped pid and its raw wait status.
func (p *Process) Wait4(pid int32, options int32) (int32, int32, linux.Rusage, linux.Errno) {
	var (
		rpid, status int32
		ru           linux.Rusage
	)
	errno := p.sleep(func(qs []*waitq.Queue) []*waitq.Queue { return append(qs, &p.childQ) }, time.Time{}, func() linux.Errno {
		for {
			match, anyChild := p.findChild(pid)
			switch {
			case match != nil:
			case !anyChild:
				return linux.ECHILD
			case options&linux.WNOHANG != 0:
				return 0
			default:
				return linux.EAGAIN
			}
			// Claim the zombie by transitioning it to dead under its own
			// lock; a concurrent waiter that lost the claim rescans.
			match.mu.Lock()
			if match.state != stateZombie {
				match.mu.Unlock()
				continue
			}
			match.state = stateDead
			rpid, status = match.PID, match.exitSt
			ru = linux.Rusage{
				Utime: linux.TimespecFromNanos(match.utimeNs),
				Stime: linux.TimespecFromNanos(match.stimeNs),
			}
			match.mu.Unlock()
			p.mu.Lock()
			delete(p.children, match.PID)
			p.mu.Unlock()
			p.K.reap(match)
			return 0
		}
	})
	if errno != 0 {
		return -1, 0, linux.Rusage{}, errno
	}
	return rpid, status, ru, 0
}

// --- identity accessors ---

// Getppid returns the parent pid.
func (p *Process) Getppid() int32 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ppid
}

// Getpgid returns the process group of pid (0 = caller).
func (p *Process) Getpgid(pid int32) (int32, linux.Errno) {
	t := p
	if pid != 0 && pid != p.PID {
		var ok bool
		t, ok = p.K.Process(pid)
		if !ok {
			return -1, linux.ESRCH
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.pgid, 0
}

// Setpgid moves pid (0 = caller) into process group pgid (0 = own pid).
func (p *Process) Setpgid(pid, pgid int32) linux.Errno {
	t := p
	if pid != 0 && pid != p.PID {
		var ok bool
		t, ok = p.K.Process(pid)
		if !ok {
			return linux.ESRCH
		}
	}
	if pgid < 0 {
		return linux.EINVAL
	}
	if pgid == 0 {
		pgid = t.PID
	}
	t.mu.Lock()
	t.pgid = pgid
	t.mu.Unlock()
	return 0
}

// Setsid makes the caller a session and group leader.
func (p *Process) Setsid() (int32, linux.Errno) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.pgid == p.PID {
		return -1, linux.EPERM
	}
	p.sid = p.PID
	p.pgid = p.PID
	return p.PID, 0
}

// Getsid returns the session id.
func (p *Process) Getsid() int32 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.sid
}

// Comm returns the process name.
func (p *Process) Comm() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.comm
}

// Argv returns the command-line vector.
func (p *Process) Argv() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]string(nil), p.argv...)
}

// Envp returns the environment vector.
func (p *Process) Envp() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]string(nil), p.envp...)
}

func (p *Process) uid() uint32 {
	p.creds.mu.Lock()
	defer p.creds.mu.Unlock()
	return p.creds.uid
}

func (p *Process) gid() uint32 {
	p.creds.mu.Lock()
	defer p.creds.mu.Unlock()
	return p.creds.gid
}

// Creds returns (uid, euid, gid, egid).
func (p *Process) Creds() (uint32, uint32, uint32, uint32) {
	p.creds.mu.Lock()
	defer p.creds.mu.Unlock()
	return p.creds.uid, p.creds.euid, p.creds.gid, p.creds.egid
}

// SetUID implements setuid (simplified: no saved-set semantics).
func (p *Process) SetUID(uid uint32) linux.Errno {
	p.creds.mu.Lock()
	defer p.creds.mu.Unlock()
	if p.creds.euid != 0 && uid != p.creds.uid {
		return linux.EPERM
	}
	p.creds.uid = uid
	p.creds.euid = uid
	return 0
}

// SetGID implements setgid.
func (p *Process) SetGID(gid uint32) linux.Errno {
	p.creds.mu.Lock()
	defer p.creds.mu.Unlock()
	if p.creds.euid != 0 && gid != p.creds.gid {
		return linux.EPERM
	}
	p.creds.gid = gid
	p.creds.egid = gid
	return 0
}

// Groups returns supplementary groups.
func (p *Process) Groups() []uint32 {
	p.creds.mu.Lock()
	defer p.creds.mu.Unlock()
	return append([]uint32(nil), p.creds.groups...)
}

// SetGroups sets supplementary groups.
func (p *Process) SetGroups(g []uint32) linux.Errno {
	p.creds.mu.Lock()
	defer p.creds.mu.Unlock()
	if p.creds.euid != 0 {
		return linux.EPERM
	}
	p.creds.groups = append([]uint32(nil), g...)
	return 0
}

// Cwd returns the current directory.
func (p *Process) Cwd() string {
	p.fs.mu.Lock()
	defer p.fs.mu.Unlock()
	return p.fs.cwd
}

// Umask sets the file creation mask, returning the previous value.
func (p *Process) Umask(mask uint32) uint32 {
	p.fs.mu.Lock()
	defer p.fs.mu.Unlock()
	old := p.fs.umask
	p.fs.umask = mask & 0o777
	return old
}

// AddCPUTime accrues rusage times (the WALI layer attributes measured
// execution time here).
func (p *Process) AddCPUTime(userNs, sysNs int64) {
	p.mu.Lock()
	p.utimeNs += userNs
	p.stimeNs += sysNs
	p.mu.Unlock()
}

// Rusage returns accumulated usage for RUSAGE_SELF.
func (p *Process) Rusage() linux.Rusage {
	p.mu.Lock()
	defer p.mu.Unlock()
	return linux.Rusage{
		Utime: linux.TimespecFromNanos(p.utimeNs),
		Stime: linux.TimespecFromNanos(p.stimeNs),
	}
}

// StartMonotonic returns the process start time on the monotonic clock.
func (p *Process) StartMonotonic() linux.Timespec {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.startMono
}

// SetClearTID records the CLONE_CHILD_CLEARTID / set_tid_address address;
// the WALI layer performs the memory write + futex wake at exit since it
// owns the address space.
func (p *Process) SetClearTID(addr uint32) {
	p.mu.Lock()
	p.clearTIDAddr = addr
	p.mu.Unlock()
}

// ClearTID returns the recorded clear-child-tid address.
func (p *Process) ClearTID() uint32 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.clearTIDAddr
}

// Prlimit gets/sets a resource limit. newLim nil = query only.
func (p *Process) Prlimit(res int32, newLim *[2]uint64) ([2]uint64, linux.Errno) {
	p.mu.Lock()
	defer p.mu.Unlock()
	old, ok := p.limits[res]
	if !ok {
		old = [2]uint64{linux.RLIM_INFINITY, linux.RLIM_INFINITY}
	}
	if newLim != nil {
		if newLim[0] > newLim[1] {
			return old, linux.EINVAL
		}
		p.limits[res] = *newLim
		if res == linux.RLIMIT_NOFILE {
			p.FDs.SetLimit(int(newLim[0]))
		}
	}
	return old, 0
}

// Alarm schedules SIGALRM after seconds (0 cancels), returning seconds
// remaining on any previous alarm (approximated as 0).
func (p *Process) Alarm(seconds uint32) uint32 {
	p.mu.Lock()
	if p.alarmTimer != nil {
		p.alarmTimer.Stop()
		p.alarmTimer = nil
	}
	if seconds > 0 {
		p.alarmTimer = time.AfterFunc(time.Duration(seconds)*time.Second, func() {
			p.PostSignal(linux.SIGALRM)
		})
	}
	p.mu.Unlock()
	return 0
}

func cloneLimits(m map[int32][2]uint64) map[int32][2]uint64 {
	out := make(map[int32][2]uint64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// Alive reports whether the process is still running (not zombie/dead).
func (p *Process) Alive() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.state == stateRunning
}
