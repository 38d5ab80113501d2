package core

import (
	"encoding/binary"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gowali/internal/kernel/sched"
	"gowali/internal/linux"
	"gowali/internal/obs"
	"gowali/internal/wasm"
)

// The sleep table: every way a guest can park in a syscall. Whatever
// the syscall, the kernel's one sleep primitive must end the park with
// EINTR for a snapshot quiesce or a kill, and give the run slot back
// while it lasts.

// Guest scratch memory for the sleepers' syscall arguments.
const (
	slArg = 2048 // pollfd / fd_set / epoll_event / sigset / timespec / sockaddr
	slOut = 2112 // pipe2 fds, epoll_wait events, read buffer
)

type sleepRow struct {
	sys     string   // the syscall the guest parks in; also the row name
	imports []string // syscalls the set-up needs
	arg     []byte   // constant argument block placed at slArg
	// setup emits one-time preparation (descriptors, a child); park emits
	// the blocking call, leaving its result on the stack.
	setup func(b *appBuilder, f *wasm.FuncBuilder)
	park  func(b *appBuilder, f *wasm.FuncBuilder)
	// restorable: the fd table is nameable by path, so Snapshot succeeds
	// and the restored child serves. Otherwise Snapshot may refuse — but
	// promptly, after the rendezvous, not by timing out.
	restorable bool
	killOnly   bool // not part of the snapshot table
}

func le64(vs ...uint64) []byte {
	out := make([]byte, 0, 8*len(vs))
	for _, v := range vs {
		out = binary.LittleEndian.AppendUint64(out, v)
	}
	return out
}

func pipeSetup(b *appBuilder, f *wasm.FuncBuilder) {
	b.call(f, "pipe2", slOut, 0) // fds 3 (read end) and 4
	f.Drop()
}

var sleepRows = []sleepRow{
	{
		sys:        "futex",
		park:       func(b *appBuilder, f *wasm.FuncBuilder) { b.call(f, "futex", stReq, linux.FUTEX_WAIT, 0, 0, 0, 0) },
		restorable: true,
	},
	{
		sys:        "poll",
		arg:        []byte{0, 0, 0, 0, linux.POLLIN, 0, 0, 0}, // the console, which has no input
		park:       func(b *appBuilder, f *wasm.FuncBuilder) { b.call(f, "poll", slArg, 1, -1) },
		restorable: true,
	},
	{
		sys:        "select",
		arg:        le64(1), // readfds = {0}
		park:       func(b *appBuilder, f *wasm.FuncBuilder) { b.call(f, "select", 1, slArg, 0, 0, 0) },
		restorable: true,
	},
	{
		sys:     "epoll_wait",
		imports: []string{"epoll_create1", "epoll_ctl"},
		arg:     []byte{linux.EPOLLIN, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		setup: func(b *appBuilder, f *wasm.FuncBuilder) {
			b.call(f, "epoll_create1", 0) // fd 3
			f.Drop()
			b.call(f, "epoll_ctl", 3, linux.EPOLL_CTL_ADD, 0, slArg)
			f.Drop()
		},
		park: func(b *appBuilder, f *wasm.FuncBuilder) { b.call(f, "epoll_wait", 3, slOut, 4, -1) },
	},
	{
		sys:        "pause",
		park:       func(b *appBuilder, f *wasm.FuncBuilder) { b.call(f, "pause") },
		restorable: true,
	},
	{
		sys:        "rt_sigtimedwait",
		arg:        le64(1 << (linux.SIGUSR1 - 1)),
		park:       func(b *appBuilder, f *wasm.FuncBuilder) { b.call(f, "rt_sigtimedwait", slArg, 0, 0, 8) },
		restorable: true,
	},
	{
		sys:     "wait4",
		imports: []string{"fork", "pause"},
		setup: func(b *appBuilder, f *wasm.FuncBuilder) {
			b.call(f, "fork")
			f.Op(wasm.OpI64Eqz)
			f.If() // the child lives, parked, until the test kills it
			f.Loop()
			b.call(f, "pause")
			f.Drop()
			f.Br(0)
			f.End()
			f.End()
		},
		park: func(b *appBuilder, f *wasm.FuncBuilder) { b.call(f, "wait4", -1, 0, 0, 0) },
	},
	{
		sys:     "read",
		imports: []string{"pipe2"},
		setup:   pipeSetup,
		park:    func(b *appBuilder, f *wasm.FuncBuilder) { b.call(f, "read", 3, slOut+16, 1) },
	},
	{
		sys:     "accept",
		imports: []string{"socket", "bind", "listen"},
		arg:     []byte{linux.AF_INET, 0, 0x1e, 0x61, 127, 0, 0, 1}, // 127.0.0.1:7777
		setup: func(b *appBuilder, f *wasm.FuncBuilder) {
			b.call(f, "socket", linux.AF_INET, linux.SOCK_STREAM, 0) // fd 3
			f.Drop()
			b.call(f, "bind", 3, slArg, 8)
			f.Drop()
			b.call(f, "listen", 3, 8)
			f.Drop()
		},
		park: func(b *appBuilder, f *wasm.FuncBuilder) { b.call(f, "accept", 3, 0, 0) },
	},
	{
		sys:        "nanosleep",
		arg:        le64(3600, 0),
		park:       func(b *appBuilder, f *wasm.FuncBuilder) { b.call(f, "nanosleep", slArg, 0) },
		restorable: true,
	},
	{
		sys:      "sendfile",
		imports:  []string{"pipe2"},
		setup:    pipeSetup,
		park:     func(b *appBuilder, f *wasm.FuncBuilder) { b.call(f, "sendfile", 1, 3, 0, 16) },
		killOnly: true,
	},
}

func sleepRowFor(sys string) sleepRow {
	for _, r := range sleepRows {
		if r.sys == sys {
			return r
		}
	}
	panic("no sleep row " + sys)
}

// buildSleeper assembles a service guest around one sleep: warm up, set
// up, then park in the row's syscall until the request word goes nonzero
// (the host writes it into a restored child before resuming), answer
// 2*req+1 and exit with req&63. The loop back-edge after the syscall is
// the safepoint an interrupted sleep parks at.
func buildSleeper(r sleepRow) *appBuilder {
	b := newApp(append([]string{"getpid", "exit_group", r.sys}, r.imports...)...)
	if r.arg != nil {
		b.Data(slArg, r.arg)
	}
	f := b.NewFunc(StartExport, nil, nil)
	req := f.Local(wasm.I64)
	warmAndReady(b, f)
	if r.setup != nil {
		r.setup(b, f)
	}
	f.Block()
	f.Loop()
	f.I32Const(stReq).Load(wasm.OpI64Load, 0).LocalTee(req)
	f.I64Const(0).Op(wasm.OpI64Ne).BrIf(1)
	r.park(b, f)
	f.Drop()
	f.Br(0)
	f.End()
	f.End()
	f.I32Const(stResp)
	f.LocalGet(req).I64Const(2).Op(wasm.OpI64Mul).I64Const(1).Op(wasm.OpI64Add)
	f.Store(wasm.OpI64Store, 0)
	f.LocalGet(req).I64Const(63).Op(wasm.OpI64And).Call(b.sys["exit_group"]).Drop()
	f.Finish()
	return b
}

// parkProbe is a kernel.Blocker that reports the first park: BeginBlock
// runs after the sleeper has armed its queues, so a wakeup sent once
// parked has fired cannot be lost.
type parkProbe struct{ parked chan struct{} }

func (b parkProbe) BeginBlock() {
	select {
	case b.parked <- struct{}{}:
	default:
	}
}
func (parkProbe) EndBlock() {}

// killSleeper SIGKILLs the sleeper's process group (the guest and, for
// wait4, its child) and requires the guest gone within 2 s.
func killSleeper(t *testing.T, w *WALI, p *Process) {
	t.Helper()
	p.KP.Kill(0, linux.SIGKILL)
	select {
	case <-p.Done():
	case <-time.After(2 * time.Second):
		buf := make([]byte, 1<<20)
		t.Fatalf("parked guest survived SIGKILL\n%s", buf[:runtime.Stack(buf, true)])
	}
	if status, _ := p.Wait(); status != 128+linux.SIGKILL {
		t.Errorf("status %d, want %d", status, 128+linux.SIGKILL)
	}
	w.WaitAll()
}

// waitGoroutines requires the goroutine count back at base within 5 s
// (goroutines unwind asynchronously after a kill).
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines, %d before the run\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
	}
}

// TestSnapshotQuiescesSleep: the quiesce request must pull a guest out
// of any sleep (EINTR) so it parks at a safepoint within a second, not
// after the 5 s rendezvous timeout. Where the descriptor table can be
// re-opened by path, the restored child resumes from that safepoint,
// sees its injected request and serves it; where it cannot, the refusal
// comes from the capture, after the rendezvous.
func TestSnapshotQuiescesSleep(t *testing.T) {
	for _, row := range sleepRows {
		if row.killOnly {
			continue
		}
		t.Run(row.sys, func(t *testing.T) {
			w := New()
			var interrupted atomic.Bool
			w.AddHook(func(ev SyscallEvent) {
				if ev.Name == row.sys && ev.Ret == -int64(linux.EINTR) {
					interrupted.Store(true)
				}
			})
			m, err := buildSleeper(row).Build()
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			p, err := w.SpawnModule(m, row.sys, nil, nil)
			if err != nil {
				t.Fatalf("spawn: %v", err)
			}
			probe := parkProbe{parked: make(chan struct{}, 1)}
			p.KP.SetBlocker(probe)
			p.RunAsync()
			defer killSleeper(t, w, p)
			select {
			case <-probe.parked:
			case <-time.After(10 * time.Second):
				t.Fatal("guest never parked")
			}

			start := time.Now()
			img, err := w.Snapshot(p)
			if d := time.Since(start); d > time.Second {
				t.Errorf("snapshot took %v, want under 1s (err=%v)", d, err)
			}
			if !interrupted.Load() {
				t.Errorf("guest did not observe EINTR from %s", row.sys)
			}
			if !row.restorable {
				if err != nil && !strings.Contains(err.Error(), "not snapshottable") {
					t.Fatalf("snapshot: %v, want success or a not-snapshottable refusal", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("snapshot: %v", err)
			}
			ch, err := w.Restore(img, nil)
			if err != nil {
				t.Fatalf("restore: %v", err)
			}
			ch.Inst.Mem.WriteU64(stReq, 5)
			status, runErr := ch.Resume()
			if runErr != nil || status != 5 {
				t.Fatalf("restored child: status=%d err=%v", status, runErr)
			}
			if resp, _ := ch.Inst.Mem.ReadU64(stResp); resp != 11 {
				t.Fatalf("resp = %d, want 11", resp)
			}
			checkWarmRegion(t, ch.Inst.Mem.ReadU32, "restored child")
		})
	}
}

// TestKillEndsSleep: a guest parked in any sleep gives its run slot back
// (with one worker, a second guest completes while the first is parked),
// dies within 2 s of SIGKILL, and leaves no goroutine behind.
func TestKillEndsSleep(t *testing.T) {
	compute := buildComputeApp(1000)
	for _, row := range sleepRows {
		t.Run(row.sys, func(t *testing.T) {
			base := runtime.NumGoroutine()
			w := New()
			// Big quantum: only parking frees the one slot in time (the
			// watchdog would reclaim it after 8 quanta).
			w.Sched = sched.New(sched.Config{Workers: 1, Quantum: time.Second})
			// The sleeper is past its first syscall, so it holds the slot
			// when the second guest queues up behind it.
			p := spawnWarm(t, w, buildSleeper(row), row.sys)
			comp, err := w.SpawnModule(compute, "compute", nil, nil)
			if err != nil {
				t.Fatalf("spawn: %v", err)
			}
			comp.RunAsync()
			select {
			case <-comp.Done():
			case <-time.After(5 * time.Second):
				t.Fatalf("second guest never ran: %s did not release the run slot", row.sys)
			}

			killSleeper(t, w, p)
			w.Kernel.Shutdown()

			waitGoroutines(t, base)
		})
	}
}

// buildFamilySleeper is buildSleeper with company: after the row's set-up
// the guest starts a CLONE_THREAD thread and forks, and all three park in
// the row's syscall — the thread on the parent's descriptors and signal
// queue, the child on copies. A task the syscall will not keep (wait4
// answers ECHILD to a thread and to the childless child) parks in pause
// instead; EINTR parks it again.
func buildFamilySleeper(r sleepRow) *appBuilder {
	names := []string{"getpid", "clone", "fork", "pause"}
	for _, n := range append([]string{r.sys}, r.imports...) {
		if n != "fork" && n != "pause" {
			names = append(names, n)
		}
	}
	b := newApp(names...)
	if r.arg != nil {
		b.Data(slArg, r.arg)
	}
	parkForever := func(f *wasm.FuncBuilder) {
		f.Loop()
		r.park(b, f)
		f.I64Const(-int64(linux.EINTR)).Op(wasm.OpI64Eq).BrIf(0)
		f.End()
		f.Loop()
		b.call(f, "pause")
		f.Drop()
		f.Br(0)
		f.End()
	}
	tf := b.NewFunc("", []wasm.ValType{wasm.I32}, nil)
	parkForever(tf)
	b.Table(4, 4)
	b.Elem(1, tf.Finish())

	f := b.NewFunc(StartExport, nil, nil)
	warmAndReady(b, f)
	if r.setup != nil {
		r.setup(b, f)
	}
	b.call(f, "clone", linux.CLONE_THREAD|linux.CLONE_VM, 1, 0, 0, 0)
	f.Drop()
	b.call(f, "fork")
	f.Drop()
	parkForever(f)
	f.Finish()
	return b
}

// parkedTasks waits until the scheduler's trace shows exactly want tasks
// whose latest transition is a block, and returns their pids. A block
// event is anchored at the start of the slice it ends (TS = end - Dur),
// so transitions are ordered by TS+Dur, the time they were emitted.
func parkedTasks(t *testing.T, tr *obs.Tracer, want int) []int32 {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		blockedAt, unblockedAt := map[int32]int64{}, map[int32]int64{}
		for _, ev := range tr.Events() {
			switch ev.Kind {
			case obs.EvSchedBlock:
				blockedAt[ev.PID] = max(blockedAt[ev.PID], ev.TS+ev.Dur)
			case obs.EvSchedUnblock:
				unblockedAt[ev.PID] = max(unblockedAt[ev.PID], ev.TS)
			}
		}
		var pids []int32
		for pid, at := range blockedAt {
			if at >= unblockedAt[pid] {
				pids = append(pids, pid)
			}
		}
		if len(pids) == want {
			return pids
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d tasks parked, want %d", len(pids), want)
		}
	}
}

// TestFamilySleepsWakeSeparately: with a parent, its thread and its forked
// child asleep in the same syscall at once, each parks on a waiter of its
// own — a quiesce request pulls exactly the task it names out of its
// sleep within a second (the thread shares the parent's signal queue, the
// child does not) while the others sleep on, and SIGKILL ends them all.
func TestFamilySleepsWakeSeparately(t *testing.T) {
	for _, row := range sleepRows {
		t.Run(row.sys, func(t *testing.T) {
			base := runtime.NumGoroutine()
			w := New()
			tr := obs.NewTracer(0)
			tr.SetEnabled(true)
			w.Sched = sched.New(sched.Config{Trace: tr})
			var mu sync.Mutex
			eintr := map[int32]int{}
			w.AddHook(func(ev SyscallEvent) {
				if ev.Ret == -int64(linux.EINTR) {
					mu.Lock()
					eintr[ev.PID]++
					mu.Unlock()
				}
			})
			p := spawnWarm(t, w, buildFamilySleeper(row), row.sys)
			family := 3
			if row.sys == "wait4" {
				family++ // the set-up's own child, parked in pause
			}
			for _, pid := range parkedTasks(t, tr, family) {
				kp, ok := w.Kernel.Process(pid)
				if !ok {
					t.Fatalf("parked pid %d is not in the process table", pid)
				}
				kp.RequestQuiesce()
				for deadline := time.Now().Add(time.Second); ; time.Sleep(100 * time.Microsecond) {
					mu.Lock()
					n, others := eintr[pid], len(eintr)
					mu.Unlock()
					if n > 0 {
						if others != 1 {
							t.Errorf("quiesce of pid %d interrupted %d tasks, want 1", pid, others)
						}
						break
					}
					if time.Now().After(deadline) {
						t.Fatalf("pid %d still asleep 1 s after its quiesce request", pid)
					}
				}
				kp.ClearQuiesce()
				parkedTasks(t, tr, family)
				mu.Lock()
				clear(eintr)
				mu.Unlock()
			}

			killSleeper(t, w, p)
			w.Kernel.Shutdown()
			waitGoroutines(t, base)
		})
	}
}
