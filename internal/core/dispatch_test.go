package core

import (
	"fmt"
	"strings"
	"testing"

	"gowali/internal/interp"
	"gowali/internal/linux"
	"gowali/internal/obs"
	"gowali/internal/wasm"
)

// TestDisarmedDispatchAllocatesNothing is the allocation guard for the
// thin syscall path: with no consumer armed, a syscall costs no heap
// allocation, whether it arrives as a module import or through
// Process.Syscall (the layered-API entry).
func TestDisarmedDispatchAllocatesNothing(t *testing.T) {
	const calls = 64
	w := New()
	p, err := w.SpawnCompiled(statApp(t, calls), "allocs", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	start, _ := p.Module.ExportedFunc(StartExport)
	if n := testing.AllocsPerRun(50, func() {
		if _, err := p.Exec.Invoke(start); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("import path: %v allocations per %d getpid calls, want 0", n, calls)
	}
	if n := testing.AllocsPerRun(50, func() {
		p.Syscall(p.Exec, "getpid")
		p.Syscall(p.Exec, "lseek", -1, 0, linux.SEEK_SET)
	}); n != 0 {
		t.Errorf("Process.Syscall: %v allocations per pair of calls, want 0", n)
	}
	want := uint64(51*calls + 51*2) // AllocsPerRun adds one warm-up run
	if _, n := w.SyscallStats(p.KP.PID); n != want {
		t.Errorf("syscall count = %d, want %d", n, want)
	}
}

// TestDisarmedEmitAllocatesNothing pins the other half of the disarmed
// contract: Emit on a nil or disabled tracer (what every scheduler block
// cycle and every spawn calls unconditionally) allocates nothing. Before
// the guard was split from the recording half, the escaping event was
// heap-allocated at function entry either way.
func TestDisarmedEmitAllocatesNothing(t *testing.T) {
	for name, tr := range map[string]*obs.Tracer{"nil": nil, "disabled": obs.NewTracer(8)} {
		tr := tr
		if n := testing.AllocsPerRun(100, func() {
			tr.Emit(obs.Event{Kind: obs.EvSchedUnblock, PID: 7, Dur: 3})
		}); n != 0 {
			t.Errorf("%s tracer: %v allocations per Emit, want 0", name, n)
		}
	}
}

// TestForkFromHostCallKeepsOperandStacks runs fork() and the 5-argument
// clone()-as-fork from a guest that is holding a value on the operand
// stack across the call. The syscall's params are still on the parent's
// stack while sysFork clones it; parent and child must both resume with
// the held value intact and their own return value on top of it.
func TestForkFromHostCallKeepsOperandStacks(t *testing.T) {
	for _, sys := range []string{"fork", "clone"} {
		for _, tier := range []interp.ExecTier{interp.TierFused, interp.TierIR} {
			t.Run(sys+"/"+tier.String(), func(t *testing.T) {
				b := newApp(sys, "wait4", "exit")
				f := b.NewFunc(StartExport, nil, nil)
				r := f.Local(wasm.I64)
				// r = 4000 + fork(); child (r == 4000) exits 40.
				f.I64Const(4000)
				if sys == "clone" {
					b.call(f, "clone", linux.SIGCHLD, 11, 12, 13, 14)
				} else {
					b.call(f, "fork")
				}
				f.Op(wasm.OpI64Add).LocalSet(r)
				f.LocalGet(r).I64Const(4000).Op(wasm.OpI64Eq)
				f.If()
				b.call(f, "exit", 40)
				f.Drop()
				f.End()
				// Parent: r - 4000 must be the pid wait4 reaps; exit with
				// the child's status plus one when it is.
				f.LocalGet(r).I64Const(4000).Op(wasm.OpI64Sub)
				f.I64Const(2000).I64Const(0).I64Const(0).Call(b.sys["wait4"])
				f.LocalGet(r).I64Const(4000).Op(wasm.OpI64Sub).Op(wasm.OpI64Eq)
				f.I32Const(2000).Load(wasm.OpI32Load, 0)
				f.I32Const(8).Op(wasm.OpI32ShrU).I32Const(0xFF).Op(wasm.OpI32And)
				f.Op(wasm.OpI32Add).Op(wasm.OpI64ExtendI32U)
				f.Call(b.sys["exit"]).Drop()
				f.Finish()
				w, _, status, err := runAppOn(t, b, nil, nil, tier)
				if err != nil || status != 41 {
					t.Fatalf("parent exit = %d (err %v), want 41: child's 40 plus a matching pid", status, err)
				}
				if n := w.Kernel.ProcessCount(); n != 0 {
					t.Errorf("%d processes leaked", n)
				}
			})
		}
	}
}

// sinkGuest installs /bin/target.wasm (getpid, exit_group 5) and returns
// a launcher that does getpid, a failing write, then execve's the target.
func sinkGuest(t *testing.T, w *WALI) *wasm.Module {
	t.Helper()
	tb := newApp("getpid", "exit_group")
	tf := tb.NewFunc(StartExport, nil, nil)
	tb.call(tf, "getpid")
	tf.Drop()
	tb.call(tf, "exit_group", 5)
	tf.Drop()
	tf.Finish()
	target, err := tb.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.InstallBinary("/bin/target.wasm", target); err != nil {
		t.Fatal(err)
	}
	b := newApp("getpid", "write", "execve")
	b.Data(1024, []byte("/bin/target.wasm\x00"))
	f := b.NewFunc(StartExport, nil, nil)
	b.call(f, "getpid")
	f.Drop()
	b.call(f, "write", 99, 1024, 1)
	f.Drop()
	b.call(f, "execve", 1024, 0, 0)
	f.Drop()
	f.Finish()
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSyscallSinkParity pins the event stream a hook sees — name, return
// value, a measured duration, with execve and exit included although they
// unwind by panic — and checks that SyscallStats counts exactly the
// events a hook would see whether or not one was armed.
func TestSyscallSinkParity(t *testing.T) {
	for _, armed := range []bool{false, true} {
		t.Run(fmt.Sprintf("armed=%v", armed), func(t *testing.T) {
			w := New()
			var events []SyscallEvent
			if armed {
				w.AddHook(func(ev SyscallEvent) { events = append(events, ev) })
			}
			p, err := w.SpawnModule(sinkGuest(t, w), "launcher", []string{"launcher"}, nil)
			if err != nil {
				t.Fatal(err)
			}
			pid := int64(p.KP.PID)
			if status, err := p.Run(); err != nil || status != 5 {
				t.Fatalf("run: status=%d err=%v", status, err)
			}
			// execve and exit_group never return to the guest: their
			// events carry the zero the wrapper started with.
			want := []string{
				fmt.Sprintf("getpid=%d", pid),
				fmt.Sprintf("write=%d", -int64(linux.EBADF)),
				"execve=0",
				fmt.Sprintf("getpid=%d", pid),
				"exit_group=0",
			}
			d, n := w.SyscallStats(int32(pid))
			if n != uint64(len(want)) {
				t.Errorf("SyscallStats count = %d, want %d", n, len(want))
			}
			if !armed {
				if d != 0 {
					t.Errorf("handler time %v accumulated with no consumer armed", d)
				}
				return
			}
			var got []string
			for _, ev := range events {
				got = append(got, fmt.Sprintf("%s=%d", ev.Name, ev.Ret))
				if ev.PID != int32(pid) || ev.Duration <= 0 {
					t.Errorf("event %+v: want pid %d and a measured duration", ev, pid)
				}
			}
			if strings.Join(got, " ") != strings.Join(want, " ") {
				t.Errorf("event stream:\n got %v\nwant %v", got, want)
			}
			if d <= 0 {
				t.Errorf("handler time = %v with a hook armed", d)
			}
		})
	}
}

// TestAddHookOnRunningGuest: arming is evaluated per call, so a hook
// subscribed while the guest runs sees every syscall from the next one on,
// and the count covers the calls made before it too.
func TestAddHookOnRunningGuest(t *testing.T) {
	b := newApp("getpid", "exit_group")
	arm := b.ImportFunc("test", "arm", nil, nil)
	f := b.NewFunc(StartExport, nil, nil)
	for i := 0; i < 2; i++ {
		b.call(f, "getpid")
		f.Drop()
	}
	f.Call(arm)
	for i := 0; i < 3; i++ {
		b.call(f, "getpid")
		f.Drop()
	}
	b.call(f, "exit_group", 0)
	f.Drop()
	f.Finish()
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	w := New()
	var names []string
	w.ExtendLinker = func(l *interp.Linker) {
		l.DefineFunc("test", "arm", nil, nil, func(e *interp.Exec, stack []uint64) {
			w.AddHook(func(ev SyscallEvent) { names = append(names, ev.Name) })
		})
	}
	p, err := w.SpawnModule(m, "late", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if status, err := p.Run(); err != nil || status != 0 {
		t.Fatalf("run: status=%d err=%v", status, err)
	}
	if got := strings.Join(names, " "); got != "getpid getpid getpid exit_group" {
		t.Errorf("late hook saw %q", got)
	}
	if _, n := w.SyscallStats(p.KP.PID); n != 6 {
		t.Errorf("syscall count = %d, want 6", n)
	}
}
