package core

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
	"time"

	"gowali/internal/interp"
	"gowali/internal/kernel/sched"
	"gowali/internal/linux"
	"gowali/internal/wasm"
)

// Addresses the overlay tests share. newApp modules have 4 pages.
const (
	ovSeg      = 256                 // data segment, page 0
	ovSegWord  = ovSeg + 8           // the word inside it the guests overwrite
	ovZeroWord = 2*wasm.PageSize + 8 // a word on a page no segment covers
	ovStatus   = 3 * wasm.PageSize   // wait4 status word
)

var ovSegBytes = []byte("0123456789abcdef0123456789abcdef")

// buildIsolationGuest: write getpid() over a word of the data segment
// and over a word on a zero-backed page, fork; the child checks it
// inherited the parent's words (exit 1 if not), overwrites both with its
// own pid and exits 0; the parent waits, then exits 0 only if the child
// exited 0 and its own two words still hold its own pid.
func buildIsolationGuest(t *testing.T) *interp.Compiled {
	t.Helper()
	b := newApp("getpid", "getppid", "fork", "wait4", "exit")
	b.Data(ovSeg, ovSegBytes)
	f := b.NewFunc(StartExport, nil, nil)
	pid := f.Local(wasm.I64)
	r := f.Local(wasm.I64)
	storeBoth := func() {
		f.I32Const(ovSegWord).LocalGet(pid).Store(wasm.OpI64Store, 0)
		f.I32Const(ovZeroWord).LocalGet(pid).Store(wasm.OpI64Store, 0)
	}
	// exit(code) unless both words equal the i64 that push leaves on top.
	exitUnlessBoth := func(push func(), code int64) {
		for _, a := range []int32{ovSegWord, ovZeroWord} {
			f.I32Const(a).Load(wasm.OpI64Load, 0)
			push()
			f.Op(wasm.OpI64Ne).If()
			b.call(f, "exit", code)
			f.Drop()
			f.End()
		}
	}
	b.call(f, "getpid")
	f.LocalSet(pid)
	storeBoth()
	b.call(f, "fork")
	f.LocalSet(r)
	f.LocalGet(r).Op(wasm.OpI64Eqz).If()
	{
		exitUnlessBoth(func() { b.call(f, "getppid") }, 1)
		b.call(f, "getpid")
		f.LocalSet(pid)
		storeBoth()
		b.call(f, "exit", 0)
		f.Drop()
	}
	f.End()
	b.call(f, "wait4", -1, ovStatus, 0, 0)
	f.Drop()
	f.I32Const(ovStatus).Load(wasm.OpI32Load, 0).If()
	b.call(f, "exit", 2)
	f.Drop()
	f.End()
	exitUnlessBoth(func() { f.LocalGet(pid) }, 3)
	b.call(f, "exit", 0)
	f.Drop()
	f.Finish()
	m, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	c, err := interp.Compile(m)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return c
}

// TestSpawnIsolation: guests spawned from one Compiled start over the same
// shared clean pages, and a fork shares its parent's — none may observe
// another's writes, on the data-segment page or on a zero-backed one, and
// an instance started afterwards still sees the pristine image (the zero
// page took no write). Run with -race: the shared pages are read
// concurrently.
func TestSpawnIsolation(t *testing.T) {
	for _, tier := range []interp.ExecTier{interp.TierFused, interp.TierIR} {
		t.Run(tier.String(), func(t *testing.T) {
			c := buildIsolationGuest(t)
			w := New()
			w.Tier = tier
			const n = 4
			var ps [n]*Process
			for i := range ps {
				p, err := w.SpawnCompiled(c, "iso", nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !p.Inst.Mem.CowActive() || p.Inst.Mem.DirtyPages() != 1 {
					t.Fatalf("guest %d starts with overlay=%v, %d private pages; want the data segment's one",
						i, p.Inst.Mem.CowActive(), p.Inst.Mem.DirtyPages())
				}
				ps[i] = p
			}
			for _, p := range ps {
				p.RunAsync()
			}
			for i, p := range ps {
				status, err := p.Wait()
				if err != nil || status != 0 {
					t.Fatalf("guest %d: status %d (1: fork child missed the parent's words, 2: child failed, 3: parent's words changed), err %v", i, status, err)
				}
				mem := p.Inst.Mem
				for _, a := range []uint32{ovSegWord, ovZeroWord} {
					if v, _ := mem.ReadU64(a); v != uint64(p.KP.PID) {
						t.Fatalf("guest %d (pid %d): word at %#x = %d", i, p.KP.PID, a, v)
					}
				}
				seg := make([]byte, len(ovSegBytes))
				mem.ReadBytes(ovSeg, seg)
				if !bytes.Equal(seg[:8], ovSegBytes[:8]) || !bytes.Equal(seg[16:], ovSegBytes[16:]) {
					t.Fatalf("guest %d: data segment around its word is %q", i, seg)
				}
				if d := mem.DirtyPages(); d != 3 { // segment page, zero-word page, wait status page
					t.Fatalf("guest %d: %d private pages, want 3", i, d)
				}
			}
			w.WaitAll()

			fresh, err := c.Instantiate(w.hostLinker())
			if err != nil {
				t.Fatal(err)
			}
			want := make([]byte, 4*wasm.PageSize)
			copy(want[ovSeg:], ovSegBytes)
			if !bytes.Equal(fresh.Mem.SnapshotBytes(), want) {
				t.Fatal("an instance started after the run does not see the pristine image")
			}
		})
	}
}

// buildTouchGuest: a 16-page guest that stores one word on each of the
// first `touch` odd pages, then runs tail (which must end the guest).
func buildTouchGuest(t *testing.T, touch int, syscalls []string, tail func(b *appBuilder, f *wasm.FuncBuilder)) *interp.Compiled {
	t.Helper()
	b := newApp(syscalls...)
	b.Memory(16, 16, false)
	f := b.NewFunc(StartExport, nil, nil)
	for i := 0; i < touch; i++ {
		f.I32Const(int32(2*i+1)*wasm.PageSize).I32Const(int32(i+1)).Store(wasm.OpI32Store, 0)
	}
	tail(b, f)
	f.Finish()
	m, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	c, err := interp.Compile(m)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return c
}

func exitZero(b *appBuilder, f *wasm.FuncBuilder) {
	b.call(f, "exit_group", 0)
	f.Drop()
}

// TestSpawnAllocatesTouchedPagesOnly is the allocation guard for the
// start path: Spawn+Run of a 16-page guest that writes one page must
// allocate less than three pages of heap — the touched page plus
// everything else a start needs — not the 1 MiB its memory declares.
func TestSpawnAllocatesTouchedPagesOnly(t *testing.T) {
	c := buildTouchGuest(t, 1, []string{"exit_group"}, exitZero)
	w := New()
	start := func() {
		p, err := w.SpawnCompiled(c, "touch", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if status, err := p.Run(); err != nil || status != 0 {
			t.Fatalf("status %d, err %v", status, err)
		}
		if d := p.Inst.Mem.DirtyPages(); d != 1 {
			t.Fatalf("guest ended with %d private pages, want 1", d)
		}
	}
	start() // host table and linker are built at the first spawn
	const runs = 20
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		start()
	}
	runtime.ReadMemStats(&m1)
	perStart := (m1.TotalAlloc - m0.TotalAlloc) / runs
	if perStart >= 3*wasm.PageSize {
		t.Fatalf("a start allocated %d bytes, want < %d (3 pages) for a guest that touches one", perStart, 3*wasm.PageSize)
	}
}

// waitLedger polls the tenant's memory ledger until it reads want.
func waitLedger(t *testing.T, tn *sched.Tenant, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for tn.MemoryInUse() != want {
		if time.Now().After(deadline) {
			t.Fatalf("tenant ledger = %d bytes, want %d", tn.MemoryInUse(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSpawnTenantChargesTouchedPages: a spawned guest's tenant charge is
// the Restore rule — nothing for clean pages, one page per first write —
// and the ledger returns to zero on a normal exit and on SIGKILL alike;
// a write the budget cannot cover traps TrapMemBudget.
func TestSpawnTenantChargesTouchedPages(t *testing.T) {
	const touched = 3
	t.Run("exit", func(t *testing.T) {
		w := New()
		tn := w.NewTenant("exit", sched.Budget{MaxMemory: touched * wasm.PageSize})
		c := buildTouchGuest(t, touched, []string{"exit_group"}, exitZero)
		p, err := w.SpawnCompiledTenant(c, "touch", nil, nil, tn)
		if err != nil {
			t.Fatal(err)
		}
		if got := tn.MemoryInUse(); got != 0 {
			t.Fatalf("charged %d bytes at spawn for a module with no data segment", got)
		}
		if status, err := p.Run(); err != nil || status != 0 {
			t.Fatalf("status %d, err %v", status, err)
		}
		if d := p.Inst.Mem.DirtyPages(); d != touched {
			t.Fatalf("dirty pages = %d, want %d", d, touched)
		}
		if got := tn.MemoryInUse(); got != 0 {
			t.Fatalf("ledger = %d after exit", got)
		}
	})
	t.Run("kill", func(t *testing.T) {
		w := New()
		tn := w.NewTenant("kill", sched.Budget{MaxMemory: 16 * wasm.PageSize})
		c := buildTouchGuest(t, touched, []string{"pause"}, func(b *appBuilder, f *wasm.FuncBuilder) {
			f.Loop()
			b.call(f, "pause")
			f.Drop()
			f.Br(0)
			f.End()
		})
		p, err := w.SpawnCompiledTenant(c, "touch", nil, nil, tn)
		if err != nil {
			t.Fatal(err)
		}
		p.RunAsync()
		waitLedger(t, tn, touched*wasm.PageSize)
		p.KP.PostSignal(linux.SIGKILL)
		<-p.Done()
		w.WaitAll()
		if got := tn.MemoryInUse(); got != 0 {
			t.Fatalf("ledger = %d after SIGKILL", got)
		}
	})
	t.Run("over-budget", func(t *testing.T) {
		w := New()
		tn := w.NewTenant("tight", sched.Budget{MaxMemory: (touched - 1) * wasm.PageSize})
		c := buildTouchGuest(t, touched, []string{"exit_group"}, exitZero)
		p, err := w.SpawnCompiledTenant(c, "touch", nil, nil, tn)
		if err != nil {
			t.Fatal(err)
		}
		_, runErr := p.Run()
		var trap *interp.Trap
		if !errors.As(runErr, &trap) || trap.Code != interp.TrapMemBudget {
			t.Fatalf("run error %v, want a TrapMemBudget trap", runErr)
		}
		if d := p.Inst.Mem.DirtyPages(); d != touched-1 {
			t.Fatalf("dirty pages = %d, want the %d the budget covered", d, touched-1)
		}
		if got := tn.MemoryInUse(); got != 0 {
			t.Fatalf("ledger = %d after the trap", got)
		}
	})
}
