package wazi

import (
	"strings"
	"testing"

	"gowali/internal/wasm"
	"gowali/internal/zephyr"
)

type zapp struct {
	*wasm.Builder
	sys map[string]uint32
}

func newZApp(syscalls ...string) *zapp {
	b := &zapp{Builder: wasm.NewBuilder("zapp"), sys: map[string]uint32{}}
	for _, s := range syscalls {
		b.sys[s] = ImportSyscall(b.Builder, s)
	}
	b.Memory(2, 8, false)
	return b
}

func (b *zapp) call(f *wasm.FuncBuilder, name string, args ...int64) {
	idx := b.sys[name]
	var nargs int
	for _, d := range zephyr.SyscallTable() {
		if d.Name == name {
			nargs = d.NArgs
		}
	}
	for _, a := range args {
		f.I64Const(a)
	}
	for i := len(args); i < nargs; i++ {
		f.I64Const(0)
	}
	f.Call(idx)
}

func runZ(t *testing.T, b *zapp) (*WAZI, *Process) {
	t.Helper()
	m, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	w := New()
	p, err := w.Spawn(m)
	if err != nil {
		t.Fatalf("spawn: %v", err)
	}
	if status, err := p.Run(); err != nil || status != 0 {
		t.Fatalf("run: status=%d err=%v", status, err)
	}
	return w, p
}

func TestConsoleHelloOnZephyr(t *testing.T) {
	b := newZApp("console_out")
	b.Data(256, []byte("hello zephyr\n"))
	f := b.NewFunc("_start", nil, nil)
	b.call(f, "console_out", 256, 13)
	f.Drop()
	f.Finish()
	w, _ := runZ(t, b)
	if got := string(w.Z.ConsoleOutput()); got != "hello zephyr\n" {
		t.Fatalf("console = %q", got)
	}
}

func TestZephyrFS(t *testing.T) {
	b := newZApp("fs_open", "fs_write", "fs_seek", "fs_read", "fs_close")
	b.Data(256, []byte("boot.cfg\x00"))
	b.Data(300, []byte("cfgdata!"))
	f := b.NewFunc("_start", nil, nil)
	fd := f.Local(wasm.I64)
	b.call(f, "fs_open", 256, 9, 1)
	f.LocalSet(fd)
	f.LocalGet(fd).I64Const(300).I64Const(8).Call(b.sys["fs_write"]).Drop()
	f.LocalGet(fd).I64Const(0).I64Const(0).Call(b.sys["fs_seek"]).Drop()
	f.LocalGet(fd).I64Const(400).I64Const(8).Call(b.sys["fs_read"]).Drop()
	f.LocalGet(fd).Call(b.sys["fs_close"]).Drop()
	f.Finish()
	_, p := runZ(t, b)
	buf, _ := p.Inst.Mem.Bytes(400, 8)
	if string(buf) != "cfgdata!" {
		t.Fatalf("fs read back %q", buf)
	}
}

func TestZephyrSemaphoreAndThread(t *testing.T) {
	b := newZApp("k_sem_init", "k_sem_take", "k_sem_give", "k_thread_create")
	// Thread: table slot 1: fn(semID): store 7 at 512, give sem.
	tf := b.NewFunc("", []wasm.ValType{wasm.I32}, nil)
	tf.I32Const(512).I32Const(7).Store(wasm.OpI32Store, 0)
	tf.LocalGet(0).Op(wasm.OpI64ExtendI32U).Call(b.sys["k_sem_give"]).Drop()
	tIdx := tf.Finish()
	b.Table(4, 4)
	b.Elem(1, tIdx)

	f := b.NewFunc("_start", nil, nil)
	sem := f.Local(wasm.I64)
	b.call(f, "k_sem_init", 0, 0, 1)
	f.LocalSet(sem)
	// k_thread_create(fn=1, arg=semID, stack=2048)
	f.I64Const(1).LocalGet(sem).I64Const(2048).Call(b.sys["k_thread_create"]).Drop()
	// k_sem_take(sem, K_FOREVER=-1)
	f.LocalGet(sem).I64Const(-1).Call(b.sys["k_sem_take"]).Drop()
	f.Finish()

	w, p := runZ(t, b)
	v, _ := p.Inst.Mem.ReadU32(512)
	if v != 7 {
		t.Fatalf("thread store not visible: %d", v)
	}
	if w.Z.ThreadCount() != 1 {
		t.Fatalf("thread count %d", w.Z.ThreadCount())
	}
	if w.Z.SRAMUsed() < 2048 {
		t.Fatalf("SRAM accounting missing stack: %d", w.Z.SRAMUsed())
	}
}

func TestZephyrMsgq(t *testing.T) {
	b := newZApp("k_msgq_init", "k_msgq_put", "k_msgq_get", "k_msgq_num_used_get")
	b.Data(256, []byte("MSG!"))
	f := b.NewFunc("_start", nil, []wasm.ValType{wasm.I64})
	q := f.Local(wasm.I64)
	b.call(f, "k_msgq_init", 4, 8)
	f.LocalSet(q)
	f.LocalGet(q).I64Const(256).I64Const(-1).Call(b.sys["k_msgq_put"]).Drop()
	f.LocalGet(q).Call(b.sys["k_msgq_num_used_get"]) // leave used count
	f.LocalGet(q).I64Const(300).I64Const(-1).Call(b.sys["k_msgq_get"]).Drop()
	f.Finish()
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	w := New()
	p, err := w.Spawn(m)
	if err != nil {
		t.Fatal(err)
	}
	fidx, _ := m.ExportedFunc("_start")
	res, err := p.Exec.Invoke(fidx)
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != 1 {
		t.Fatalf("queue used = %d, want 1", res[0])
	}
	buf, _ := p.Inst.Mem.Bytes(300, 4)
	if string(buf) != "MSG!" {
		t.Fatalf("msg = %q", buf)
	}
}

func TestZephyrUptimeMonotonic(t *testing.T) {
	b := newZApp("k_uptime_get", "k_sleep")
	f := b.NewFunc("_start", nil, []wasm.ValType{wasm.I64})
	t0 := f.Local(wasm.I64)
	b.call(f, "k_uptime_get")
	f.LocalSet(t0)
	b.call(f, "k_sleep", 2)
	f.Drop()
	b.call(f, "k_uptime_get")
	f.LocalGet(t0).Op(wasm.OpI64Sub)
	f.Finish()
	m, _ := b.Build()
	w := New()
	p, _ := w.Spawn(m)
	fidx, _ := m.ExportedFunc("_start")
	res, err := p.Exec.Invoke(fidx)
	if err != nil {
		t.Fatal(err)
	}
	if int64(res[0]) < 1 {
		t.Fatalf("uptime delta = %d ms", int64(res[0]))
	}
}

func TestWAZIPassthroughRatio(t *testing.T) {
	r := PassthroughRatio()
	if r < 0.85 {
		t.Fatalf("auto-generated ratio %.2f below the paper's >85%% claim", r)
	}
}

func TestDomainSyscallsLinkAsENOSYS(t *testing.T) {
	b := wasm.NewBuilder("domain")
	gnss := b.ImportFunc(Namespace, "zsys_gnss_read", i64s(2), []wasm.ValType{wasm.I64})
	b.Memory(1, 1, false)
	f := b.NewFunc("_start", nil, []wasm.ValType{wasm.I64})
	f.I64Const(0).I64Const(0).Call(gnss)
	f.Finish()
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	w := New()
	p, err := w.Spawn(m)
	if err != nil {
		t.Fatalf("domain syscall failed to link: %v", err)
	}
	fidx, _ := m.ExportedFunc("_start")
	res, err := p.Exec.Invoke(fidx)
	if err != nil {
		t.Fatal(err)
	}
	if int64(res[0]) != zephyr.RetENOSYS {
		t.Fatalf("gnss_read = %d, want ENOSYS", int64(res[0]))
	}
	if len(zephyr.DomainSpecificSyscalls()) < 400 {
		t.Errorf("domain syscall inventory too small: %d (Zephyr has ~520 total)",
			len(zephyr.DomainSpecificSyscalls()))
	}
}

func TestSRAMBudgetEnforced(t *testing.T) {
	z := zephyr.New()
	// msgq allocations charge SRAM; exceed the 384 KiB board budget.
	mem := nilMem{}
	ok := 0
	for i := 0; i < 200; i++ {
		if ret := callByName(z, "k_msgq_init", mem, zephyr.Args{1024, 4}); ret > 0 {
			ok++
		} else if ret == zephyr.RetENOMEM {
			break
		}
	}
	if ok == 0 || ok >= 200 {
		t.Fatalf("SRAM budget not enforced: %d allocations", ok)
	}
}

type nilMem struct{}

func (nilMem) Bytes(addr, size uint32) ([]byte, bool) { return make([]byte, size), true }

func callByName(z *zephyr.Kernel, name string, mem zephyr.Mem, args zephyr.Args) int64 {
	for _, d := range zephyr.SyscallTable() {
		if d.Name == name {
			return d.Fn(z, mem, args)
		}
	}
	return zephyr.RetENOSYS
}

func TestSyscallTableNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range zephyr.SyscallTable() {
		if seen[d.Name] {
			t.Errorf("duplicate syscall %s", d.Name)
		}
		seen[d.Name] = true
		if d.NArgs < 0 || d.NArgs > 6 {
			t.Errorf("%s: bad arity %d", d.Name, d.NArgs)
		}
	}
	if strings.TrimSpace(zephyr.New().String()) == "" {
		t.Error("board description empty")
	}
}
