package wasi

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"gowali/internal/core"
	"gowali/internal/interp"
	"gowali/internal/wasm"
)

// The libuvwasi-analogue conformance suite (artifact E2): 22 tests, each
// exercising the WASI surface through a real Wasm module whose imports
// resolve to the WASI-over-WALI layer. The trampoline module exports one
// forwarding wrapper per WASI import, so the suite drives the exact
// module-boundary path an application would.

type harness struct {
	t *testing.T
	w *core.WALI
	p *core.Process
}

// wasiSig lists the preview1 signatures the trampoline forwards.
var wasiSig = map[string][2][]wasm.ValType{
	"args_sizes_get":        {{wasm.I32, wasm.I32}, {wasm.I32}},
	"args_get":              {{wasm.I32, wasm.I32}, {wasm.I32}},
	"environ_sizes_get":     {{wasm.I32, wasm.I32}, {wasm.I32}},
	"environ_get":           {{wasm.I32, wasm.I32}, {wasm.I32}},
	"clock_res_get":         {{wasm.I32, wasm.I32}, {wasm.I32}},
	"clock_time_get":        {{wasm.I32, wasm.I64, wasm.I32}, {wasm.I32}},
	"fd_close":              {{wasm.I32}, {wasm.I32}},
	"fd_fdstat_get":         {{wasm.I32, wasm.I32}, {wasm.I32}},
	"fd_fdstat_set_flags":   {{wasm.I32, wasm.I32}, {wasm.I32}},
	"fd_filestat_get":       {{wasm.I32, wasm.I32}, {wasm.I32}},
	"fd_filestat_set_size":  {{wasm.I32, wasm.I64}, {wasm.I32}},
	"fd_read":               {{wasm.I32, wasm.I32, wasm.I32, wasm.I32}, {wasm.I32}},
	"fd_pread":              {{wasm.I32, wasm.I32, wasm.I32, wasm.I64, wasm.I32}, {wasm.I32}},
	"fd_write":              {{wasm.I32, wasm.I32, wasm.I32, wasm.I32}, {wasm.I32}},
	"fd_pwrite":             {{wasm.I32, wasm.I32, wasm.I32, wasm.I64, wasm.I32}, {wasm.I32}},
	"fd_seek":               {{wasm.I32, wasm.I64, wasm.I32, wasm.I32}, {wasm.I32}},
	"fd_tell":               {{wasm.I32, wasm.I32}, {wasm.I32}},
	"fd_sync":               {{wasm.I32}, {wasm.I32}},
	"fd_readdir":            {{wasm.I32, wasm.I32, wasm.I32, wasm.I64, wasm.I32}, {wasm.I32}},
	"fd_prestat_get":        {{wasm.I32, wasm.I32}, {wasm.I32}},
	"fd_prestat_dir_name":   {{wasm.I32, wasm.I32, wasm.I32}, {wasm.I32}},
	"path_open":             {{wasm.I32, wasm.I32, wasm.I32, wasm.I32, wasm.I32, wasm.I64, wasm.I64, wasm.I32, wasm.I32}, {wasm.I32}},
	"path_create_directory": {{wasm.I32, wasm.I32, wasm.I32}, {wasm.I32}},
	"path_remove_directory": {{wasm.I32, wasm.I32, wasm.I32}, {wasm.I32}},
	"path_unlink_file":      {{wasm.I32, wasm.I32, wasm.I32}, {wasm.I32}},
	"path_filestat_get":     {{wasm.I32, wasm.I32, wasm.I32, wasm.I32, wasm.I32}, {wasm.I32}},
	"path_readlink":         {{wasm.I32, wasm.I32, wasm.I32, wasm.I32, wasm.I32, wasm.I32}, {wasm.I32}},
	"path_rename":           {{wasm.I32, wasm.I32, wasm.I32, wasm.I32, wasm.I32, wasm.I32}, {wasm.I32}},
	"path_symlink":          {{wasm.I32, wasm.I32, wasm.I32, wasm.I32, wasm.I32}, {wasm.I32}},
	"poll_oneoff":           {{wasm.I32, wasm.I32, wasm.I32, wasm.I32}, {wasm.I32}},
	"proc_exit":             {{wasm.I32}, nil},
	"random_get":            {{wasm.I32, wasm.I32}, {wasm.I32}},
	"sched_yield":           {nil, {wasm.I32}},
}

// trampolineModule builds a module importing every WASI function and
// exporting a forwarding wrapper "w_<name>" for each.
func trampolineModule() *wasm.Module {
	b := wasm.NewBuilder("wasi-trampoline")
	type imp struct {
		name string
		idx  uint32
	}
	var imps []imp
	// Deterministic order.
	var names []string
	for n := range wasiSig {
		names = append(names, n)
	}
	// sort
	for i := range names {
		for j := i + 1; j < len(names); j++ {
			if names[j] < names[i] {
				names[i], names[j] = names[j], names[i]
			}
		}
	}
	for _, n := range names {
		sig := wasiSig[n]
		imps = append(imps, imp{n, b.ImportFunc(Namespace, n, sig[0], sig[1])})
	}
	b.Memory(8, 64, false)
	for _, im := range imps {
		sig := wasiSig[im.name]
		f := b.NewFunc("w_"+im.name, sig[0], sig[1])
		for i := range sig[0] {
			f.LocalGet(uint32(i))
		}
		f.Call(im.idx)
		f.Finish()
	}
	// A _start so the module is a well-formed WALI/WASI app.
	b.NewFunc(core.StartExport, nil, nil).Finish()
	return b.Module()
}

func newHarness(t *testing.T, argv, env []string) *harness {
	t.Helper()
	m, err := wasm.NewBuilder("x"), error(nil)
	_ = m
	mod := trampolineModule()
	if err := wasm.Validate(mod); err != nil {
		t.Fatalf("trampoline invalid: %v", err)
	}
	w := core.New()
	Attach(w)
	p, err := w.SpawnModule(mod, "wasiapp", argv, env)
	if err != nil {
		t.Fatalf("spawn: %v", err)
	}
	return &harness{t: t, w: w, p: p}
}

// call invokes w_<name>, returning the WASI errno.
func (h *harness) call(name string, args ...uint64) Errno {
	h.t.Helper()
	fidx, ok := h.p.Module.ExportedFunc("w_" + name)
	if !ok {
		h.t.Fatalf("no wrapper for %s", name)
	}
	res, err := h.p.Exec.Invoke(fidx, args...)
	if err != nil {
		h.t.Fatalf("call %s: %v", name, err)
	}
	if len(res) == 0 {
		return 0
	}
	return Errno(uint32(res[0]))
}

// expect asserts a successful call.
func (h *harness) expect(name string, args ...uint64) {
	h.t.Helper()
	if e := h.call(name, args...); e != ErrnoSuccess {
		h.t.Fatalf("%s: errno %d", name, e)
	}
}

func (h *harness) mem() *interp.Memory { return h.p.Inst.Mem }

func (h *harness) byteAt(addr uint32) byte {
	var b [1]byte
	if !h.mem().ReadBytes(addr, b[:]) {
		h.t.Fatalf("byteAt(%d) OOB", addr)
	}
	return b[0]
}

func (h *harness) putString(addr uint32, s string) {
	b, ok := h.mem().Bytes(addr, uint32(len(s)))
	if !ok {
		h.t.Fatalf("putString OOB")
	}
	copy(b, s)
}

func (h *harness) putIovec(addr, base, n uint32) {
	h.mem().WriteU32(addr, base)
	h.mem().WriteU32(addr+4, n)
}

func (h *harness) u32(addr uint32) uint32 {
	v, _ := h.mem().ReadU32(addr)
	return v
}

func (h *harness) u64(addr uint32) uint64 {
	v, _ := h.mem().ReadU64(addr)
	return v
}

// openFile opens path (relative to preopen fd 3) with the given oflags and
// rights, returning the new fd.
func (h *harness) openFile(path string, oflags uint32, rights uint64) uint32 {
	h.t.Helper()
	h.putString(60000, path)
	h.expect("path_open", 3, 1, 60000, uint64(len(path)), uint64(oflags), rights, rights, 0, 61000)
	return h.u32(61000)
}

// The 22 tests, mirroring libuvwasi's ctest areas.

func TestLibuvwasiSuite(t *testing.T) {
	t.Run("01_args", func(t *testing.T) {
		h := newHarness(t, []string{"prog", "a1", "a22"}, nil)
		h.expect("args_sizes_get", 100, 104)
		if h.u32(100) != 3 {
			t.Fatalf("argc = %d", h.u32(100))
		}
		if h.u32(104) != uint32(len("prog")+len("a1")+len("a22")+3) {
			t.Fatalf("buf size = %d", h.u32(104))
		}
		h.expect("args_get", 200, 300)
		p1 := h.u32(204)
		b, _ := h.mem().Bytes(p1, 3)
		if string(b[:2]) != "a1" || b[2] != 0 {
			t.Fatalf("argv[1] = %q", b)
		}
	})

	t.Run("02_environ", func(t *testing.T) {
		h := newHarness(t, nil, []string{"PATH=/bin", "HOME=/root"})
		h.expect("environ_sizes_get", 100, 104)
		if h.u32(100) != 2 {
			t.Fatalf("envc = %d", h.u32(100))
		}
		h.expect("environ_get", 200, 300)
		b, _ := h.mem().Bytes(h.u32(200), 10)
		if !bytes.HasPrefix(b, []byte("PATH=/bin\x00")) {
			t.Fatalf("env[0] = %q", b)
		}
	})

	t.Run("03_clock", func(t *testing.T) {
		h := newHarness(t, nil, nil)
		h.expect("clock_time_get", ClockMonotonic, 1, 100)
		t1 := h.u64(100)
		h.expect("clock_time_get", ClockMonotonic, 1, 100)
		t2 := h.u64(100)
		if t2 < t1 {
			t.Fatal("monotonic clock went backwards")
		}
		h.expect("clock_res_get", ClockRealtime, 108)
		if h.u64(108) == 0 {
			t.Fatal("zero clock resolution")
		}
	})

	t.Run("04_fd_write_stdout", func(t *testing.T) {
		h := newHarness(t, nil, nil)
		h.putString(1000, "wasi says hi\n")
		h.putIovec(500, 1000, 13)
		h.expect("fd_write", 1, 500, 1, 508)
		if h.u32(508) != 13 {
			t.Fatalf("nwritten = %d", h.u32(508))
		}
		if got := string(h.w.Console().Output()); got != "wasi says hi\n" {
			t.Fatalf("console = %q", got)
		}
	})

	t.Run("05_fd_read_stdin", func(t *testing.T) {
		h := newHarness(t, nil, nil)
		h.w.Kernel.Console.FeedInput([]byte("typed input"))
		h.putIovec(500, 1000, 32)
		h.expect("fd_read", 0, 500, 1, 508)
		n := h.u32(508)
		b, _ := h.mem().Bytes(1000, n)
		if string(b) != "typed input" {
			t.Fatalf("stdin = %q", b)
		}
	})

	t.Run("06_path_open_create_write", func(t *testing.T) {
		h := newHarness(t, nil, nil)
		fd := h.openFile("tmp/created.txt", OflagCreat, RightFdRead|RightFdWrite)
		h.putString(1000, "data")
		h.putIovec(500, 1000, 4)
		h.expect("fd_write", uint64(fd), 500, 1, 508)
		h.expect("fd_close", uint64(fd))
		// Reopen and read back.
		fd2 := h.openFile("tmp/created.txt", 0, RightFdRead)
		h.putIovec(500, 2000, 16)
		h.expect("fd_read", uint64(fd2), 500, 1, 508)
		b, _ := h.mem().Bytes(2000, 4)
		if string(b) != "data" {
			t.Fatalf("read back %q", b)
		}
	})

	t.Run("07_fd_seek_tell", func(t *testing.T) {
		h := newHarness(t, nil, nil)
		fd := h.openFile("tmp/seek.txt", OflagCreat, RightFdRead|RightFdWrite)
		h.putString(1000, "0123456789")
		h.putIovec(500, 1000, 10)
		h.expect("fd_write", uint64(fd), 500, 1, 508)
		h.expect("fd_seek", uint64(fd), 4, 0 /*SET*/, 516)
		if h.u64(516) != 4 {
			t.Fatalf("seek = %d", h.u64(516))
		}
		h.expect("fd_tell", uint64(fd), 516)
		if h.u64(516) != 4 {
			t.Fatalf("tell = %d", h.u64(516))
		}
	})

	t.Run("08_fd_pread_pwrite", func(t *testing.T) {
		h := newHarness(t, nil, nil)
		fd := h.openFile("tmp/p.txt", OflagCreat, RightFdRead|RightFdWrite)
		h.putString(1000, "AAAAAAAA")
		h.putIovec(500, 1000, 8)
		h.expect("fd_write", uint64(fd), 500, 1, 508)
		h.putString(1100, "BB")
		h.putIovec(520, 1100, 2)
		h.expect("fd_pwrite", uint64(fd), 520, 1, 2, 508)
		h.putIovec(540, 1200, 8)
		h.expect("fd_pread", uint64(fd), 540, 1, 0, 508)
		b, _ := h.mem().Bytes(1200, 8)
		if string(b) != "AABBAAAA" {
			t.Fatalf("pread = %q", b)
		}
	})

	t.Run("09_fd_filestat", func(t *testing.T) {
		h := newHarness(t, nil, nil)
		fd := h.openFile("tmp/fs.txt", OflagCreat, RightFdRead|RightFdWrite)
		h.putString(1000, "xyz")
		h.putIovec(500, 1000, 3)
		h.expect("fd_write", uint64(fd), 500, 1, 508)
		h.expect("fd_filestat_get", uint64(fd), 2000)
		if ft := h.byteAt(2016); ft != FiletypeRegularFile {
			t.Fatalf("filetype = %d", ft)
		}
		if sz := h.u64(2032); sz != 3 {
			t.Fatalf("size = %d", sz)
		}
	})

	t.Run("10_fd_filestat_set_size", func(t *testing.T) {
		h := newHarness(t, nil, nil)
		fd := h.openFile("tmp/tr.txt", OflagCreat, RightFdRead|RightFdWrite)
		h.expect("fd_filestat_set_size", uint64(fd), 4096)
		h.expect("fd_filestat_get", uint64(fd), 2000)
		if sz := h.u64(2032); sz != 4096 {
			t.Fatalf("size after set = %d", sz)
		}
	})

	t.Run("11_path_directories", func(t *testing.T) {
		h := newHarness(t, nil, nil)
		h.putString(60000, "tmp/newdir")
		h.expect("path_create_directory", 3, 60000, 10)
		h.expect("path_filestat_get", 3, 1, 60000, 10, 2000)
		if ft := h.byteAt(2016); ft != FiletypeDirectory {
			t.Fatalf("filetype = %d", ft)
		}
		h.expect("path_remove_directory", 3, 60000, 10)
		if e := h.call("path_filestat_get", 3, 1, 60000, 10, 2000); e != ErrnoNoent {
			t.Fatalf("after rmdir: errno %d", e)
		}
	})

	t.Run("12_path_unlink", func(t *testing.T) {
		h := newHarness(t, nil, nil)
		fd := h.openFile("tmp/die.txt", OflagCreat, RightFdWrite)
		h.expect("fd_close", uint64(fd))
		h.putString(60000, "tmp/die.txt")
		h.expect("path_unlink_file", 3, 60000, 11)
		if e := h.call("path_filestat_get", 3, 1, 60000, 11, 2000); e != ErrnoNoent {
			t.Fatalf("after unlink: errno %d", e)
		}
	})

	t.Run("13_path_rename", func(t *testing.T) {
		h := newHarness(t, nil, nil)
		fd := h.openFile("tmp/old.txt", OflagCreat, RightFdWrite)
		h.expect("fd_close", uint64(fd))
		h.putString(50000, "tmp/old.txt")
		h.putString(50100, "tmp/new.txt")
		h.expect("path_rename", 3, 50000, 11, 3, 50100, 11)
		if e := h.call("path_filestat_get", 3, 1, 50000, 11, 2000); e != ErrnoNoent {
			t.Fatalf("old remains: %d", e)
		}
		h.expect("path_filestat_get", 3, 1, 50100, 11, 2000)
	})

	t.Run("14_path_symlink_readlink", func(t *testing.T) {
		h := newHarness(t, nil, nil)
		fd := h.openFile("tmp/tgt.txt", OflagCreat, RightFdWrite)
		h.expect("fd_close", uint64(fd))
		h.putString(50000, "/tmp/tgt.txt") // target content
		h.putString(50100, "tmp/lnk")      // link path
		h.expect("path_symlink", 50000, 12, 3, 50100, 7)
		h.expect("path_readlink", 3, 50100, 7, 52000, 64, 53000)
		n := h.u32(53000)
		b, _ := h.mem().Bytes(52000, n)
		if string(b) != "/tmp/tgt.txt" {
			t.Fatalf("readlink = %q", b)
		}
	})

	t.Run("15_path_filestat_nofollow", func(t *testing.T) {
		h := newHarness(t, nil, nil)
		h.putString(50000, "/tmp/t2")
		h.putString(50100, "tmp/l2")
		h.expect("path_symlink", 50000, 7, 3, 50100, 6)
		// lookupflags=0: no follow → filetype symlink.
		h.expect("path_filestat_get", 3, 0, 50100, 6, 2000)
		if ft := h.byteAt(2016); ft != FiletypeSymlink {
			t.Fatalf("filetype = %d, want symlink", ft)
		}
	})

	t.Run("16_fd_readdir", func(t *testing.T) {
		h := newHarness(t, nil, nil)
		for _, name := range []string{"tmp/d1.txt", "tmp/d2.txt"} {
			fd := h.openFile(name, OflagCreat, RightFdWrite)
			h.expect("fd_close", uint64(fd))
		}
		dirFd := h.openFile("tmp", OflagDirectory, RightFdRead)
		h.expect("fd_readdir", uint64(dirFd), 30000, 4096, 0, 31000)
		used := h.u32(31000)
		if used == 0 {
			t.Fatal("empty readdir")
		}
		raw, _ := h.mem().Bytes(30000, used)
		if !bytes.Contains(raw, []byte("d1.txt")) || !bytes.Contains(raw, []byte("d2.txt")) {
			t.Fatalf("readdir missing entries: %q", raw)
		}
	})

	t.Run("17_prestat", func(t *testing.T) {
		h := newHarness(t, nil, nil)
		h.expect("fd_prestat_get", 3, 100)
		if h.byteAt(100) != 0 {
			t.Fatal("preopen tag not dir")
		}
		nameLen := h.u32(104)
		if nameLen != 1 {
			t.Fatalf("preopen name len = %d", nameLen)
		}
		h.expect("fd_prestat_dir_name", 3, 200, uint64(nameLen))
		if h.byteAt(200) != '/' {
			t.Fatalf("preopen name = %q", []byte{h.byteAt(200)})
		}
		if e := h.call("fd_prestat_get", 9, 100); e != ErrnoBadf {
			t.Fatalf("non-preopen prestat: %d", e)
		}
	})

	t.Run("18_fdstat", func(t *testing.T) {
		h := newHarness(t, nil, nil)
		fd := h.openFile("tmp/st.txt", OflagCreat, RightFdRead|RightFdWrite)
		h.expect("fd_fdstat_get", uint64(fd), 2000)
		if ft := h.byteAt(2000); ft != FiletypeRegularFile {
			t.Fatalf("fdstat filetype = %d", ft)
		}
	})

	t.Run("19_fdstat_set_flags_append", func(t *testing.T) {
		h := newHarness(t, nil, nil)
		fd := h.openFile("tmp/app.txt", OflagCreat, RightFdRead|RightFdWrite)
		h.putString(1000, "1234")
		h.putIovec(500, 1000, 4)
		h.expect("fd_write", uint64(fd), 500, 1, 508)
		h.expect("fd_seek", uint64(fd), 0, 0, 516)
		h.expect("fd_fdstat_set_flags", uint64(fd), FdflagAppend)
		h.expect("fd_write", uint64(fd), 500, 1, 508) // appends despite seek
		h.expect("fd_filestat_get", uint64(fd), 2000)
		if sz := h.u64(2032); sz != 8 {
			t.Fatalf("append size = %d", sz)
		}
	})

	t.Run("20_poll_oneoff_clock", func(t *testing.T) {
		h := newHarness(t, nil, nil)
		// One clock subscription: userdata 77, 1ms relative timeout.
		sub, _ := h.mem().Bytes(40000, 48)
		for i := range sub {
			sub[i] = 0
		}
		le.PutUint64(sub[0:], 77)
		sub[8] = 0 // clock
		le.PutUint64(sub[24:], 1e6)
		h.expect("poll_oneoff", 40000, 41000, 1, 42000)
		if h.u32(42000) != 1 {
			t.Fatalf("nevents = %d", h.u32(42000))
		}
		if h.u64(41000) != 77 {
			t.Fatalf("userdata = %d", h.u64(41000))
		}
	})

	t.Run("21_random_get", func(t *testing.T) {
		h := newHarness(t, nil, nil)
		h.expect("random_get", 1000, 64)
		b, _ := h.mem().Bytes(1000, 64)
		allZero := true
		for _, c := range b {
			if c != 0 {
				allZero = false
			}
		}
		if allZero {
			t.Fatal("random_get produced zeros")
		}
		h.expect("sched_yield")
	})

	t.Run("22_sandbox_and_exit", func(t *testing.T) {
		h := newHarness(t, nil, nil)
		// Capability check: escaping the preopen is ENOTCAPABLE.
		esc := "../../etc/passwd"
		h.putString(60000, esc)
		if e := h.call("path_open", 3, 1, 60000, uint64(len(esc)), 0, uint64(RightFdRead), 0, 0, 61000); e != ErrnoNotcapable {
			t.Fatalf("escape allowed: errno %d", e)
		}
		// proc_exit surfaces as an Exit with the right code.
		fidx, _ := h.p.Module.ExportedFunc("w_proc_exit")
		_, err := h.p.Exec.Invoke(fidx, 17)
		var exit *interp.Exit
		if !errors.As(err, &exit) || exit.Status != 17 {
			t.Fatalf("proc_exit: %v", err)
		}
	})
}

func TestLayerUsesOnlyWALISurface(t *testing.T) {
	// Structural check on the layering claim: a syscall hook must observe
	// WALI syscalls for every WASI file operation.
	h := newHarness(t, nil, nil)
	var names []string
	h.w.Hook = func(ev core.SyscallEvent) { names = append(names, ev.Name) }
	fd := h.openFile("tmp/layered.txt", OflagCreat, RightFdRead|RightFdWrite)
	h.putString(1000, "abc")
	h.putIovec(500, 1000, 3)
	h.expect("fd_write", uint64(fd), 500, 1, 508)
	h.expect("fd_close", uint64(fd))
	joined := strings.Join(names, ",")
	for _, want := range []string{"openat", "writev", "close"} {
		if !strings.Contains(joined, want) {
			t.Errorf("WASI op did not pass through WALI %s (saw %s)", want, joined)
		}
	}
}
