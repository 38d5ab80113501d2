package gowali

// Repo-root benchmarks: one testing.B entry per table and figure of the
// paper's evaluation, all driving internal/bench. Run with
//
//	go test -bench=. -benchmem
//
// cmd/benchvirt prints the same data as formatted tables.

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"gowali/internal/apps"
	"gowali/internal/bench"
	"gowali/internal/core"
	"gowali/internal/emu"
	"gowali/internal/interp"
	"gowali/internal/kernel/snap"
	"gowali/internal/linux"
)

// BenchmarkTable2Syscalls measures the per-syscall WALI overhead for the
// paper's 30 representative syscalls (Table 2).
func BenchmarkTable2Syscalls(b *testing.B) {
	rows := bench.Table2(2000)
	for _, r := range rows {
		b.ReportMetric(float64(r.Overhead.Nanoseconds()), r.Name+"_ns")
	}
	// Also expose the calibration number Fig. 7 uses.
	b.ReportMetric(float64(bench.CalibrateDispatch(20000).Nanoseconds()), "dispatch_ns")
	_ = rows
}

// BenchmarkTable3Sigpoll measures safepoint polling cost per scheme
// (Table 3) on the compute-bound lua app.
func BenchmarkTable3Sigpoll(b *testing.B) {
	for _, scheme := range []interp.SafepointScheme{
		interp.SafepointNone, interp.SafepointLoop, interp.SafepointFunc, interp.SafepointEveryInst,
	} {
		scheme := scheme
		b.Run(scheme.String(), func(b *testing.B) {
			app, _ := apps.ByName("lua")
			for i := 0; i < b.N; i++ {
				w := core.New()
				w.Scheme = scheme
				_, status, err := apps.RunOn(w, app, 30000)
				if err != nil || status != 0 {
					b.Fatalf("status=%d err=%v", status, err)
				}
			}
		})
	}
}

// BenchmarkFig2SyscallProfile times a full profiling sweep of the app
// suite (Fig. 2's data collection).
func BenchmarkFig2SyscallProfile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		profiles := bench.Fig2Profiles()
		if len(profiles) != 5 {
			b.Fatalf("%d profiles", len(profiles))
		}
	}
}

// BenchmarkFig7Breakdown times the runtime-attribution sweep (Fig. 7).
func BenchmarkFig7Breakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.Fig7()
		for _, r := range rows {
			if r.WaliPct > 25 {
				b.Fatalf("%s: wali share %.1f%% implausible", r.App, r.WaliPct)
			}
		}
	}
}

// BenchmarkFig9Scaleout times the multi-guest syscall-throughput sweep
// at a small fixed scale (1 and 2×NumCPU guests): a regression here
// means concurrent guests started serializing on kernel locks again.
func BenchmarkFig9Scaleout(b *testing.B) {
	guests := []int{1, 2 * runtime.NumCPU()}
	for i := 0; i < b.N; i++ {
		pts := bench.Fig9Scaleout(50, guests)
		for _, p := range pts {
			if p.PerSec <= 0 {
				b.Fatalf("N=%d degenerate throughput", p.Guests)
			}
		}
	}
}

// BenchmarkNetEcho measures socket echo RTT through the netstack
// backends: every read on both sides blocks in poll(2) first, so the
// reported rtt_ns is two event-driven poll wakeups plus the copies —
// the paper-floor comparison for the wait-queue readiness path (the
// old sampled path could not go below ~50µs/RTT).
func BenchmarkNetEcho(b *testing.B) {
	for _, backend := range []string{"loopback", "switch", "host"} {
		backend := backend
		b.Run(backend, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows := bench.NetEcho(500, 64, []string{backend})
				b.ReportMetric(float64(rows[0].RTT.Nanoseconds()), "rtt_ns")
				b.ReportMetric(float64(rows[0].Wakeup.Nanoseconds()), "wakeup_ns")
			}
		})
	}
}

// BenchmarkFSMicroBackends prices the mount-table backends on the
// hottest file path — a guest open/pread64/close loop — against memfs,
// hostfs and overlayfs (ns/syscall reported per backend).
func BenchmarkFSMicroBackends(b *testing.B) {
	dir := b.TempDir()
	for i := 0; i < b.N; i++ {
		rows := bench.FSMicro(500, dir)
		for _, r := range rows {
			b.ReportMetric(float64(r.PerOp.Nanoseconds()), r.Backend+"_ns/syscall")
		}
	}
}

// BenchmarkFig9ScaleoutHostFS is the hostfs-backed scale-out variant:
// guest working files on a read-write hostfs mount plus one shared
// read-only hostfs image every guest re-reads each iteration.
func BenchmarkFig9ScaleoutHostFS(b *testing.B) {
	work, shared := b.TempDir(), b.TempDir()
	guests := []int{1, 2 * runtime.NumCPU()}
	for i := 0; i < b.N; i++ {
		pts := bench.Fig9ScaleoutCfg(bench.ScaleoutConfig{
			Iters: 50, Guests: guests, WorkDir: work, SharedDir: shared,
		})
		for _, p := range pts {
			if p.PerSec <= 0 {
				b.Fatalf("N=%d degenerate throughput", p.Guests)
			}
		}
	}
}

// BenchmarkFig8 runs the three-way virtualization comparison per app and
// backend (Fig. 8b-d). The per-backend sub-benchmarks expose slope
// comparisons directly in ns/op.
func BenchmarkFig8(b *testing.B) {
	scales := map[string]int{"lua": 200000, "bash": 8, "sqlite": 128}
	for _, name := range bench.Fig8Apps {
		app, err := apps.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		scale := scales[name]
		b.Run(name+"/native", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				app.Native(scale)
			}
		})
		b.Run(name+"/wali", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w := core.New()
				if app.Setup != nil {
					app.Setup(w)
				}
				m := app.Build(scale)
				p, err := w.SpawnModule(m, name, nil, nil)
				if err != nil {
					b.Fatal(err)
				}
				status, runErr := p.Run()
				w.WaitAll()
				if runErr != nil || status != 0 {
					b.Fatalf("status=%d err=%v", status, runErr)
				}
			}
		})
		b.Run(name+"/qemu", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				prog, err := apps.RISCFor(name, scale)
				if err != nil {
					b.Fatal(err)
				}
				m := emu.New(prog, 1<<20, nil)
				if err := m.Run(1 << 62); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig8Startup isolates the startup intercepts (Fig. 8's
// crossover argument): WALI instantiation vs container creation.
func BenchmarkFig8Startup(b *testing.B) {
	b.Run("wali_instantiate", func(b *testing.B) {
		app, _ := apps.ByName("lua")
		m := app.Build(1000)
		for i := 0; i < b.N; i++ {
			w := core.New()
			apps.SetupLua(w.Kernel)
			if _, err := w.SpawnModule(m, "lua", nil, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("docker_create", func(b *testing.B) {
		pts := bench.Fig8Time("lua", []int{50000})
		var docker, wali time.Duration
		for _, p := range pts {
			switch p.App {
			case bench.BackendDocker:
				docker = p.Startup
			case bench.BackendWALI:
				wali = p.Startup
			}
		}
		b.ReportMetric(float64(docker.Nanoseconds()), "docker_startup_ns")
		b.ReportMetric(float64(wali.Nanoseconds()), "wali_startup_ns")
		if docker < wali {
			b.Fatalf("container startup (%v) should exceed WALI startup (%v)", docker, wali)
		}
	})
}

// BenchmarkAblationMmapAllocator compares the paper's single-bump mmap
// bookkeeping against the free-list allocator (the DESIGN.md ablation).
func BenchmarkAblationMmapAllocator(b *testing.B) {
	run := func(b *testing.B, bump bool) {
		app, _ := apps.ByName("lua") // mmap/munmap every 4096 iterations
		for i := 0; i < b.N; i++ {
			w := core.New()
			apps.SetupLua(w.Kernel)
			m := app.Build(100000)
			p, err := w.SpawnModule(m, "lua", nil, nil)
			if err != nil {
				b.Fatal(err)
			}
			p.Pool.Bump = bump
			status, runErr := p.Run()
			w.WaitAll()
			if runErr != nil || status != 0 {
				b.Fatalf("status=%d err=%v", status, runErr)
			}
			if bump {
				b.ReportMetric(float64(p.Inst.Mem.Len()), "mem_bytes")
			}
		}
	}
	b.Run("bump", func(b *testing.B) { run(b, true) })
	b.Run("freelist", func(b *testing.B) { run(b, false) })
}

// snapRestoreSetup spawns and warms the snapshot guest, checkpoints it,
// and returns engine, live guest and image for the restore benchmarks.
func snapRestoreSetup(b *testing.B) (*core.WALI, *core.Process, *snap.Image) {
	b.Helper()
	w := core.New()
	c, err := interp.Compile(bench.BuildSnapGuest())
	if err != nil {
		b.Fatal(err)
	}
	p, err := w.SpawnCompiled(c, "snapguest", []string{"snapguest"}, nil)
	if err != nil {
		b.Fatal(err)
	}
	p.RunAsync()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, n := w.SyscallStats(p.KP.PID); n >= 1 {
			break
		}
		if time.Now().After(deadline) {
			b.Fatal("snapshot guest did not warm up")
		}
		time.Sleep(100 * time.Microsecond)
	}
	img, err := w.Snapshot(p)
	if err != nil {
		b.Fatal(err)
	}
	return w, p, img
}

func snapRestoreTeardown(b *testing.B, w *core.WALI, p *core.Process) {
	b.Helper()
	p.KP.PostSignal(linux.SIGKILL)
	<-p.Done()
	w.WaitAll()
}

// BenchmarkRestore measures the snapshot cold start: building a fully
// runnable process from a warmed image (hash-cache module, CoW memory,
// re-opened fd table). The spawn-path baseline is
// BenchmarkSpawnCachedModule — the whole point of the image is beating
// it by well over 5×, since restore skips instantiation, zero-fill and
// the guest's own warm-up entirely.
func BenchmarkRestore(b *testing.B) {
	w, p, img := snapRestoreSetup(b)
	defer snapRestoreTeardown(b, w, p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch, err := w.Restore(img, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		ch.Inst.Mem.WriteU64(bench.SnapReqAddr, 1)
		if status, runErr := ch.Resume(); runErr != nil || status != 0 {
			b.Fatalf("status=%d err=%v", status, runErr)
		}
		b.StartTimer()
	}
}

// BenchmarkRestoreServe is the end-to-end invocation: restore, inject a
// request into the still-parked child, resume, and wait for its answer
// and exit — the serverless cold-start-to-response number.
func BenchmarkRestoreServe(b *testing.B) {
	w, p, img := snapRestoreSetup(b)
	defer snapRestoreTeardown(b, w, p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch, err := w.Restore(img, nil)
		if err != nil {
			b.Fatal(err)
		}
		ch.Inst.Mem.WriteU64(bench.SnapReqAddr, uint64(i+1))
		if status, runErr := ch.Resume(); runErr != nil || status != 0 {
			b.Fatalf("status=%d err=%v", status, runErr)
		}
	}
}

// BenchmarkForkFanOut measures fleet fan-out: 100 copy-on-write
// children restored back-to-back from one image per iteration (the
// children run and exit untimed). heap_bytes/child comes from the
// measured fork-sharing test; here the metric is restores/sec.
func BenchmarkForkFanOut(b *testing.B) {
	const fanOut = 100
	w, p, img := snapRestoreSetup(b)
	defer snapRestoreTeardown(b, w, p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		children := make([]*core.Process, fanOut)
		var err error
		for j := range children {
			if children[j], err = w.Restore(img, nil); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		for j, ch := range children {
			ch.Inst.Mem.WriteU64(bench.SnapReqAddr, uint64(j+1))
			ch.ResumeAsync()
		}
		for _, ch := range children {
			if status, runErr := ch.Wait(); runErr != nil || status != 0 {
				b.Fatalf("status=%d err=%v", status, runErr)
			}
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(fanOut), "forks/op")
}

// BenchmarkInterpreter measures raw bytecode throughput (context for the
// §4.3 "engine speed is orthogonal" argument). It doubles as the
// copy-on-write barrier guard: these guests never run under CoW, so the
// barrier's inactive cost (one nil check per memory access) must keep
// this within 2%% of its pre-CoW baseline.
func BenchmarkInterpreter(b *testing.B) {
	app, _ := apps.ByName("lua")
	w := core.New()
	apps.SetupLua(w.Kernel)
	m := app.Build(100000)
	p, err := w.SpawnModule(m, "lua", nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	p.Run()
	steps := p.Exec.Steps
	b.ReportMetric(float64(steps), "wasm_instructions")
	for i := 0; i < b.N; i++ {
		w := core.New()
		apps.SetupLua(w.Kernel)
		p, _ := w.SpawnModule(m, "lua", nil, nil)
		p.Run()
		w.WaitAll()
	}
}

// BenchmarkWASILayer measures the layering tax: fd_write through
// WASI-over-WALI vs the direct WALI write (the §4.1 E2 system).
func BenchmarkWASILayer(b *testing.B) {
	env := benchWASIEnv(b)
	b.Run("wasi_fd_write", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if errno := env.call("fd_write", 1, 500, 1, 508); errno != 0 {
				b.Fatalf("errno %d", errno)
			}
		}
	})
	b.Run("wali_write", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if ret := env.p.Syscall(env.p.Exec, "write", 1, 1000, 13); ret < 0 {
				b.Fatalf("ret %d", ret)
			}
		}
	})
}

type wasiBenchEnv struct {
	p    *core.Process
	call func(name string, args ...uint64) uint32
}

func benchWASIEnv(b *testing.B) *wasiBenchEnv {
	b.Helper()
	// Reuse the trampoline from the wasi tests via a local rebuild: a
	// module importing fd_write and exporting a forwarder.
	w := core.New()
	layer := attachWASI(w)
	_ = layer
	m := wasiTrampoline()
	p, err := w.SpawnModule(m, "wasibench", nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	p.Inst.Mem.WriteBytes(1000, []byte("bench payload"))
	p.Inst.Mem.WriteU32(500, 1000)
	p.Inst.Mem.WriteU32(504, 13)
	fidx, _ := m.ExportedFunc("w_fd_write")
	return &wasiBenchEnv{
		p: p,
		call: func(name string, args ...uint64) uint32 {
			res, err := p.Exec.Invoke(fidx, args...)
			if err != nil {
				b.Fatal(err)
			}
			return uint32(res[0])
		},
	}
}

// BenchmarkTrace measures collector overhead (the Fig. 2 instrumentation
// must not distort profiles).
func BenchmarkTrace(b *testing.B) {
	w := core.New()
	col := bench.NewCollector()
	col.Attach(w)
	app, _ := apps.ByName("lua")
	for i := 0; i < b.N; i++ {
		if _, status, err := apps.RunOn(w, app, 20000); err != nil || status != 0 {
			b.Fatalf("status=%d err=%v", status, err)
		}
	}
	d, n := col.Total()
	b.ReportMetric(float64(d.Nanoseconds())/float64(max64(n, 1)), "ns_per_syscall")
}

func max64(a uint64, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

var _ = fmt.Sprintf // keep fmt for debug formatting in helpers
