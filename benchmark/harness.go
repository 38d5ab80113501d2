package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"gowali/internal/core"
	"gowali/internal/kernel"
	knet "gowali/internal/kernel/net"
	"gowali/internal/kernel/sched"
	"gowali/internal/obs"
)

// obsPlane is the observability plane of one traced cell: the runtime's
// tracer and metrics registry armed, plus a syscall hook that keeps
// handler time by name so parked time can be told from work.
type obsPlane struct {
	tr  *obs.Tracer
	reg *obs.Registry

	mu       sync.Mutex
	workNs   int64 // handler time of syscalls that never park
	parkedNs int64 // epoll_wait: almost all of it is waiting for a request
}

func newObsPlane() *obsPlane {
	p := &obsPlane{tr: obs.NewTracer(0), reg: obs.NewRegistry()}
	p.tr.SetEnabled(true)
	return p
}

func (p *obsPlane) hook(ev core.SyscallEvent) {
	p.mu.Lock()
	if ev.Name == "epoll_wait" {
		p.parkedNs += int64(ev.Duration)
	} else {
		p.workNs += int64(ev.Duration)
	}
	p.mu.Unlock()
}

// guestRT is one booted runtime: kernel, WALI engine and the guest
// scheduler at its WithScheduler defaults (GOMAXPROCS slots, 2 ms
// quantum), which is what gowali.New(WithScheduler(0, 0)) assembles.
// The benchmark wires internal/core itself because the per-layer
// counters (Exec.Steps) live on core.Process, behind the facade.
type guestRT struct {
	k *kernel.Kernel
	w *core.WALI
}

func newGuestRT(p *obsPlane, nb knet.Backend) *guestRT {
	k := kernel.NewKernel()
	w := core.NewWith(k)
	var sc sched.Config
	if p != nil {
		w.Trace, w.Metrics = p.tr, p.reg
		sc.Trace, sc.Metrics = p.tr, p.reg
		w.AddHook(p.hook)
	}
	w.Sched = sched.New(sc)
	if nb != nil {
		k.SetNetBackend(nb)
	}
	if p != nil {
		k.SetObs(p.tr, p.reg)
	}
	return &guestRT{k: k, w: w}
}

// close is Runtime.Close: every guest has finished, the kernel lets go
// of its network backends and metric collectors.
func (r *guestRT) close() {
	r.w.WaitAll()
	r.k.Shutdown()
}

// layerCounters are the public counters one instance accumulated over
// its whole life (warm-up included; ops counts the same span).
type layerCounters struct {
	ops       uint64
	steps     uint64 // Σ interp.Exec.Steps
	syscalls  uint64 // Σ WALI.SyscallStats count
	handlerNs int64  // Σ WALI.SyscallStats time (parked time included)
	sched     sched.Stats
}

// instance is one set-up workload inside a cell.
type instance interface {
	// op runs one closed-loop operation for client c and verifies its
	// result; class tags it for per-class latency (kv: GET 0, SET 1).
	op(c int) (class int, err error)
	// close stops the guests, verifies how they ended, closes the
	// runtime and returns the counters.
	close() (layerCounters, error)
}

// env is what a cell hands to a workload's set-up.
type env struct {
	seed     uint64
	plane    *obsPlane // nil: obs off (every measured cell)
	rec      *recorder // nil unless traced
	setupDiv int       // divides the fixed preload/warm-up counts; 1 except in the smoke test
}

// workload is one named traffic mix. All loops are closed: each client
// sends its next operation only when the previous one was answered.
type workload struct {
	name    string
	why     string
	clients int
	latCap  int // latency samples to preallocate per client and cell
	setup   func(e env) (instance, error)
}

// slice is one tenth of a second of a timed window: what was done in it
// and how much CPU time the host took from the VM meanwhile.
type slice struct {
	end          time.Duration // offset of the slice's end from the window's start
	dur          time.Duration
	ops          int64
	cpu          time.Duration // process CPU, user+sys, load generator included
	steal, total int64         // /proc/stat jiffies over the slice, all vCPUs
	kept         bool          // set by pooled.keep
}

// stolen is the share of the VM's CPU time the host took during the slice.
func (s *slice) stolen() float64 {
	if s.total == 0 {
		return 0
	}
	return float64(s.steal) / float64(s.total)
}

// sample is one completed operation.
type sample struct{ end, lat time.Duration }

// cellResult is what one (round, workload) cell measured.
type cellResult struct {
	setupS    float64
	slices    []slice
	lat       [2][]sample // per class, in completion order per client
	attempted int64
	failed    int64
	firstErr  error
	ops       int64 // completed in the window
	mallocs   uint64
	allocB    uint64
	liveHeapB float64
	counters  layerCounters
}

// leakBase is the goroutine/fd census taken before a cell; check polls
// until teardown (pumps, sysmon, accept loops unwind asynchronously)
// has converged back to it.
type leakBase struct{ goroutines, fds int }

func countFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

func takeLeakBase() leakBase { return leakBase{runtime.NumGoroutine(), countFDs()} }

func (b leakBase) check() error {
	deadline := time.Now().Add(5 * time.Second)
	for {
		g, f := runtime.NumGoroutine(), countFDs()
		if g <= b.goroutines && f <= b.fds {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("leak after Runtime.Close: goroutines %d -> %d, fds %d -> %d", b.goroutines, g, b.fds, f)
		}
		time.Sleep(time.Millisecond)
	}
}

// cpuTime is process CPU so far, user+sys, load generator included.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostStat reads the aggregate line of /proc/stat without allocating (it
// is read ten times a second inside the timed windows): total and steal
// jiffies summed over the VM's CPUs. Where there is no /proc/stat every
// reading is 0 and no slice counts as stolen from.
type hostStat struct {
	f   *os.File
	buf [256]byte
}

func openHostStat() *hostStat {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return &hostStat{}
	}
	return &hostStat{f: f}
}

func (h *hostStat) close() {
	if h.f != nil {
		h.f.Close()
	}
}

func (h *hostStat) read() (total, steal int64) {
	if h.f == nil {
		return 0, 0
	}
	n, _ := h.f.ReadAt(h.buf[:], 0)
	// "cpu  user nice system idle iowait irq softirq steal guest guest_nice"
	field, v, in := 0, int64(0), false
	for _, c := range h.buf[:n] {
		if c >= '0' && c <= '9' {
			v, in = v*10+int64(c-'0'), true
			continue
		}
		if in {
			field++
			total += v
			if field == 8 {
				steal = v
			}
			v, in = 0, false
		}
		if c == '\n' {
			break
		}
	}
	return total, steal
}

func heapAlloc() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// sliceLen is the grain at which stolen time is told from clean time.
const sliceLen = 100 * time.Millisecond

// runCell runs one independent cell: baseline GC, timed set-up, a timed
// window cut into slices of a tenth of a second, GC and heap reading,
// teardown, leak check.
func runCell(wl *workload, e env, window time.Duration) (cellResult, error) {
	var res cellResult
	host := openHostStat()
	defer host.close()
	leaks := takeLeakBase()
	var lats [][2][]sample
	for c := 0; c < wl.clients; c++ {
		lats = append(lats, [2][]sample{make([]sample, 0, wl.latCap), make([]sample, 0, wl.latCap/4)})
	}
	nSlices := max(int(window/sliceLen), 1)
	res.slices = make([]slice, 0, nSlices)
	runtime.GC()
	heap0 := heapAlloc()

	t0 := time.Now()
	inst, err := wl.setup(e)
	if err != nil {
		return res, fmt.Errorf("%s: set-up: %w", wl.name, err)
	}
	res.setupS = time.Since(t0).Seconds()

	var done, failed atomic.Int64
	var errMu sync.Mutex
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	deadline := start.Add(window)
	var wg sync.WaitGroup
	for c := 0; c < wl.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			l := &lats[c]
			for {
				t := time.Now()
				if !t.Before(deadline) {
					return
				}
				class, err := inst.op(c)
				end := time.Now()
				if err != nil {
					failed.Add(1)
					errMu.Lock()
					if res.firstErr == nil {
						res.firstErr = err
					}
					errMu.Unlock()
					continue
				}
				l[class] = append(l[class], sample{end.Sub(start), end.Sub(t)})
				done.Add(1)
			}
		}(c)
	}
	prev := slice{cpu: cpuTime()}
	prev.total, prev.steal = host.read()
	for i := 1; i <= nSlices; i++ {
		time.Sleep(time.Until(start.Add(window * time.Duration(i) / time.Duration(nSlices))))
		now := slice{end: time.Since(start), ops: done.Load(), cpu: cpuTime()}
		now.total, now.steal = host.read()
		res.slices = append(res.slices, slice{
			end: now.end, dur: now.end - prev.end, ops: now.ops - prev.ops, cpu: now.cpu - prev.cpu,
			steal: now.steal - prev.steal, total: now.total - prev.total,
		})
		prev = now
	}
	wg.Wait()
	runtime.ReadMemStats(&m1)

	res.ops, res.failed = done.Load(), failed.Load()
	res.attempted = res.ops + res.failed
	res.mallocs, res.allocB = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	// The sample and slice buffers were allocated before the baseline and
	// are still live here, so they cancel out of the heap reading.
	runtime.GC()
	res.liveHeapB = heapAlloc() - heap0
	for _, l := range lats {
		for class := range l {
			res.lat[class] = append(res.lat[class], l[class]...)
		}
	}

	res.counters, err = inst.close()
	if err == nil {
		err = leaks.check()
	}
	if err != nil {
		// A guest that ended wrongly or a runtime that leaks is a wrong
		// result of the cell, not of one op: it fails the whole run.
		return res, fmt.Errorf("%s: teardown: %w", wl.name, err)
	}
	if res.ops == 0 {
		return res, errors.Join(fmt.Errorf("%s: no operation completed in the window", wl.name), res.firstErr)
	}
	return res, nil
}

// pooled is everything a workload's cells measured, pooled.
type pooled struct {
	wl    *workload
	cells []cellResult
	t     *timing // of cells, computed on first use
}

func (p *pooled) add(c cellResult) { p.cells, p.t = append(p.cells, c), nil }

// each returns f of every cell.
func (p *pooled) each(f func(c *cellResult) float64) []float64 {
	out := make([]float64, len(p.cells))
	for i := range p.cells {
		out[i] = f(&p.cells[i])
	}
	return out
}

func (p *pooled) sum(f func(c *cellResult) float64) float64 {
	var s float64
	for _, v := range p.each(f) {
		s += v
	}
	return s
}

func (p *pooled) ops() float64 { return p.sum(func(c *cellResult) float64 { return float64(c.ops) }) }
func (p *pooled) attempted() int64 {
	return int64(p.sum(func(c *cellResult) float64 { return float64(c.attempted) }))
}
func (p *pooled) failed() int64 {
	return int64(p.sum(func(c *cellResult) float64 { return float64(c.failed) }))
}
func (p *pooled) firstErr() error {
	for i := range p.cells {
		if p.cells[i].firstErr != nil {
			return p.cells[i].firstErr
		}
	}
	return nil
}

// keep marks the slices the timing metrics are computed from: those in
// which the host stole no CPU time from the VM (diag.host_steal_pct
// during a noisy spell was 13-34%, and a run's rate fell with it). When
// fewer than a tenth of a run's slices are clean, the least stolen tenth
// stands in, so a run inside one long noisy spell still reports.
func (p *pooled) keep() (share float64) {
	var stolen []float64
	for i := range p.cells {
		for j := range p.cells[i].slices {
			stolen = append(stolen, p.cells[i].slices[j].stolen())
		}
	}
	sort.Float64s(stolen)
	limit := stolen[(len(stolen)+9)/10-1] // 0 as soon as a tenth of the slices are clean
	kept := 0
	for i := range p.cells {
		for j := range p.cells[i].slices {
			sl := &p.cells[i].slices[j]
			if sl.kept = sl.stolen() <= limit; sl.kept {
				kept++
			}
		}
	}
	return float64(kept) / float64(len(stolen))
}

// timing is what the kept slices of a run measured.
type timing struct {
	ops, seconds, cpuMS float64
	lat                 [2][]float64 // us, per class, of the operations that ran inside kept slices only
	sorted              []float64    // both classes of lat, sorted
	keptShare           float64
	stealPct            float64   // over all slices
	secondRates         []float64 // ops/s of every whole second, kept or not
}

func (p *pooled) timing() *timing {
	if p.t != nil {
		return p.t
	}
	t := &timing{keptShare: p.keep()}
	p.t = t
	var steal, total float64
	for i := range p.cells {
		c := &p.cells[i]
		var secOps int64
		var secDur time.Duration
		for _, sl := range c.slices {
			steal, total = steal+float64(sl.steal), total+float64(sl.total)
			if sl.kept {
				t.ops, t.seconds, t.cpuMS = t.ops+float64(sl.ops), t.seconds+sl.dur.Seconds(), t.cpuMS+float64(sl.cpu)/1e6
			}
			secOps, secDur = secOps+sl.ops, secDur+sl.dur
			if secDur >= time.Second-sliceLen/2 {
				t.secondRates = append(t.secondRates, float64(secOps)/secDur.Seconds())
				secOps, secDur = 0, 0
			}
		}
		// An operation counts when every slice it ran in was kept.
		at := func(off time.Duration) int {
			return min(sort.Search(len(c.slices), func(j int) bool { return c.slices[j].end >= off }), len(c.slices)-1)
		}
		for class := range c.lat {
			for _, s := range c.lat[class] {
				ok := true
				for j := at(s.end - s.lat); j <= at(s.end) && ok; j++ {
					ok = c.slices[j].kept
				}
				if ok {
					t.lat[class] = append(t.lat[class], float64(s.lat)/1e3)
				}
			}
		}
	}
	if total > 0 {
		t.stealPct = 100 * steal / total
	}
	t.sorted = sortedCopy(append(append([]float64(nil), t.lat[0]...), t.lat[1]...))
	return t
}

// endToEnd computes the end-to-end metrics by name. The three timing rows
// come from the kept (steal-free) slices: operations completed in them
// over their length, process CPU spent in them per 1000 of those
// operations, and the median latency of the operations that ran inside
// them. The alloc rows are counts over the whole timed windows, heap and
// set-up medians over cells.
func (p *pooled) endToEnd() map[string]float64 {
	ops, t := p.ops(), p.timing()
	return map[string]float64{
		"ops_per_s":       t.ops / t.seconds,
		"op_p50_us":       quantile(t.sorted, 0.5),
		"cpu_ms_per_kop":  t.cpuMS / (t.ops / 1000),
		"allocs_per_op":   p.sum(func(c *cellResult) float64 { return float64(c.mallocs) }) / ops,
		"alloc_kb_per_op": p.sum(func(c *cellResult) float64 { return float64(c.allocB) }) / 1024 / ops,
		"live_heap_mb":    median(p.each(func(c *cellResult) float64 { return c.liveHeapB / (1 << 20) })),
		"setup_s":         median(p.each(func(c *cellResult) float64 { return c.setupS })),
	}
}

// runCells runs n untraced cells of one workload back to back, cell i
// seeded from (seed, first+i), and pools them.
func runCells(wl *workload, cfg config, first, n int, into *pooled) error {
	for i := 0; i < n; i++ {
		e := env{seed: splitmix64(cfg.seed + uint64(first+i)), setupDiv: cfg.setupDiv}
		c, err := runCell(wl, e, cfg.window)
		if err != nil {
			return err
		}
		into.add(c)
	}
	return nil
}
