package main

import (
	"bytes"
	"fmt"
	"io"
	gonet "net"
	"time"

	"gowali/internal/apps"
	"gowali/internal/bench"
	"gowali/internal/core"
	"gowali/internal/interp"
	"gowali/internal/kernel"
	knet "gowali/internal/kernel/net"
	"gowali/internal/kernel/sched"
	"gowali/internal/kernel/snap"
	"gowali/internal/kernel/waitq"
	"gowali/internal/linux"
	"gowali/internal/obs"
	"gowali/internal/wasm"
)

// perLayerMetrics are the traced run's numbers: one probe per layer,
// timed from outside through the layer's public functions, plus the
// per-workload counters of the traced pass. README.md pairs each with
// the end-to-end metric and workload it should move.
var perLayerMetrics = []metricDef{
	{name: "wasm.decode_validate_us", unit: "us"},
	{name: "wasm.module_kb", unit: "KiB"},
	{name: "interp.compile_us", unit: "us"},
	{name: "interp.instantiate_us", unit: "us"},
	{name: "interp.ns_per_instr", unit: "ns"},
	{name: "interp.steps_per_dispatch", unit: "count", higher: true},
	{name: "core.syscall_ns", unit: "ns"},
	{name: "obs.syscall_armed_ns", unit: "ns"},
	{name: "core.spawn_us", unit: "us"},
	{name: "kernel.pipe_rtt_us", unit: "us"},
	{name: "kernel.epoll_ready_ns", unit: "ns"},
	{name: "vfs.walk_hit_ns", unit: "ns"},
	{name: "vfs.create_unlink_ns", unit: "ns"},
	{name: "vfs.rename_ns", unit: "ns"},
	{name: "vfs.read4k_ns", unit: "ns"},
	{name: "vfs.write4k_ns", unit: "ns"},
	{name: "vfs.append4k_ns", unit: "ns"},
	{name: "net.hostnet_rtt_us", unit: "us"},
	{name: "net.loopback_rtt_us", unit: "us"},
	{name: "net.hostnet_mb_per_s", unit: "MB/s", higher: true},
	{name: "net.trunk_rtt_us", unit: "us"},
	{name: "net.get_p50_us", unit: "us"},
	{name: "net.set_p50_us", unit: "us"},
	{name: "sched.block_cycle_ns", unit: "ns"},
	{name: "sched.yield_ns", unit: "ns"},
	{name: "waitq.wake_rtt_ns", unit: "ns"},
	{name: "snap.capture_us", unit: "us"},
	{name: "snap.restore_us", unit: "us"},
	{name: "snap.restore_serve_us", unit: "us"},
	{name: "snap.image_kb", unit: "KiB"},
	{name: "snap.encode_mb_per_s", unit: "MB/s", higher: true},
	{name: "snap.decode_mb_per_s", unit: "MB/s", higher: true},
	{name: "snap.dirty_pages_per_child", unit: "count"},
	// Per workload, from the traced pass.
	{name: "interp.steps_per_op", unit: "count"},
	{name: "interp.us_per_op", unit: "us"},
	{name: "core.syscalls_per_op", unit: "count"},
	{name: "kernel.handler_us_per_op", unit: "us"},
	{name: "sched.yields_per_kop", unit: "count"},
	{name: "sched.boosts_per_kop", unit: "count"},
	{name: "unattributed.us_per_op", unit: "us"},
	{name: "obs.traced_overhead_pct", unit: "%"},
	{name: "diag.op_p99_us", unit: "us"},
	{name: "diag.slice_rate_iqr_pct", unit: "%"},
	{name: "diag.host_steal_pct", unit: "%"},
	{name: "diag.kept_slices_pct", unit: "%", higher: true},
}

// probeBudget sizes the probes: every probe runs reps times for at
// least dur each, and its metrics are the medians over the reps.
type probeBudget struct {
	reps int
	dur  time.Duration
}

// probe prices one layer. run measures for at least d and returns one
// value per name; state built by the constructor lives until close.
type probe struct {
	names []string
	run   func(d time.Duration) ([]float64, error)
	close func()
}

// runProbes runs every probe budget.reps times, repetitions interleaved
// across probes so that a burst of interference lands on one repetition
// of each instead of on every repetition of one.
func runProbes(b probeBudget, rec *recorder) (map[string]float64, error) {
	var probes []probe
	defer func() {
		for _, p := range probes {
			if p.close != nil {
				p.close()
			}
		}
	}()
	for _, mk := range []func() (probe, error){
		probeCodec, probeInstantiate, probeEngine, probeSyscall, probeSpawn,
		probePipe, probeEpoll, probeVFS, probeHostNet, probeLoopback,
		probeTrunk, probeSched, probeWaitq, probeSnap,
	} {
		p, err := mk()
		if err != nil {
			return nil, fmt.Errorf("probe set-up: %w", err)
		}
		probes = append(probes, p)
	}
	// As with the timed windows, a repetition the host stole CPU time from
	// is set aside, unless that leaves fewer than a third of them.
	host := openHostStat()
	defer host.close()
	all, clean := map[string][]float64{}, map[string][]float64{}
	for rep := 0; rep < b.reps; rep++ {
		for _, p := range probes {
			sp := rec.begin("probe "+p.names[0], -1, 0, 0)
			_, steal0 := host.read()
			vals, err := p.run(b.dur)
			_, steal1 := host.read()
			rec.end(sp)
			if err != nil {
				return nil, fmt.Errorf("probe %s: %w", p.names[0], err)
			}
			for i, name := range p.names {
				all[name] = append(all[name], vals[i])
				if steal1 == steal0 {
					clean[name] = append(clean[name], vals[i])
				}
			}
		}
	}
	out := map[string]float64{}
	for name, s := range all {
		if c := clean[name]; 3*len(c) >= len(s) {
			s = c
		}
		out[name] = median(s)
	}
	return out, nil
}

// timeLoop calls body in batches until d has passed and returns the
// nanoseconds one call took. batch keeps the clock reads out of bodies
// that cost less than a clock read.
func timeLoop(d time.Duration, batch int, body func()) float64 {
	start := time.Now()
	for n := 0; ; {
		for i := 0; i < batch; i++ {
			body()
		}
		n += batch
		if el := time.Since(start); el >= d {
			return float64(el) / float64(n)
		}
	}
}

// firstErr keeps the first error a probe body met.
type firstErr struct{ err error }

func (f *firstErr) keep(err error) {
	if f.err == nil && err != nil {
		f.err = err
	}
}

func errnoErr(what string, errno linux.Errno) error {
	if errno == 0 {
		return nil
	}
	return fmt.Errorf("%s: %v", what, errno)
}

// ---------- wasm, interp ----------

func workloadModules() []*wasm.Module {
	return []*wasm.Module{buildKVServer(), apps.BuildLua(luaScale), buildSqliteGuest(), buildStartGuest()}
}

// probeCodec prices the cold half of every set-up on the four workload
// modules together: binary decode + validate, and interp translation.
func probeCodec() (probe, error) {
	mods := workloadModules()
	var raws [][]byte
	var kb float64
	for _, m := range mods {
		raw := wasm.Encode(m)
		raws = append(raws, raw)
		kb += float64(len(raw)) / 1024
	}
	return probe{
		names: []string{"wasm.decode_validate_us", "wasm.module_kb", "interp.compile_us"},
		run: func(d time.Duration) ([]float64, error) {
			var fe firstErr
			dv := timeLoop(d/2, 1, func() {
				for _, raw := range raws {
					m, err := wasm.Decode(raw)
					fe.keep(err)
					if err == nil {
						fe.keep(wasm.Validate(m))
					}
				}
			})
			cp := timeLoop(d/2, 1, func() {
				for _, m := range mods {
					_, err := interp.Compile(m)
					fe.keep(err)
				}
			})
			return []float64{dv / 1e3, kb, cp / 1e3}, fe.err
		},
	}, nil
}

// probeInstantiate prices interp.Compiled.Instantiate of the guest-start
// module against a linker that already holds the WALI host functions:
// the per-instance cost an engine change may trade for exec speed.
func probeInstantiate() (probe, error) {
	c, err := interp.Compile(buildStartGuest())
	if err != nil {
		return probe{}, err
	}
	l := interp.NewLinker()
	core.New().RegisterHost(l)
	return probe{
		names: []string{"interp.instantiate_us"},
		run: func(d time.Duration) ([]float64, error) {
			var fe firstErr
			ns := timeLoop(d, 1, func() {
				_, err := c.Instantiate(l)
				fe.keep(err)
			})
			return []float64{ns / 1e3}, fe.err
		},
	}, nil
}

// probeEngine runs the import-free xorshift loop on a bare interp.Exec:
// nanoseconds per IR instruction and the fusion ratio.
func probeEngine() (probe, error) {
	m := buildSpinGuest(200000)
	c, err := interp.Compile(m)
	if err != nil {
		return probe{}, err
	}
	start, _ := m.ExportedFunc(core.StartExport)
	return probe{
		names: []string{"interp.ns_per_instr", "interp.steps_per_dispatch"},
		run: func(d time.Duration) ([]float64, error) {
			var ns, steps, disp float64
			for ns < float64(d) {
				inst, err := c.Instantiate(interp.NewLinker())
				if err != nil {
					return nil, err
				}
				e := interp.NewExec(inst)
				t := time.Now()
				if _, err := e.Invoke(start); err != nil {
					return nil, err
				}
				ns += float64(time.Since(t))
				steps += float64(e.Steps)
				disp += float64(e.Dispatches)
			}
			return []float64{ns / steps, steps / disp}, nil
		},
	}, nil
}

// ---------- core, kernel (guest loops) ----------

// runGuest spawns c on rt, runs it on this goroutine and returns how
// long Run took; any ending but exit 0 is an error.
func runGuest(rt *guestRT, c *interp.Compiled) (time.Duration, error) {
	p, err := rt.w.SpawnCompiled(c, c.Module.Name, []string{c.Module.Name}, nil)
	if err != nil {
		return 0, err
	}
	t := time.Now()
	status, runErr := p.Run()
	el := time.Since(t)
	rt.w.WaitAll() // forked children
	if runErr != nil || status != 0 {
		return 0, fmt.Errorf("%s ended with status %d, err %v", c.Module.Name, status, runErr)
	}
	return el, nil
}

// loopCost runs the guests in turn until d has passed and returns the
// summed Run time of each; the caller subtracts the empty variant.
func loopCost(d time.Duration, rts []*guestRT, cs []*interp.Compiled) (sums []float64, passes float64, err error) {
	sums = make([]float64, len(cs))
	for start := time.Now(); time.Since(start) < d; passes++ {
		for i, c := range cs {
			el, err := runGuest(rts[i], c)
			if err != nil {
				return nil, 0, err
			}
			sums[i] += float64(el)
		}
	}
	return sums, passes, nil
}

const loopN = 20000

func compileAll(mods ...*wasm.Module) ([]*interp.Compiled, error) {
	var out []*interp.Compiled
	for _, m := range mods {
		c, err := interp.Compile(m)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

func emptyLoop() *wasm.Module { return buildLoopGuest("empty-loop", loopN, nil, nil, nil) }

// probeSyscall prices the dispatch wrapper: a guest's getpid loop minus
// the same loop empty, with obs off and with metrics and tracer armed.
func probeSyscall() (probe, error) {
	cs, err := compileAll(buildGetpidLoop(loopN), emptyLoop(), buildGetpidLoop(loopN))
	if err != nil {
		return probe{}, err
	}
	plain, armed := newGuestRT(nil, nil), newGuestRT(nil, nil)
	tr := obs.NewTracer(0)
	tr.SetEnabled(true)
	armed.w.Trace, armed.w.Metrics = tr, obs.NewRegistry()
	rts := []*guestRT{plain, plain, armed}
	return probe{
		names: []string{"core.syscall_ns", "obs.syscall_armed_ns"},
		run: func(d time.Duration) ([]float64, error) {
			s, passes, err := loopCost(d, rts, cs)
			if err != nil {
				return nil, err
			}
			calls := passes * loopN
			return []float64{(s[0] - s[1]) / calls, (s[2] - s[1]) / calls}, nil
		},
		close: func() { plain.close(); armed.close() },
	}, nil
}

// probeSpawn prices the lifecycle every spawn op pays: SpawnCompiled,
// RunAsync and Wait of a guest that only exits.
func probeSpawn() (probe, error) {
	c, err := interp.Compile(buildLoopGuest("exit-only", 0, nil, nil, nil))
	if err != nil {
		return probe{}, err
	}
	rt := newGuestRT(nil, nil)
	return probe{
		names: []string{"core.spawn_us"},
		run: func(d time.Duration) ([]float64, error) {
			var fe firstErr
			ns := timeLoop(d, 1, func() {
				p, err := rt.w.SpawnCompiled(c, "exit-only", nil, nil)
				if err != nil {
					fe.keep(err)
					return
				}
				p.RunAsync()
				if status, err := p.Wait(); err != nil || status != 0 {
					fe.keep(fmt.Errorf("exit-only ended with status %d, err %v", status, err))
				}
			})
			return []float64{ns / 1e3}, fe.err
		},
		close: rt.close,
	}, nil
}

// probePipe prices a blocking wake-up between two guests: a forked pair
// bouncing one byte over two pipes, minus the same pair bouncing none.
func probePipe() (probe, error) {
	const trips = 2000
	cs, err := compileAll(buildPipePingPong(trips), buildPipePingPong(0))
	if err != nil {
		return probe{}, err
	}
	rt := newGuestRT(nil, nil)
	return probe{
		names: []string{"kernel.pipe_rtt_us"},
		run: func(d time.Duration) ([]float64, error) {
			s, passes, err := loopCost(d, []*guestRT{rt, rt}, cs)
			if err != nil {
				return nil, err
			}
			return []float64{(s[0] - s[1]) / (passes * trips) / 1e3}, nil
		},
		close: rt.close,
	}, nil
}

// probeEpoll prices epoll_wait on a ready set, minus the empty loop.
func probeEpoll() (probe, error) {
	cs, err := compileAll(buildEpollLoop(loopN), emptyLoop())
	if err != nil {
		return probe{}, err
	}
	rt := newGuestRT(nil, nil)
	return probe{
		names: []string{"kernel.epoll_ready_ns"},
		run: func(d time.Duration) ([]float64, error) {
			s, passes, err := loopCost(d, []*guestRT{rt, rt}, cs)
			if err != nil {
				return nil, err
			}
			return []float64{(s[0] - s[1]) / (passes * loopN)}, nil
		},
		close: rt.close,
	}, nil
}

// ---------- kernel/vfs ----------

func probeVFS() (probe, error) {
	fs := kernel.NewKernel().FS
	fs.MkdirAll("/a/b/c", 0o755)
	if err := errnoErr("seed", fs.WriteFile("/a/b/c/d", make([]byte, 1<<20), 0o644)); err != nil {
		return probe{}, err
	}
	if err := errnoErr("seed", fs.WriteFile("/tmp/r0", nil, 0o644)); err != nil {
		return probe{}, err
	}
	r, errno := fs.Walk("/", "/a/b/c/d", true)
	if err := errnoErr("walk", errno); err != nil {
		return probe{}, err
	}
	file := r.Node
	if err := errnoErr("seed", fs.WriteFile("/tmp/grown", nil, 0o644)); err != nil {
		return probe{}, err
	}
	r, errno = fs.Walk("/", "/tmp/grown", true)
	if err := errnoErr("walk", errno); err != nil {
		return probe{}, err
	}
	grown := r.Node
	page := make([]byte, 4096)
	// appendPages is the file length the append row grows to from empty:
	// memfs regrows to the exact size on every append, so the cost of a
	// page rises with the length (apps.BuildSqlite's dominant cost).
	const appendPages = 64
	return probe{
		names: []string{"vfs.walk_hit_ns", "vfs.create_unlink_ns", "vfs.rename_ns", "vfs.read4k_ns", "vfs.write4k_ns", "vfs.append4k_ns"},
		run: func(d time.Duration) ([]float64, error) {
			var fe firstErr
			var off int64
			next := func() int64 { off = (off + 4096) & (1<<20 - 1); return off }
			names := [2]string{"/tmp/r0", "/tmp/r1"}
			flip := 0
			out := []float64{
				timeLoop(d/6, 64, func() {
					_, errno := fs.Walk("/", "/a/b/c/d", true)
					fe.keep(errnoErr("walk", errno))
				}),
				timeLoop(d/6, 16, func() {
					_, errno := fs.Create("/", "/tmp/j", linux.S_IFREG|0o644, 0, 0, false)
					fe.keep(errnoErr("create", errno))
					fe.keep(errnoErr("unlink", fs.Unlink("/", "/tmp/j", false)))
				}),
				timeLoop(d/6, 16, func() {
					fe.keep(errnoErr("rename", fs.Rename("/", names[flip], names[1-flip])))
					flip = 1 - flip
				}),
				timeLoop(d/6, 64, func() {
					_, errno := file.ReadAt(page, next())
					fe.keep(errnoErr("read", errno))
				}),
				timeLoop(d/6, 64, func() {
					_, errno := file.WriteAt(page, next())
					fe.keep(errnoErr("write", errno))
				}),
				timeLoop(d/6, 1, func() {
					fe.keep(errnoErr("truncate", grown.Truncate(0)))
					for i := int64(0); i < appendPages; i++ {
						_, errno := grown.WriteAt(page, i*4096)
						fe.keep(errnoErr("append", errno))
					}
				}) / appendPages,
			}
			return out, fe.err
		},
	}, nil
}

// ---------- kernel/net ----------

// echoConn echoes on a kernel-side stream end until EOF; when sink is
// set it discards instead and acknowledges every ack bytes with one.
func echoConn(c knet.Conn, ack int) {
	buf := make([]byte, 64<<10)
	for got := 0; ; {
		n, errno := c.Read(buf, false)
		if n <= 0 || errno != 0 {
			return
		}
		if ack == 0 {
			c.Write(buf[:n], false)
			continue
		}
		for got += n; got >= ack; got -= ack {
			c.Write(buf[:1], false)
		}
	}
}

// pingKernelConn is one 16-byte round trip between two kernel-side ends.
func pingKernelConn(c knet.Conn, buf []byte) error {
	if _, errno := c.Write(buf, false); errno != 0 {
		return errnoErr("write", errno)
	}
	for got := 0; got < len(buf); {
		n, errno := c.Read(buf[got:], false)
		if n <= 0 || errno != 0 {
			return fmt.Errorf("read: n=%d errno=%v", n, errno)
		}
		got += n
	}
	return nil
}

// probeHostNet: a host TCP client against a HostNet Listener/Conn served
// by a Go loop, no guest: the pumps and pipes alone. One connection
// round-trips 16 bytes, a second streams 64 KiB writes one way.
func probeHostNet() (probe, error) {
	const chunk, burst = 64 << 10, 4 << 20
	hn := knet.NewHostNet(knet.HostNetConfig{Binds: map[uint16]string{7: "127.0.0.1:0"}})
	ln, errno := hn.Listen(knet.Addr{Family: linux.AF_INET, Port: 7}, 16)
	if err := errnoErr("listen", errno); err != nil {
		return probe{}, err
	}
	var hosts []gonet.Conn
	done := make(chan struct{}, 2)
	for _, ack := range []int{0, burst} {
		h, err := gonet.Dial("tcp", hn.BoundAddr(7))
		if err != nil {
			return probe{}, err
		}
		c, _, errno := ln.Accept(false)
		if err := errnoErr("accept", errno); err != nil {
			return probe{}, err
		}
		go func() { echoConn(c, ack); c.Close(); done <- struct{}{} }()
		hosts = append(hosts, h)
	}
	rec, data := make([]byte, kvRec), make([]byte, chunk)
	return probe{
		names: []string{"net.hostnet_rtt_us", "net.hostnet_mb_per_s"},
		run: func(d time.Duration) ([]float64, error) {
			var fe firstErr
			rtt := timeLoop(d/2, 1, func() {
				_, err := hosts[0].Write(rec)
				fe.keep(err)
				_, err = io.ReadFull(hosts[0], rec)
				fe.keep(err)
			})
			perBurst := timeLoop(d/2, 1, func() {
				for sent := 0; sent < burst; sent += chunk {
					_, err := hosts[1].Write(data)
					fe.keep(err)
				}
				_, err := io.ReadFull(hosts[1], rec[:1])
				fe.keep(err)
			})
			return []float64{rtt / 1e3, burst / 1e6 / (perBurst / 1e9)}, fe.err
		},
		close: func() {
			for _, h := range hosts {
				h.Close()
				<-done
			}
			ln.Close()
			hn.Close()
		},
	}, nil
}

// kernelPair connects a client end to an echoing server end on backends
// cb → sb (the same backend for loopback) and returns the client end.
func kernelPair(sb, cb knet.Backend, at knet.Addr) (knet.Conn, func(), error) {
	ln, errno := sb.Listen(at, 16)
	if err := errnoErr("listen", errno); err != nil {
		return nil, nil, err
	}
	client, errno := cb.Connect(at, knet.Addr{})
	if err := errnoErr("connect", errno); err != nil {
		return nil, nil, err
	}
	server, _, errno := ln.Accept(false)
	if err := errnoErr("accept", errno); err != nil {
		return nil, nil, err
	}
	done := make(chan struct{})
	go func() { echoConn(server, 0); server.Close(); close(done) }()
	return client, func() { client.Close(); <-done; ln.Close() }, nil
}

func rttProbe(name string, c knet.Conn, closeFn func()) probe {
	rec := make([]byte, kvRec)
	return probe{
		names: []string{name},
		run: func(d time.Duration) ([]float64, error) {
			var fe firstErr
			ns := timeLoop(d, 1, func() { fe.keep(pingKernelConn(c, rec)) })
			return []float64{ns / 1e3}, fe.err
		},
		close: closeFn,
	}
}

// probeLoopback: both ends on the in-kernel loopback, the floor under
// every socket round trip.
func probeLoopback() (probe, error) {
	lo := knet.NewLoopback()
	at := knet.Addr{Family: linux.AF_INET, Port: 7, Addr: [4]byte{127, 0, 0, 1}}
	c, closeFn, err := kernelPair(lo, lo, at)
	if err != nil {
		return probe{}, err
	}
	return rttProbe("net.loopback_rtt_us", c, func() { closeFn(); lo.Close() }), nil
}

// probeTrunk: two switches joined by a BridgeListen/BridgeDial TCP
// trunk, the client on one, the echo server on the other. The fabric is
// parked by the roadmap, so this is kept for its trajectory only.
func probeTrunk() (probe, error) {
	swA, swB := knet.NewSwitch(), knet.NewSwitch()
	if err := swA.SetSubnets("10.77.1.0/24"); err != nil {
		return probe{}, err
	}
	if err := swB.SetSubnets("10.77.2.0/24"); err != nil {
		return probe{}, err
	}
	bs, err := swA.BridgeListen("127.0.0.1:0")
	if err != nil {
		return probe{}, err
	}
	if _, err := swB.BridgeDial(bs.Addr()); err != nil {
		return probe{}, err
	}
	for deadline := time.Now().Add(5 * time.Second); swA.RouteCount() < 1 || swB.RouteCount() < 1; {
		if time.Now().After(deadline) {
			return probe{}, fmt.Errorf("trunk never exchanged routes")
		}
		time.Sleep(100 * time.Microsecond)
	}
	nodeA, ipA, err := swA.AllocNode()
	if err != nil {
		return probe{}, err
	}
	nodeB, _, err := swB.AllocNode()
	if err != nil {
		return probe{}, err
	}
	at := knet.Addr{Family: linux.AF_INET, Port: 7}
	copy(at.Addr[:], gonet.ParseIP(ipA).To4())
	c, closeFn, err := kernelPair(nodeA, nodeB, at)
	if err != nil {
		return probe{}, err
	}
	return rttProbe("net.trunk_rtt_us", c, func() {
		closeFn()
		nodeA.Close()
		nodeB.Close()
		swB.Close()
		swA.Close()
	}), nil
}

// ---------- kernel/sched, kernel/waitq ----------

// probeSched: the slot hand-back around a blocking syscall and the
// safepoint yield, both uncontended (one task, one slot).
func probeSched() (probe, error) {
	t := sched.New(sched.Config{Workers: 1}).NewTask(nil)
	t.Start()
	return probe{
		names: []string{"sched.block_cycle_ns", "sched.yield_ns"},
		run: func(d time.Duration) ([]float64, error) {
			return []float64{
				timeLoop(d/2, 64, func() { t.BeginBlock(); t.EndBlock() }),
				timeLoop(d/2, 64, t.Yield),
			}, nil
		},
		close: t.Finish,
	}, nil
}

// probeWaitq: two goroutines wake each other through two queues, each
// re-arming (Remove, Add) before it wakes the peer; half a round trip
// is Add → Wake → the waiter runs.
func probeWaitq() (probe, error) {
	var qa, qb waitq.Queue
	wa, wb := waitq.NewWaiter(), waitq.NewWaiter()
	qa.Add(wa)
	qb.Add(wb)
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-wb.C:
			case <-stop:
				return
			}
			qb.Remove(wb)
			qb.Add(wb)
			qa.Wake()
		}
	}()
	return probe{
		names: []string{"waitq.wake_rtt_ns"},
		run: func(d time.Duration) ([]float64, error) {
			rtt := timeLoop(d, 16, func() {
				qa.Remove(wa)
				qa.Add(wa)
				qb.Wake()
				<-wa.C
			})
			return []float64{rtt / 2}, nil
		},
		close: func() { close(stop); <-done },
	}, nil
}

// ---------- kernel/snap ----------

// probeSnap warms the snapshot guest of internal/bench once, then
// prices capture, restore, restore-and-serve and the image codec.
func probeSnap() (probe, error) {
	c, err := interp.Compile(bench.BuildSnapGuest())
	if err != nil {
		return probe{}, err
	}
	rt := newGuestRT(nil, nil)
	p, err := rt.w.SpawnCompiled(c, "snapguest", []string{"snapguest"}, nil)
	if err != nil {
		return probe{}, err
	}
	p.RunAsync()
	// The guest's first nanosleep comes after its working set is warm.
	for deadline := time.Now().Add(10 * time.Second); ; {
		if _, n := rt.w.SyscallStats(p.KP.PID); n >= 1 {
			break
		}
		if time.Now().After(deadline) {
			return probe{}, fmt.Errorf("snapshot guest never warmed up")
		}
		time.Sleep(50 * time.Microsecond)
	}
	img, err := rt.w.Snapshot(p)
	if err != nil {
		return probe{}, err
	}
	var enc bytes.Buffer
	if _, err := img.WriteTo(&enc); err != nil {
		return probe{}, err
	}
	imgMB := float64(enc.Len()) / 1e6
	req := uint64(0)
	return probe{
		names: []string{
			"snap.capture_us", "snap.restore_us", "snap.restore_serve_us", "snap.image_kb",
			"snap.encode_mb_per_s", "snap.decode_mb_per_s", "snap.dirty_pages_per_child",
		},
		run: func(d time.Duration) ([]float64, error) {
			var fe firstErr
			capture := timeLoop(d/6, 1, func() {
				_, err := rt.w.Snapshot(p)
				fe.keep(err)
			})
			// Restore alone is timed inside the restore-and-serve loop.
			var restoreNs, children, dirty float64
			serve := timeLoop(2*d/5, 1, func() {
				t := time.Now()
				ch, err := rt.w.Restore(img, nil)
				restoreNs += float64(time.Since(t))
				if err != nil {
					fe.keep(err)
					return
				}
				req++
				ch.Inst.Mem.WriteU64(bench.SnapReqAddr, req)
				status, err := ch.Resume()
				resp, _ := ch.Inst.Mem.ReadU64(bench.SnapRespAddr)
				if err != nil || status != 0 || resp != 2*req+1 {
					fe.keep(fmt.Errorf("restored child: status %d, err %v, answer %d to %d", status, err, resp, req))
				}
				children++
				dirty += float64(ch.Inst.Mem.DirtyPages())
			})
			encode := timeLoop(d/6, 1, func() {
				_, err := img.WriteTo(io.Discard)
				fe.keep(err)
			})
			decode := timeLoop(d/6, 1, func() {
				_, err := new(snap.Image).ReadFrom(bytes.NewReader(enc.Bytes()))
				fe.keep(err)
			})
			return []float64{
				capture / 1e3, restoreNs / children / 1e3, serve / 1e3, float64(enc.Len()) / 1024,
				imgMB / (encode / 1e9), imgMB / (decode / 1e9), dirty / children,
			}, fe.err
		},
		close: func() {
			p.KP.PostSignal(linux.SIGKILL)
			<-p.Done()
			rt.close()
		},
	}, nil
}

// ---------- the traced pass ----------

// traceSession is the traced round's shared state: one obs tracer and
// one span recorder on the same clock, written as one Chrome trace.
type traceSession struct {
	tr  *obs.Tracer
	rec *recorder
}

func newTraceSession() *traceSession {
	tr := obs.NewTracer(1 << 14)
	tr.SetEnabled(true)
	return &traceSession{tr: tr, rec: newRecorder(tr)}
}

// tracedPass runs one extra cell of wl with metrics and tracer armed and
// harness spans around every call into a layer, and derives the
// per-workload rows. base is the same workload measured untraced;
// end-to-end metrics never come from the traced cell.
func tracedPass(wl *workload, cfg config, base *pooled, ts *traceSession) (map[string]float64, error) {
	plane := &obsPlane{tr: ts.tr, reg: obs.NewRegistry()}
	e := env{seed: splitmix64(cfg.seed ^ 0x7ace), plane: plane, rec: ts.rec, setupDiv: cfg.setupDiv}
	cell, err := runCell(wl, e, cfg.window)
	if err != nil {
		return nil, fmt.Errorf("traced cell: %w", err)
	}
	traced := &pooled{wl: wl, cells: []cellResult{cell}}

	count := func(f func(c *layerCounters) float64) float64 {
		return base.sum(func(c *cellResult) float64 { return f(&c.counters) })
	}
	ops := count(func(c *layerCounters) float64 { return float64(c.ops) })
	tracedOps := float64(cell.counters.ops)
	baseRate, tracedRate := base.endToEnd()["ops_per_s"], traced.endToEnd()["ops_per_s"]
	bt, tt := base.timing(), traced.timing()
	rates := sortedCopy(bt.secondRates)
	return map[string]float64{
		"interp.steps_per_op":      count(func(c *layerCounters) float64 { return float64(c.steps) }) / ops,
		"core.syscalls_per_op":     count(func(c *layerCounters) float64 { return float64(c.syscalls) }) / ops,
		"sched.yields_per_kop":     1000 * count(func(c *layerCounters) float64 { return float64(c.sched.Yields) }) / ops,
		"sched.boosts_per_kop":     1000 * count(func(c *layerCounters) float64 { return float64(c.sched.Boosts) }) / ops,
		"kernel.handler_us_per_op": float64(plane.workNs) / tracedOps / 1e3,
		runqWait:                   float64(plane.reg.Histogram("wali_sched_runq_wait_ns").Sum()) / tracedOps / 1e3,
		tracedP50:                  quantile(tt.sorted, 0.5),
		"obs.traced_overhead_pct":  100 * (baseRate - tracedRate) / baseRate,
		"diag.op_p99_us":           quantile(bt.sorted, 0.99),
		"diag.slice_rate_iqr_pct":  100 * (quantile(rates, 0.75) - quantile(rates, 0.25)) / quantile(rates, 0.5),
		"diag.host_steal_pct":      bt.stealPct,
		"diag.kept_slices_pct":     100 * bt.keptShare,
	}, nil
}

// runqWait is the third attributed row. It is printed but is not a
// metric of BENCHMARK.json: with one guest and a free slot every grant
// takes the fast path, so it reads exactly 0 on all four workloads, and
// a time that never varies is no measurement.
const runqWait = "sched.runq_wait_us_per_op"

// attribute fills the rows that need both a probe and the traced pass:
// interpreter time per op is the op's instruction count at the engine's
// measured speed, and what the three attributed rows leave of the
// traced cell's median op (the cell the handler and run-queue times
// come from) is the wrapper, wake-up, pump transit and harness time
// that only in-program tracing can split further.
func attribute(vals map[string]float64) {
	vals["interp.us_per_op"] = vals["interp.steps_per_op"] * vals["interp.ns_per_instr"] / 1e3
	vals["unattributed.us_per_op"] = vals[tracedP50] - vals["interp.us_per_op"] - vals["kernel.handler_us_per_op"] - vals[runqWait]
}

// tracedP50 carries the traced cell's median latency from tracedPass to
// attribute; it is not a metric.
const tracedP50 = "traced.op_p50_us"

// kvClassProbe measures the kv-serve per-class latency in a short cell
// of its own, for a traced run of another workload.
func kvClassProbe(cfg config, vals map[string]float64) error {
	cell, err := runCell(workloads[0], env{seed: splitmix64(cfg.seed), setupDiv: 8 * cfg.setupDiv}, time.Second)
	if err != nil {
		return err
	}
	classP50(&pooled{wl: workloads[0], cells: []cellResult{cell}}, vals)
	return nil
}

// classP50 fills the kv-serve per-class latency rows from kv's kept samples.
func classP50(kv *pooled, vals map[string]float64) {
	t := kv.timing()
	vals["net.get_p50_us"], vals["net.set_p50_us"] = median(t.lat[kvOpGet]), median(t.lat[kvOpSet])
}
