package gowali

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"

	"gowali/internal/apps"
	"gowali/internal/core"
	"gowali/internal/kernel"
	"gowali/internal/kernel/sched"
	"gowali/internal/kernel/vfs"
	"gowali/internal/obs"
	"gowali/internal/wasi"
	"gowali/internal/wazi"
)

// config accumulates functional options before the host layer consumes
// them.
type config struct {
	kernel *Kernel
	scheme SafepointScheme
	tier   ExecTier
	strict bool
	hook   func(SyscallEvent)
	host   Host
	mounts []mountSpec
	net    NetBackend
	sched  *schedSpec
	budget *Budget

	stdin  io.Reader
	stdout io.Writer
	stderr io.Writer

	// Observability plane (see obs.go): optional tracer, metrics
	// registry and strace output.
	tracer  *Tracer
	metrics *Metrics
	straceW io.Writer
}

// schedSpec is one WithScheduler request.
type schedSpec struct {
	workers int
	quantum time.Duration
}

// mountSpec is one WithMount request, applied at kernel boot.
type mountSpec struct {
	path string
	b    Backend
	opts vfs.MountOptions
}

// Option configures a Runtime under construction; see the With*
// functions.
type Option func(*config)

// WithKernel runs the runtime over an existing simulated kernel instead
// of booting a fresh one — multiple runtimes (or successive runs) can
// share one kernel's filesystem, process table and devices. WALI-backed
// hosts only.
func WithKernel(k *Kernel) Option { return func(c *config) { c.kernel = k } }

// WithHost selects the host layer the runtime exposes to modules:
// WALIHost (default), WASIHost or WAZIHost.
func WithHost(h Host) Option { return func(c *config) { c.host = h } }

// WithSafepointScheme selects where the engine polls for asynchronous
// events (signals, cancellation). Default: SafepointLoop, the paper's
// implementation choice.
func WithSafepointScheme(s SafepointScheme) Option {
	return func(c *config) { c.scheme = s }
}

// WithExecTier selects the execution engine: TierFused (default, the
// superinstruction engine), TierIR (plain pre-decoded IR) or TierWire
// (the legacy wire-bytecode engine, kept for differential testing). All
// tiers are semantically identical; they differ only in dispatch cost.
func WithExecTier(t ExecTier) Option {
	return func(c *config) { c.tier = t }
}

// WithStrict makes known-but-unimplemented syscalls trap instead of
// returning -ENOSYS (§3.5). WALI-backed hosts only.
func WithStrict(strict bool) Option { return func(c *config) { c.strict = strict } }

// WithSyscallHook observes every syscall after it completes — profiling,
// tracing, Fig. 2/7-style attribution. fn must be safe for concurrent
// use; a Collector's Observe method is a ready-made hook. WALI-backed
// hosts only.
func WithSyscallHook(fn func(SyscallEvent)) Option {
	return func(c *config) { c.hook = fn }
}

// WithMount mounts a filesystem backend at guestPath in the runtime's
// kernel (WALI-backed hosts only). The mountpoint directory chain is
// created if missing. Backends come from NewHostFS (a host directory),
// NewMemFS (a scratch tmpfs) or NewOverlayFS (copy-up writes over a
// read-only lower layer); anything implementing the vfs Backend
// interface mounts the same way. Repeat the option for multiple
// mounts; MountReadOnly() makes one read-only:
//
//	host, _ := gowali.NewHostFS("/srv/data", false)
//	rt, _ := gowali.New(
//		gowali.WithMount("/data", host),
//		gowali.WithMount("/scratch", gowali.NewMemFS()),
//	)
func WithMount(guestPath string, b Backend, opts ...MountOption) Option {
	return func(c *config) {
		spec := mountSpec{path: guestPath, b: b}
		for _, o := range opts {
			o(&spec.opts)
		}
		c.mounts = append(c.mounts, spec)
	}
}

// MountOption configures one WithMount (or Runtime.Mount) call.
type MountOption func(*vfs.MountOptions)

// MountReadOnly mounts the backend read-only: every mutation through
// the mount fails with EROFS, whatever the backend itself allows.
func MountReadOnly() MountOption {
	return func(o *vfs.MountOptions) { o.ReadOnly = true }
}

// WithMountSpec parses a CLI-style mount specification of the form
// "hostdir=/guestpath[:ro]" into a hostfs WithMount option. The cmd/
// tools' repeatable -dir flags are built on it.
func WithMountSpec(spec string) (Option, error) {
	hostDir, guestPath, ro, err := parseMountSpec(spec)
	if err != nil {
		return nil, err
	}
	b, err := NewHostFS(hostDir, ro)
	if err != nil {
		return nil, fmt.Errorf("gowali: mount %q: %w", spec, err)
	}
	if ro {
		return WithMount(guestPath, b, MountReadOnly()), nil
	}
	return WithMount(guestPath, b), nil
}

func parseMountSpec(spec string) (hostDir, guestPath string, ro bool, err error) {
	s := spec
	if rest, ok := strings.CutSuffix(s, ":ro"); ok {
		s, ro = rest, true
	}
	hostDir, guestPath, ok := strings.Cut(s, "=")
	if !ok || hostDir == "" || guestPath == "" || !strings.HasPrefix(guestPath, "/") {
		return "", "", false, fmt.Errorf("gowali: bad mount spec %q (want hostdir=/guestpath[:ro])", spec)
	}
	return hostDir, guestPath, ro, nil
}

// WithNet selects the runtime kernel's AF_INET network stack
// (WALI-backed hosts only). The default is the in-kernel loopback;
// NewHostNet passes guest sockets through to real host sockets under
// an explicit bind-map and allowlist, and NewSwitch().Node attaches
// the kernel to a cross-kernel virtual switch so guests in different
// runtimes exchange traffic:
//
//	hn := gowali.NewHostNet(gowali.HostNetConfig{
//		Binds: map[uint16]string{8080: "127.0.0.1:18080"},
//	})
//	rt, _ := gowali.New(gowali.WithNet(hn))
//
// AF_UNIX sockets always stay on the kernel-private loopback, like a
// network namespace's abstract socket space.
func WithNet(b NetBackend) Option { return func(c *config) { c.net = b } }

// WithNetFlags parses CLI-style -net directives into one WithNet
// option (the cmd/ tools' repeatable -net flag feeds it):
//
//	loop                     the in-kernel loopback (default)
//	host                     host passthrough, deny-all policy
//	host=PORT:HOSTADDR       map guest PORT to a host listen address
//	                         (repeatable; ":0" picks a free host port)
//	allow=PATTERN            allow outbound dials: "ip:port", "*:port",
//	                         "ip:*" or "*" (repeatable; implies host)
//	subnet=CIDR              fabric mode: this process's local subnet
//	                         ("10.0.1.0/24", repeatable); the kernel's
//	                         node address is allocated from it
//	node=IP                  fabric mode: attach the kernel under an
//	                         explicit node address instead
//	bridge=HOST:PORT         fabric mode: accept trunk links from
//	                         other processes at this TCP endpoint
//	join=HOST:PORT           fabric mode: dial into a fabric through
//	                         a remote bridge= endpoint (repeatable)
//
// The fabric directives build a distributed switch: two wali-run
// processes, one with -net bridge=, the other with -net join=, form
// one address space their guests exchange traffic across. Fabric mode
// conflicts with the host/loop directives. No directives means no
// option (loopback).
func WithNetFlags(specs ...string) (Option, error) {
	if len(specs) == 0 {
		return func(*config) {}, nil
	}
	cfg := HostNetConfig{Binds: map[uint16]string{}}
	hostNet, loop, fabric := false, false, false
	var subnets, bridges, joins []string
	nodeIP := ""
	for _, spec := range specs {
		switch {
		case spec == "loop" || spec == "loopback":
			loop = true
		case spec == "host":
			hostNet = true
		case strings.HasPrefix(spec, "host="):
			portStr, hostAddr, ok := strings.Cut(strings.TrimPrefix(spec, "host="), ":")
			port, err := strconv.ParseUint(portStr, 10, 16)
			if !ok || err != nil || hostAddr == "" {
				return nil, fmt.Errorf("gowali: bad -net spec %q (want host=GUESTPORT:HOSTADDR)", spec)
			}
			cfg.Binds[uint16(port)] = hostAddr
			hostNet = true
		case strings.HasPrefix(spec, "allow="):
			pat := strings.TrimPrefix(spec, "allow=")
			if pat == "" {
				return nil, fmt.Errorf("gowali: bad -net spec %q", spec)
			}
			cfg.Allow = append(cfg.Allow, pat)
			hostNet = true
		case strings.HasPrefix(spec, "subnet="):
			cidr := strings.TrimPrefix(spec, "subnet=")
			if _, err := ParseCIDR(cidr); err != nil {
				return nil, fmt.Errorf("gowali: bad -net spec %q: %v", spec, err)
			}
			subnets = append(subnets, cidr)
			fabric = true
		case strings.HasPrefix(spec, "node="):
			if nodeIP != "" {
				return nil, fmt.Errorf("gowali: -net node= given twice (one kernel, one node)")
			}
			nodeIP = strings.TrimPrefix(spec, "node=")
			if nodeIP == "" {
				return nil, fmt.Errorf("gowali: bad -net spec %q", spec)
			}
			fabric = true
		case strings.HasPrefix(spec, "bridge="):
			addr := strings.TrimPrefix(spec, "bridge=")
			if addr == "" {
				return nil, fmt.Errorf("gowali: bad -net spec %q", spec)
			}
			bridges = append(bridges, addr)
			fabric = true
		case strings.HasPrefix(spec, "join="):
			addr := strings.TrimPrefix(spec, "join=")
			if addr == "" {
				return nil, fmt.Errorf("gowali: bad -net spec %q", spec)
			}
			joins = append(joins, addr)
			fabric = true
		default:
			return nil, fmt.Errorf("gowali: bad -net spec %q", spec)
		}
	}
	if fabric && (hostNet || loop) {
		return nil, fmt.Errorf("gowali: fabric directives (subnet/node/bridge/join) conflict with host/loop")
	}
	if hostNet && loop {
		return nil, fmt.Errorf("gowali: -net loop conflicts with host directives")
	}
	if fabric {
		if len(subnets) == 0 && nodeIP == "" {
			return nil, fmt.Errorf("gowali: fabric mode needs -net subnet=CIDR or -net node=IP")
		}
		sw := NewSwitch()
		if err := sw.SetSubnets(subnets...); err != nil {
			return nil, err
		}
		var node NetBackend
		var err error
		if nodeIP != "" {
			node, err = sw.Node(nodeIP)
		} else {
			node, _, err = sw.AllocNode()
		}
		if err != nil {
			return nil, err
		}
		for _, addr := range bridges {
			if _, err := sw.BridgeListen(addr); err != nil {
				return nil, fmt.Errorf("gowali: -net bridge=%s: %v", addr, err)
			}
		}
		for _, addr := range joins {
			if _, err := sw.BridgeDial(addr); err != nil {
				return nil, fmt.Errorf("gowali: -net join=%s: %v", addr, err)
			}
		}
		return WithNet(node), nil
	}
	if !hostNet {
		return WithNet(nil), nil // explicit loopback
	}
	return WithNet(NewHostNet(cfg)), nil
}

// WithScheduler puts the runtime's guests under the multicore guest
// scheduler: guest goroutines multiplex onto `workers` run slots
// (0 = GOMAXPROCS) with safepoint-driven time-slice preemption every
// `quantum` (0 = the 2ms default). Without this option every guest runs
// unconstrained on its own goroutine, the original behavior. Preemption
// is invisible to guests: it happens only at safepoints, where execution
// state is fully resumable. WALI-backed hosts only.
func WithScheduler(workers int, quantum time.Duration) Option {
	return func(c *config) { c.sched = &schedSpec{workers: workers, quantum: quantum} }
}

// WithBudget places every process of the runtime under one tenant budget
// domain: memory ceilings enforced at memory.grow/mmap/brk and fork, fd
// caps in the descriptor table, and (when WithScheduler is active) CPU
// ceilings and shares charged from scheduled run time. A CPU overrun
// kills the tenant's processes with SIGKILL. Zero fields are unlimited.
// WALI-backed hosts only.
func WithBudget(b Budget) Option {
	return func(c *config) { c.budget = &b }
}

// WithStdio connects the guest's standard streams to host streams
// (WALI-backed hosts; the WAZI board console is not redirectable):
//
//   - in feeds the guest console's input queue (stdin reads);
//   - out receives a live copy of console output (stdout and any other
//     tty writes) in addition to the inspectable ConsoleOutput buffer;
//   - errw, when non-nil, becomes the initial process's fd 2, separating
//     stderr from the console entirely.
//
// Any stream may be nil to keep the default (buffered console, empty
// stdin).
func WithStdio(in io.Reader, out, errw io.Writer) Option {
	return func(c *config) {
		c.stdin, c.stdout, c.stderr = in, out, errw
	}
}

// Host is the kernel-interface layer a Runtime exposes to its modules.
// Three implementations ship: WALIHost (the Linux interface), WASIHost
// (WASI preview1 layered over WALI) and WAZIHost (the Zephyr interface).
// The interface is sealed; the engine behind it can be resharded freely.
type Host interface {
	fmt.Stringer
	apply(r *Runtime, c *config) error
}

// waliHost backs both WALIHost and WASIHost.
type waliHost struct {
	wasi     bool
	preopens []Preopen
}

func (h *waliHost) String() string {
	if h.wasi {
		return "wasi-over-wali"
	}
	return "wali"
}

func (h *waliHost) apply(r *Runtime, c *config) error {
	k := c.kernel
	if k == nil {
		k = kernel.NewKernel()
	}
	w := core.NewWith(k)
	w.Scheme = c.scheme
	w.Tier = c.tier
	w.Strict = c.strict
	if c.hook != nil {
		w.Hook = c.hook
	}
	w.Trace = c.tracer
	w.Metrics = c.metrics
	if c.straceW != nil {
		w.Strace = obs.NewStraceWriter(c.straceW)
	}
	if c.sched != nil {
		w.Sched = sched.New(sched.Config{
			Workers: c.sched.workers, Quantum: c.sched.quantum,
			Trace: c.tracer, Metrics: c.metrics,
		})
	}
	if c.budget != nil {
		w.DefaultTenant = w.NewTenant("runtime", *c.budget)
	}
	if h.wasi {
		wasi.Attach(w, h.preopens...)
	}
	r.wali = w

	if c.stdout != nil {
		k.Console.SetTee(c.stdout)
	}
	if c.stdin != nil {
		go feedConsole(k.Console, c.stdin)
	}
	if c.stderr != nil {
		r.stderrPath = "/dev/host-stderr"
		k.Mkdev(r.stderrPath, &kernel.StreamDevice{W: c.stderr})
	}
	for _, spec := range c.mounts {
		if err := mountOn(k, spec.path, spec.b, spec.opts); err != nil {
			return err
		}
	}
	if c.net != nil {
		k.SetNetBackend(c.net)
	}
	// After SetNetBackend, so a switch-fabric node inherits the plane
	// before any trunk links form.
	if c.tracer != nil || c.metrics != nil {
		k.SetObs(c.tracer, c.metrics)
	}
	return nil
}

// mountOn creates the mountpoint chain and grafts b there.
func mountOn(k *Kernel, guestPath string, b Backend, opts vfs.MountOptions) error {
	if b == nil {
		return fmt.Errorf("gowali: WithMount %s: nil backend", guestPath)
	}
	if k.FS.MkdirAll(guestPath, 0o755) == nil {
		return fmt.Errorf("gowali: WithMount %s: cannot create mountpoint", guestPath)
	}
	if errno := k.FS.Mount(guestPath, b, opts); errno != 0 {
		return fmt.Errorf("gowali: mount %s: %v", guestPath, errno)
	}
	return nil
}

// feedConsole pumps a host reader into the guest console until EOF.
func feedConsole(con *kernel.ConsoleDevice, in io.Reader) {
	buf := make([]byte, 4096)
	for {
		n, err := in.Read(buf)
		if n > 0 {
			con.FeedInput(buf[:n])
		}
		if err != nil {
			con.CloseInput()
			return
		}
	}
}

// waziHost runs modules over the simulated Zephyr board.
type waziHost struct{}

func (waziHost) String() string { return "wazi" }

func (waziHost) apply(r *Runtime, c *config) error {
	if c.kernel != nil {
		return fmt.Errorf("gowali: WithKernel requires a WALI-backed host")
	}
	if c.strict {
		return fmt.Errorf("gowali: WithStrict requires a WALI-backed host")
	}
	if c.hook != nil {
		return fmt.Errorf("gowali: WithSyscallHook requires a WALI-backed host")
	}
	if len(c.mounts) > 0 {
		return fmt.Errorf("gowali: WithMount requires a WALI-backed host (the WAZI board has a flat flash filesystem; preload it with InstallBoardFile)")
	}
	if c.net != nil {
		return fmt.Errorf("gowali: WithNet requires a WALI-backed host (the WAZI board has no socket surface)")
	}
	if c.sched != nil {
		return fmt.Errorf("gowali: WithScheduler requires a WALI-backed host")
	}
	if c.budget != nil {
		return fmt.Errorf("gowali: WithBudget requires a WALI-backed host")
	}
	if c.tracer != nil || c.metrics != nil || c.straceW != nil {
		return fmt.Errorf("gowali: WithTracer/WithMetrics/WithStrace require a WALI-backed host (the WAZI board has no syscall plane)")
	}
	w := wazi.New()
	w.Scheme = c.scheme
	w.Tier = c.tier
	r.wazi = w
	return nil
}

// WALIHost exposes the WebAssembly Linux Interface: the ~150-call Linux
// userspace syscall surface, the 1-to-1 process model (fork, execve,
// threads), virtual signals, mmap and the simulated kernel. This is the
// default host layer.
func WALIHost() Host { return &waliHost{} }

// WASIHost exposes WASI preview1, implemented as a layer over WALI
// (Fig. 6): every WASI call bottoms out in WALI kernel-interface calls on
// the same engine, so syscall hooks observe the decomposition. Preopens
// grant directory capabilities; default is the filesystem root.
func WASIHost(preopens ...Preopen) Host {
	return &waliHost{wasi: true, preopens: preopens}
}

// WAZIHost exposes WAZI, the thin kernel interface for Zephyr RTOS
// (§5.1), over a simulated board. Process-model options (WithKernel,
// WithStrict, WithSyscallHook, WithStdio) do not apply.
func WAZIHost() Host { return waziHost{} }

// Runtime is an embedded gowali engine: one host layer over one kernel,
// spawning any number of processes. Create with New; it is safe for
// concurrent use.
type Runtime struct {
	host Host

	wali *core.WALI // WALI-backed hosts
	wazi *wazi.WAZI // WAZI host

	stderrPath string // device path for redirected fd 2, "" if none

	// msrv is the ServeMetrics HTTP server, stopped by Close.
	msrvMu sync.Mutex
	msrv   *obs.MetricsServer
}

// New builds a runtime from functional options. With no options it is a
// WALI runtime over a freshly booted kernel with loop-head safepoints —
// the paper's default configuration.
func New(opts ...Option) (*Runtime, error) {
	c := &config{scheme: SafepointLoop, host: WALIHost()}
	for _, o := range opts {
		o(c)
	}
	r := &Runtime{host: c.host}
	if err := c.host.apply(r, c); err != nil {
		return nil, err
	}
	return r, nil
}

// Host returns the runtime's host layer.
func (r *Runtime) Host() Host { return r.host }

// Kernel returns the simulated Linux kernel behind a WALI-backed host
// (filesystem, process table, devices), or nil for WAZI.
func (r *Runtime) Kernel() *Kernel {
	if r.wali == nil {
		return nil
	}
	return r.wali.Kernel
}

// Board describes the simulated Zephyr board of a WAZI runtime ("" for
// WALI-backed hosts).
func (r *Runtime) Board() string {
	if r.wazi == nil {
		return ""
	}
	return r.wazi.Z.String()
}

// ConsoleOutput returns everything guests wrote to the console so far
// (the WAZI board console for WAZIHost runtimes).
func (r *Runtime) ConsoleOutput() []byte {
	if r.wazi != nil {
		return r.wazi.Z.ConsoleOutput()
	}
	return r.wali.Kernel.Console.Output()
}

// WaitAll blocks until every process spawned through this runtime has
// finished.
func (r *Runtime) WaitAll() {
	if r.wali != nil {
		r.wali.WaitAll()
	}
}

// Close shuts the runtime's kernel down: its network backends release
// their listeners, queues and (for switch-fabric nodes) the node
// address, so a shared Switch can reuse it; the metrics HTTP server
// (ServeMetrics) stops and the kernel's metric collectors unregister.
// Idempotent. Callers sharing one kernel across runtimes (WithKernel)
// should Close only once, when the kernel is done for good.
func (r *Runtime) Close() error {
	r.msrvMu.Lock()
	msrv := r.msrv
	r.msrv = nil
	r.msrvMu.Unlock()
	msrv.Close()
	if r.wali != nil {
		r.wali.Kernel.Shutdown()
	}
	return nil
}

// Mount grafts a filesystem backend at guestPath on a live runtime
// (the boot-time form is WithMount). WALI-backed hosts only.
func (r *Runtime) Mount(guestPath string, b Backend, opts ...MountOption) error {
	if r.wali == nil {
		return fmt.Errorf("gowali: Mount requires a WALI-backed host")
	}
	var mo vfs.MountOptions
	for _, o := range opts {
		o(&mo)
	}
	return mountOn(r.wali.Kernel, guestPath, b, mo)
}

// Unmount detaches the mount at guestPath. Guests holding files open
// on it keep using the old backend (lazy unmount); fresh path lookups
// see the underlying directory.
func (r *Runtime) Unmount(guestPath string) error {
	if r.wali == nil {
		return fmt.Errorf("gowali: Unmount requires a WALI-backed host")
	}
	if errno := r.wali.Kernel.FS.Unmount(guestPath); errno != 0 {
		return fmt.Errorf("gowali: unmount %s: %v", guestPath, errno)
	}
	return nil
}

// Mounts lists the runtime kernel's mount table (nil for WAZI).
func (r *Runtime) Mounts() []MountInfo {
	if r.wali == nil {
		return nil
	}
	return r.wali.Kernel.FS.Mounts()
}

// InstallBoardFile preloads a file into a WAZI runtime's flat flash
// filesystem (the board analogue of a mount: wazi-run's -dir flag maps
// a host directory in with it). WAZI hosts only.
func (r *Runtime) InstallBoardFile(name string, data []byte) error {
	if r.wazi == nil {
		return fmt.Errorf("gowali: InstallBoardFile requires the WAZI host")
	}
	r.wazi.Z.PreloadFile(name, data)
	return nil
}

// BoardFiles snapshots a WAZI runtime's flash filesystem (name →
// contents), e.g. to write guest output back to the host after a run.
// Nil for WALI-backed hosts.
func (r *Runtime) BoardFiles() map[string][]byte {
	if r.wazi == nil {
		return nil
	}
	return r.wazi.Z.FileSnapshot()
}

// InstallBinary writes a compiled module into the kernel VFS as an
// executable .wasm file, the execve deployment mode (§4.1). WALI-backed
// hosts only.
func (r *Runtime) InstallBinary(path string, m *Module) error {
	if r.wali == nil {
		return fmt.Errorf("gowali: InstallBinary requires a WALI-backed host")
	}
	return r.wali.InstallBinary(path, m.compiled.Module)
}

// SyscallStats reports accumulated syscall handler time and count for a
// process (Fig. 7 attribution). WALI-backed hosts only. The count is
// always exact. The time covers only the calls made while something was
// consuming syscall durations — WithSyscallHook, WithMetrics, an enabled
// tracer or WithStrace — because the dispatch path reads no clock
// otherwise; on a runtime built with none of them it stays zero.
func (r *Runtime) SyscallStats(pid int32) (time.Duration, uint64) {
	if r.wali == nil {
		return 0, 0
	}
	return r.wali.SyscallStats(pid)
}

// SchedStats snapshots the guest scheduler's activity counters, or the
// zero Stats when the runtime was built without WithScheduler.
func (r *Runtime) SchedStats() SchedStats {
	if r.wali == nil || r.wali.Sched == nil {
		return SchedStats{}
	}
	return r.wali.Sched.Stats()
}

// Apps returns the names of the built-in ported applications (the
// runnable subset of the paper's Table 1 suite).
func Apps() []string {
	var out []string
	for _, a := range apps.Runnable() {
		out = append(out, a.Name)
	}
	return out
}

// RunApp builds, installs and executes a built-in ported application at
// the given workload scale on this runtime, returning its exit status.
// WALI-backed hosts only; runs synchronously.
func (r *Runtime) RunApp(name string, scale int) (int32, error) {
	if r.wali == nil {
		return -1, fmt.Errorf("gowali: RunApp requires a WALI-backed host")
	}
	a, err := apps.ByName(name)
	if err != nil {
		return -1, err
	}
	_, status, err := apps.RunOn(r.wali, a, scale)
	return status, err
}
