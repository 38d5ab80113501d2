package kernel

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gowali/internal/kernel/net"
	"gowali/internal/kernel/vfs"
	"gowali/internal/linux"
	"gowali/internal/obs"
)

// netBackendBox wraps the AF_INET backend for atomic replacement
// (SetNetBackend races only against socket creation, never teardown).
type netBackendBox struct{ b net.Backend }

// Kernel is the simulated Linux kernel: a filesystem, a process table,
// futexes, sockets and clocks. One Kernel corresponds to one booted
// machine; WALI engines attach processes to it.
//
// There is no kernel-wide lock. Each subsystem carries its own: the PID
// table is a read-mostly RWMutex map, futexes hash into independent
// shard locks, the TCP-port and unix-socket registries are separate
// mutexes, and wait4 sleeps on a per-process queue (Process.childQ), so
// activity in one subsystem — or one guest — never serializes another.
type Kernel struct {
	FS *vfs.FS
	// procDir is the /proc directory, held so per-process entries are
	// made and removed under it without a path walk.
	procDir *vfs.Inode

	// PID table: read-mostly (every Process() lookup), written only on
	// process create/reap.
	pidMu   sync.RWMutex
	procs   map[int32]*Process
	nextPID atomic.Int32

	futexes [futexShardCount]futexShard

	// inet is the pluggable AF_INET network stack (loopback by
	// default; a switch node or host passthrough via SetNetBackend).
	// unixNet is the kernel-private loopback serving AF_UNIX: unix
	// addresses are per-machine names, whatever fabric inet joins.
	inet    atomic.Pointer[netBackendBox]
	unixNet net.Backend

	bootWall time.Time
	bootMono time.Time

	hostname string

	// Entropy: a fixed set of deterministic streams, each behind its own
	// lock, selected round-robin. Concurrent /dev/urandom readers spread
	// across stripes instead of serializing on one RNG, and the streams
	// are persistent (boot-seeded, never recreated), so a single-reader
	// run draws an identical byte sequence on every boot.
	rngStripes [rngStripeCount]rngStripe
	rngNext    atomic.Uint64

	// Console collects writes to the controlling tty; ConsoleIn feeds
	// reads. Tests and examples inspect Console output.
	Console  *ConsoleDevice
	totalRAM uint64

	// Observability (SetObs): obsReg remembers the registry so Shutdown
	// can unregister the gauge funcs listed in obsGauges; obsID labels
	// this kernel's metrics when several kernels share one registry.
	obsMu     sync.Mutex
	obsReg    *obs.Registry
	obsGauges []string
	obsID     int32
}

// kernelSeq numbers kernels process-wide so per-kernel metric labels
// ({kernel="k1"}, {kernel="k2"}, …) stay distinct when a fleet of
// kernels reports into one shared registry.
var kernelSeq atomic.Int32

// rngSeedBase seeds the simulated entropy pool ("WLAI"), fixed at boot
// for reproducible experiments.
const rngSeedBase = 0x574C4149

// rngStripeCount is the number of independent entropy streams.
const rngStripeCount = 8

type rngStripe struct {
	mu  sync.Mutex
	rng *rand.Rand
	_   [48]byte // round the 16-byte payload up to a full cache line
}

// NewKernel boots a simulated kernel: root filesystem with the standard
// hierarchy, /dev nodes, /proc skeleton and an init-less process table.
func NewKernel() *Kernel {
	k := &Kernel{
		procs:    make(map[int32]*Process),
		bootWall: time.Now(),
		bootMono: time.Now(),
		hostname: "gowali",
		totalRAM: 512 << 20,
	}
	k.inet.Store(&netBackendBox{b: net.NewLoopback()})
	k.unixNet = net.NewLoopback()
	for i := range k.rngStripes {
		k.rngStripes[i].rng = rand.New(rand.NewSource(rngSeedBase + int64(i)))
	}
	k.FS = vfs.New(k.Realtime)

	for _, d := range []string{"/bin", "/dev", "/etc", "/home", "/tmp", "/usr", "/var"} {
		k.FS.MkdirAll(d, 0o755)
	}
	k.procDir = k.FS.MkdirAll("/proc", 0o755)

	k.Console = NewConsoleDevice()
	k.mkdev("/dev/console", k.Console)
	k.mkdev("/dev/tty", k.Console)
	k.mkdev("/dev/null", nullDevice{})
	k.mkdev("/dev/zero", zeroDevice{})
	k.mkdev("/dev/random", &randomDevice{k: k})
	k.mkdev("/dev/urandom", &randomDevice{k: k})

	k.FS.WriteFile("/etc/hostname", []byte(k.hostname+"\n"), 0o644)
	k.FS.WriteFile("/etc/passwd", []byte("root:x:0:0:root:/root:/bin/sh\n"), 0o644)

	return k
}

func (k *Kernel) mkdev(path string, ops vfs.DeviceOps) {
	k.FS.Mknod("/", path, linux.S_IFCHR|0o666, 0, 0, ops)
}

// Mkdev installs a character device node at path. The embedding facade
// uses it to expose host stream devices (stdio redirection) inside the
// simulated filesystem.
func (k *Kernel) Mkdev(path string, ops vfs.DeviceOps) { k.mkdev(path, ops) }

// NetBackend returns the AF_INET network stack.
func (k *Kernel) NetBackend() net.Backend { return k.inet.Load().b }

// SetNetBackend replaces the AF_INET network stack (loopback by
// default): a switch node connects this kernel to a cross-kernel
// fabric, a HostNet passes through to real host sockets. Existing
// sockets keep the backend they were created over; call before
// spawning guests. AF_UNIX sockets are unaffected.
func (k *Kernel) SetNetBackend(b net.Backend) {
	if b == nil {
		b = net.NewLoopback()
	}
	k.inet.Store(&netBackendBox{b: b})
}

// SetObs attaches the observability plane: registers per-kernel gauge
// funcs on reg and forwards the plane to the network backend when it
// supports it (switch nodes do; loopback and HostNet ignore it). Call
// after SetNetBackend and before bridging, so trunk links created
// later resolve their instruments. Shutdown unregisters everything.
func (k *Kernel) SetObs(tr *obs.Tracer, reg *obs.Registry) {
	k.obsMu.Lock()
	if k.obsID == 0 {
		k.obsID = kernelSeq.Add(1)
	}
	k.obsReg = reg
	if reg != nil {
		name := fmt.Sprintf("wali_kernel_processes{kernel=\"k%d\"}", k.obsID)
		reg.RegisterGaugeFunc(name, func() int64 { return int64(k.ProcessCount()) })
		k.obsGauges = append(k.obsGauges, name)
	}
	k.obsMu.Unlock()
	if o, ok := k.NetBackend().(interface {
		SetObs(*obs.Tracer, *obs.Registry)
	}); ok {
		o.SetObs(tr, reg)
	}
}

// Shutdown detaches the kernel from its network fabrics: the AF_INET
// backend and the private AF_UNIX loopback release their listeners,
// queues and (for switch nodes) the node address, so a fabric outlives
// its kernels with no address leaks. It also unregisters this kernel's
// metric collectors, so a shared registry never samples a dead kernel.
// Idempotent; existing sockets drain through the kernel's fd tables as
// their processes exit.
func (k *Kernel) Shutdown() {
	k.obsMu.Lock()
	for _, name := range k.obsGauges {
		k.obsReg.UnregisterGaugeFunc(name)
	}
	k.obsGauges = nil
	k.obsMu.Unlock()
	k.NetBackend().Close()
	k.unixNet.Close()
}

// allocPID hands out the next process id.
func (k *Kernel) allocPID() int32 { return k.nextPID.Add(1) }

// addProc publishes a process in the PID table.
func (k *Kernel) addProc(p *Process) {
	k.pidMu.Lock()
	k.procs[p.PID] = p
	k.pidMu.Unlock()
}

// delProc removes a PID from the table.
func (k *Kernel) delProc(pid int32) {
	k.pidMu.Lock()
	delete(k.procs, pid)
	k.pidMu.Unlock()
}

// Monotonic returns CLOCK_MONOTONIC since boot.
func (k *Kernel) Monotonic() linux.Timespec {
	return linux.TimespecFromNanos(time.Since(k.bootMono).Nanoseconds())
}

// Realtime returns CLOCK_REALTIME.
func (k *Kernel) Realtime() linux.Timespec {
	return linux.TimespecFromNanos(time.Now().UnixNano())
}

// ClockGettime implements clock_gettime for the supported clock IDs.
func (k *Kernel) ClockGettime(clockid int32) (linux.Timespec, linux.Errno) {
	switch clockid {
	case linux.CLOCK_REALTIME:
		return k.Realtime(), 0
	case linux.CLOCK_MONOTONIC, linux.CLOCK_MONOTONIC_RAW, linux.CLOCK_BOOTTIME,
		linux.CLOCK_PROCESS_CPUTIME_ID, linux.CLOCK_THREAD_CPUTIME_ID:
		return k.Monotonic(), 0
	}
	return linux.Timespec{}, linux.EINVAL
}

// Nanosleep suspends the calling task for d: a sleep with a deadline
// and nothing to wait for. A deliverable signal or a quiesce request
// ends it early with EINTR and the time left, as Linux does; a sleep
// that runs to completion returns a zero remainder.
func (p *Process) Nanosleep(d linux.Timespec) (linux.Timespec, linux.Errno) {
	if d.Sec < 0 || d.Nsec < 0 || d.Nsec >= 1e9 {
		return linux.Timespec{}, linux.EINVAL
	}
	if d.Nanos() == 0 {
		return linux.Timespec{}, 0
	}
	deadline := time.Now().Add(time.Duration(d.Nanos()))
	errno := p.sleep(nil, deadline, func() linux.Errno { return linux.EAGAIN })
	if errno == linux.ETIMEDOUT {
		return linux.Timespec{}, 0
	}
	rem := time.Until(deadline)
	if rem < 0 {
		rem = 0
	}
	return linux.TimespecFromNanos(rem.Nanoseconds()), errno
}

// GetRandom fills b with deterministic pseudo-random bytes. Calls
// rotate through the entropy stripes, so concurrent guests draining
// /dev/urandom spread across independent persistent generators instead
// of serializing on one.
func (k *Kernel) GetRandom(b []byte) int {
	s := &k.rngStripes[k.rngNext.Add(1)%rngStripeCount]
	s.mu.Lock()
	for i := range b {
		b[i] = byte(s.rng.Intn(256))
	}
	s.mu.Unlock()
	return len(b)
}

// Uname reports the simulated system identity. Machine is reported as
// "wasm32" — the whole point of the exercise.
func (k *Kernel) Uname() linux.Utsname {
	return linux.Utsname{
		Sysname:  "Linux",
		Nodename: k.hostname,
		Release:  "6.1.0-gowali",
		Version:  "#1 SMP gowali simulated kernel",
		Machine:  "wasm32",
	}
}

// Sysinfo reports memory and process accounting.
func (k *Kernel) Sysinfo() linux.Sysinfo {
	k.pidMu.RLock()
	n := len(k.procs)
	k.pidMu.RUnlock()
	return linux.Sysinfo{
		Uptime:   k.Monotonic().Sec,
		TotalRAM: k.totalRAM,
		FreeRAM:  k.totalRAM / 2,
		Procs:    uint16(n),
		MemUnit:  1,
	}
}

// Hostname returns the node name.
func (k *Kernel) Hostname() string { return k.hostname }

// ProcessCount returns the number of live processes (threads included).
func (k *Kernel) ProcessCount() int {
	k.pidMu.RLock()
	defer k.pidMu.RUnlock()
	return len(k.procs)
}

// Process looks up a process by PID. Read-mostly: concurrent lookups
// share the table lock.
func (k *Kernel) Process(pid int32) (*Process, bool) {
	k.pidMu.RLock()
	defer k.pidMu.RUnlock()
	p, ok := k.procs[pid]
	return p, ok
}

// registerProcSynthetic creates the /proc/<pid> tree for p: the directory
// and its three files are entered directly under the held /proc inode and
// the new directory's own, with no path to build or resolve (a mount laid
// over /proc would therefore cover them).
func (k *Kernel) registerProcSynthetic(p *Process) {
	dir, errno := k.FS.CreateAt(k.procDir, strconv.Itoa(int(p.PID)), linux.S_IFDIR|0o555, 0, 0, false)
	if errno != 0 {
		return
	}
	p.procDir = dir
	if status, _ := k.FS.CreateAt(dir, "status", linux.S_IFREG|0o444, 0, 0, false); status != nil {
		k.FS.SetGenerator(status, func() []byte {
			return []byte(fmt.Sprintf("Name:\t%s\nPid:\t%d\nPPid:\t%d\nTgid:\t%d\nUid:\t%d\nGid:\t%d\n",
				p.Comm(), p.PID, p.Getppid(), p.TGID, p.uid(), p.gid()))
		})
	}
	if cmdline, _ := k.FS.CreateAt(dir, "cmdline", linux.S_IFREG|0o444, 0, 0, false); cmdline != nil {
		k.FS.SetGenerator(cmdline, func() []byte {
			var out []byte
			for _, a := range p.Argv() {
				out = append(out, a...)
				out = append(out, 0)
			}
			return out
		})
	}
	// /proc/<pid>/mem exists so the WALI-layer interposition (a §3.6
	// security pitfall) has a real target to deny.
	k.FS.CreateAt(dir, "mem", linux.S_IFREG|0o600, 0, 0, false)
}

func (k *Kernel) unregisterProcSynthetic(p *Process) {
	if p.procDir == nil {
		return
	}
	for _, name := range [...]string{"status", "cmdline", "mem"} {
		k.FS.UnlinkAt(p.procDir, name, false)
	}
	k.FS.UnlinkAt(k.procDir, strconv.Itoa(int(p.PID)), true)
}
