package gowali

import (
	"gowali/internal/bench"
	"gowali/internal/core"
	"gowali/internal/interp"
	"gowali/internal/kernel"
	knet "gowali/internal/kernel/net"
	"gowali/internal/kernel/sched"
	"gowali/internal/kernel/vfs"
	"gowali/internal/wasi"
	"gowali/internal/wasm"
	"gowali/internal/wazi"
)

// The embedding facade re-exports the supported types of the engine so
// that embedders — including this repository's cmd/ tools and examples —
// never import gowali/internal/... directly. Everything below is public
// API; everything else under internal/ may change freely.

// Trap is a WebAssembly trap, returned as the error from Wait when guest
// execution faults. Stack holds the guest backtrace, innermost frame
// first.
type Trap = interp.Trap

// TrapCode classifies a Trap.
type TrapCode = interp.TrapCode

// Exit reports guest-initiated termination (exit_group); Wait converts
// it to a plain status, so embedders rarely see it directly.
type Exit = interp.Exit

// SafepointScheme selects where the engine polls for asynchronous events
// (Table 3 compares the cost of the choices).
type SafepointScheme = interp.SafepointScheme

// Safepoint schemes, from never to every instruction.
const (
	SafepointNone      = interp.SafepointNone
	SafepointLoop      = interp.SafepointLoop
	SafepointFunc      = interp.SafepointFunc
	SafepointEveryInst = interp.SafepointEveryInst
)

// ExecTier selects the execution engine; see WithExecTier.
type ExecTier = interp.ExecTier

// Execution tiers, fastest first.
const (
	TierFused = interp.TierFused
	TierIR    = interp.TierIR
	TierWire  = interp.TierWire
)

// ParseTier parses a -tier flag value ("fused", "ir" or "wire").
func ParseTier(s string) (ExecTier, error) { return interp.ParseTier(s) }

// SyscallEvent is one observed syscall; see WithSyscallHook.
type SyscallEvent = core.SyscallEvent

// Budget caps a tenant's resources; see WithBudget. The zero value is
// unlimited: each field enforces only when set.
type Budget = sched.Budget

// SchedStats is a snapshot of scheduler activity counters; see
// Runtime.SchedStats.
type SchedStats = sched.Stats

// Scheduling priorities for Budget.Priority. The zero value is
// PriorityNormal.
const (
	PriorityNormal = sched.PrioNormal
	PriorityHigh   = sched.PrioHigh
	PriorityLow    = sched.PrioLow
)

// Kernel is the simulated Linux kernel a WALI-backed runtime executes
// over: VFS, process table, devices, futexes, signals. Obtain a
// runtime's kernel with Runtime.Kernel, or boot one with NewKernel to
// share across runtimes via WithKernel.
type Kernel = kernel.Kernel

// NewKernel boots a fresh simulated kernel.
func NewKernel() *Kernel { return kernel.NewKernel() }

// Preopen grants a WASI directory capability: the guest path maps onto
// the given path in the runtime's kernel filesystem.
type Preopen = wasi.Preopen

// Backend is a mountable filesystem implementation; see WithMount.
// Three ship with the runtime — NewMemFS, NewHostFS and NewOverlayFS —
// and embedders can mount their own implementations of the interface.
type Backend = vfs.Backend

// BackendCaps reports a backend's capability flags (read-only, stable
// inode identity, statfs magic).
type BackendCaps = vfs.Caps

// BackendNodeInfo describes one node of a backend (the backend half of
// a stat), for embedders implementing their own Backend.
type BackendNodeInfo = vfs.NodeInfo

// BackendDirEntry is one directory entry a Backend lists.
type BackendDirEntry = vfs.DirEntry

// MountInfo is one row of Runtime.Mounts.
type MountInfo = vfs.MountInfo

// NewMemFS creates an empty in-memory filesystem backend — a private
// scratch tmpfs when mounted (the kernel's root filesystem is the same
// implementation).
func NewMemFS() Backend { return vfs.NewMemFS(nil) }

// NewHostFS opens a host directory as a mountable backend: guests read
// and write real host files under it, contained by os.Root (symlink
// escapes are rejected by the host kernel). With readOnly set every
// mutation fails with EROFS.
func NewHostFS(hostDir string, readOnly bool) (Backend, error) {
	return vfs.NewHostFS(hostDir, readOnly)
}

// NewOverlayFS stacks copy-up writes over a read-only view of lower:
// reads fall through to lower until a path is first written, deletes
// are recorded as whiteouts, and lower is never mutated. Writes land
// in a fresh in-memory upper layer; use NewOverlayFSOn to supply a
// persistent one. The container idiom: a fleet of guests sharing one
// read-only hostfs image, each with private scratch state on top.
func NewOverlayFS(lower Backend) Backend { return vfs.NewOverlayFS(lower, nil) }

// NewOverlayFSOn is NewOverlayFS with an explicit writable upper
// backend (e.g. a hostfs directory that persists the deltas).
func NewOverlayFSOn(lower, upper Backend) Backend { return vfs.NewOverlayFS(lower, upper) }

// NetBackend is a pluggable network stack serving a runtime kernel's
// AF_INET sockets; see WithNet. Three ship: the default in-kernel
// loopback (NewLoopbackNet), host-socket passthrough (NewHostNet) and
// cross-kernel virtual switch nodes (NewSwitch + Switch.Node).
type NetBackend = knet.Backend

// NetAddr is the kernel-native socket address a NetBackend routes.
type NetAddr = knet.Addr

// HostNet passes guest sockets through to real host TCP/UDP sockets
// under an explicit policy; see WithNet and HostNetConfig.
type HostNet = knet.HostNet

// HostNetConfig is a HostNet's bind-map and outbound allowlist. An
// empty config denies everything.
type HostNetConfig = knet.HostNetConfig

// NewHostNet builds a host-passthrough network backend. A guest
// `bind 0.0.0.0:p; listen` becomes a real host listener at Binds[p]
// (query the resolved address with HostNet.BoundAddr); outbound
// connects must match the Allow patterns.
func NewHostNet(cfg HostNetConfig) *HostNet { return knet.NewHostNet(cfg) }

// Switch is a virtual L4 switch connecting multiple runtime kernels in
// one process; each kernel attaches as a node with its own IPv4
// address and guests exchange stream and datagram traffic across
// kernels. Switches also bridge into a distributed fabric spanning
// processes and hosts: declare local subnets with Switch.SetSubnets,
// then trunk over real TCP with Switch.BridgeListen/BridgeDial —
// destinations outside the process route through the trunk by
// longest-prefix match, relaying across intermediate switches. See
// WithNet and WithNetFlags.
type Switch = knet.Switch

// NewSwitch builds an empty switch fabric; attach runtimes with
// Switch.Node or Switch.AllocNode:
//
//	sw := gowali.NewSwitch()
//	nodeA, _ := sw.Node("10.0.0.1")
//	rtA, _ := gowali.New(gowali.WithNet(nodeA))
func NewSwitch() *Switch { return knet.NewSwitch() }

// BridgeServer is a switch's trunk endpoint (Switch.BridgeListen):
// remote switches join the fabric by dialing its Addr.
type BridgeServer = knet.BridgeServer

// BridgeLink is one dialed trunk (Switch.BridgeDial); closing it
// resets every stream crossing that link.
type BridgeLink = knet.Bridge

// NetPrefix is an IPv4 CIDR block — the unit of fabric address
// assignment (Switch.SetSubnets) and routing announcements.
type NetPrefix = knet.Prefix

// ParseCIDR parses "10.0.1.0/24" (or a bare IP as a /32 host route).
func ParseCIDR(s string) (NetPrefix, error) { return knet.ParseCIDR(s) }

// NewLoopbackNet returns a fresh in-kernel loopback network — the
// default AF_INET backend every kernel boots with (useful to restore
// after a WithKernel-shared kernel had a different backend).
func NewLoopbackNet() NetBackend { return knet.NewLoopback() }

// Collector accumulates syscall profiles from a run; install its Observe
// method with WithSyscallHook.
type Collector = bench.Collector

// NewCollector returns an empty syscall collector.
func NewCollector() *Collector { return bench.NewCollector() }

// StartExport is the entry-point export every guest module provides.
const StartExport = core.StartExport

// Import namespaces of the three shipped host layers.
const (
	WALINamespace = core.Namespace
	WASINamespace = wasi.Namespace
	WAZINamespace = wazi.Namespace
)

// WASI open flags and rights used when hand-building WASI modules with
// the gowali/wasm builder (subset; toolchain-built modules carry their
// own).
const (
	WASIOflagCreat   = wasi.OflagCreat
	WASIRightFdRead  = wasi.RightFdRead
	WASIRightFdWrite = wasi.RightFdWrite
)

// ImportWALISyscall declares the WALI import for a syscall on a module
// builder, returning the function index to Call.
func ImportWALISyscall(b *wasm.Builder, name string) uint32 {
	return core.ImportSyscall(b, name)
}

// ImportWAZISyscall declares the WAZI import for a Zephyr syscall on a
// module builder.
func ImportWAZISyscall(b *wasm.Builder, name string) uint32 {
	return wazi.ImportSyscall(b, name)
}

// WAZIPassthroughRatio reports the fraction of WAZI host bindings
// auto-generated from Zephyr's syscall encoding (§5.1: ">85%").
func WAZIPassthroughRatio() float64 { return wazi.PassthroughRatio() }
