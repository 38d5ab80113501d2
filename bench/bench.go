// Package bench is the public evaluation surface of the gowali embedding
// API: the tables and figures of the paper's §2/§4 evaluation
// (cmd/benchvirt and cmd/syscall-prof print them). It re-exports the
// supported harness entry points so the tools never import
// gowali/internal/... directly.
package bench

import (
	"time"

	"gowali"
	ib "gowali/internal/bench"
)

// Row and point types of the rendered artifacts.
type (
	Table1Row  = ib.Table1Row
	Table2Row  = ib.Table2Row
	Table3Row  = ib.Table3Row
	Fig8Point  = ib.Fig8Point
	Fig8MemRow = ib.Fig8MemRow
	Fig9Point  = ib.Fig9Point
	FSMicroRow = ib.FSMicroRow
	NetEchoRow = ib.NetEchoRow
	FleetRow   = ib.FleetRow
	SnapRow    = ib.SnapRow
	OpProfile  = ib.OpProfile
	OpTierRow  = ib.OpTierRow
	Report     = ib.Report

	TrafficRow      = ib.TrafficRow
	BackpressureRow = ib.BackpressureRow
	FabricReport    = ib.FabricReport

	SyscallLatencyRow = ib.SyscallLatencyRow
)

// MetricsSnapshot is the obs-plane snapshot embedded in Report.Metrics.
type MetricsSnapshot = gowali.MetricsSnapshot

// EnableObs arms a shared metrics registry — and, when withTrace is
// set, an event tracer — for every engine, kernel, scheduler and
// switch built by subsequent harness runs. benchvirt -json calls it so
// reports carry latency histograms; leave it off for overhead-free
// measurement runs.
func EnableObs(withTrace bool) { ib.EnableObs(withTrace) }

// ObsSnapshot captures the accumulated obs metrics, or nil when obs is
// off. Assign it to Report.Metrics before writing.
func ObsSnapshot() *MetricsSnapshot { return ib.ObsSnapshot() }

// FormatMetrics renders a snapshot as a human-readable summary with a
// p50/p99/p999 latency table.
func FormatMetrics(s *MetricsSnapshot) string { return ib.FormatMetrics(s) }

// SyscallLatencyProfile runs the app suite and returns per-syscall
// handler-latency histograms sorted by call count (syscall-prof -lat).
func SyscallLatencyProfile() []SyscallLatencyRow { return ib.SyscallLatencyProfile() }

// FormatSyscallLatency renders the per-syscall latency table.
func FormatSyscallLatency(rows []SyscallLatencyRow) string { return ib.FormatSyscallLatency(rows) }

// ExecTier selects the execution engine every harness runs on; see
// gowali.WithExecTier for the tiers.
type ExecTier = gowali.ExecTier

// SetTier selects the execution engine for all subsequent harness runs
// (benchvirt's -tier flag). Default: the fused superinstruction tier.
func SetTier(t ExecTier) { ib.SetTier(t) }

// Tier reports the currently selected execution engine.
func Tier() ExecTier { return ib.Tier() }

// ParseTier parses a -tier flag value ("fused", "ir" or "wire").
func ParseTier(s string) (ExecTier, error) { return gowali.ParseTier(s) }

// FleetConfig parameterizes a fleet run: the guest class mix (CPU
// spinners, syscall loops, poll-blocked echo pairs), the scheduler's
// worker count and quantum, and the measurement window.
type FleetConfig = ib.FleetConfig

// ScaleoutConfig parameterizes Fig9ScaleoutCfg's filesystem backing:
// a host directory mounted read-write for guest working files, and a
// shared read-only hostfs image every guest re-reads each iteration.
type ScaleoutConfig = ib.ScaleoutConfig

// Profile is one Fig. 2 row: an application and its syscall counts.
type Profile = ib.Profile

// Breakdown is one Fig. 7 bar: runtime split across the system stack.
type Breakdown = ib.Breakdown

// Fig8Apps are the apps compared across virtualization backends.
var Fig8Apps = ib.Fig8Apps

// Table1 reports the porting matrix (Table 1).
func Table1() []Table1Row { return ib.Table1() }

// FormatTable1 renders Table 1.
func FormatTable1(rows []Table1Row) string { return ib.FormatTable1(rows) }

// Table2 measures per-syscall WALI overheads (Table 2).
func Table2(iters int) []Table2Row { return ib.Table2(iters) }

// FormatTable2 renders Table 2.
func FormatTable2(rows []Table2Row) string { return ib.FormatTable2(rows) }

// CalibrateDispatch measures the WALI-intrinsic per-call dispatch cost.
func CalibrateDispatch(iters int) time.Duration { return ib.CalibrateDispatch(iters) }

// Table3 measures safepoint polling cost per scheme (Table 3).
func Table3() []Table3Row { return ib.Table3() }

// FormatTable3 renders Table 3.
func FormatTable3(rows []Table3Row) string { return ib.FormatTable3(rows) }

// Fig2Profiles collects the syscall profile of every runnable app.
func Fig2Profiles() []Profile { return ib.Fig2Profiles() }

// FormatFig2 renders the Fig. 2 heat map.
func FormatFig2(profiles []Profile) string { return ib.FormatFig2(profiles) }

// FormatFig3 renders the Fig. 3 ISA-commonality analysis.
func FormatFig3() string { return ib.FormatFig3() }

// Fig7 computes the runtime breakdown across the app suite (Fig. 7).
func Fig7() []Breakdown { return ib.Fig7() }

// FormatFig7 renders Fig. 7.
func FormatFig7(rows []Breakdown) string { return ib.FormatFig7(rows) }

// Fig8Time measures startup+run time across backends (Fig. 8b-d).
func Fig8Time(name string, scales []int) []Fig8Point { return ib.Fig8Time(name, scales) }

// FormatFig8 renders a Fig. 8 time series.
func FormatFig8(pts []Fig8Point) string { return ib.FormatFig8(pts) }

// Fig8Mem measures peak memory across backends (Fig. 8a).
func Fig8Mem() []Fig8MemRow { return ib.Fig8Mem() }

// FormatFig8Mem renders Fig. 8a.
func FormatFig8Mem(rows []Fig8MemRow) string { return ib.FormatFig8Mem(rows) }

// Fig9Scaleout measures aggregate syscall throughput for N concurrent
// cached-module guests on one kernel (the scale-out curve). A nil or
// empty guests slice uses DefaultScaleoutGuests.
func Fig9Scaleout(iters int, guests []int) []Fig9Point { return ib.Fig9Scaleout(iters, guests) }

// DefaultScaleoutGuests returns the standard guest counts for the
// scale-out curve: powers of two through 4×NumCPU.
func DefaultScaleoutGuests() []int { return ib.DefaultScaleoutGuests() }

// Fig9ScaleoutCfg is Fig9Scaleout with configurable filesystem backing
// (hostfs-backed working files, shared read-only image).
func Fig9ScaleoutCfg(cfg ScaleoutConfig) []Fig9Point { return ib.Fig9ScaleoutCfg(cfg) }

// FormatFig9 renders the scale-out curve.
func FormatFig9(pts []Fig9Point) string { return ib.FormatFig9(pts) }

// NetEcho measures socket round-trip latency and throughput through
// the netstack backends: a poll-driven guest echo server against a
// client sending msgs size-byte messages. backends selects rows from
// "loopback" (one kernel), "switch" (two kernels over a virtual
// switch) and "host" (a real host TCP client through HostNet); nil
// runs all three. Every read on both sides blocks in poll first, so
// RTT/2 bounds the poll wakeup latency.
func NetEcho(msgs, size int, backends []string) []NetEchoRow {
	return ib.NetEcho(msgs, size, backends)
}

// FormatNetEcho renders the echo table.
func FormatNetEcho(rows []NetEchoRow) string { return ib.FormatNetEcho(rows) }

// TrafficConfig parameterizes the distributed-fabric traffic runs:
// fabric size, per-flow bytes and the pattern subset.
type TrafficConfig = ib.TrafficConfig

// Traffic drives htsim-style traffic patterns (permutation, incast,
// all-to-all) between guest fleets on a distributed switch fabric:
// one single-kernel switch per node, each with its own subnet, joined
// over real localhost TCP trunks in a star, so cross-spoke flows
// relay through the hub. Every receiver exits nonzero on a lost byte;
// per-flow completion times give Jain's fairness index.
func Traffic(cfg TrafficConfig) []TrafficRow { return ib.Traffic(cfg) }

// FormatTraffic renders the traffic-pattern table.
func FormatTraffic(rows []TrafficRow) string { return ib.FormatTraffic(rows) }

// TrafficBackpressure measures the slow-receiver case: one flow
// across a two-switch trunk where the receiver drains at a fixed
// rate. Bounded buffering pins the sender to ≈ the drain rate
// (Stall ≈ 1); unbounded buffering would let it finish at trunk
// speed.
func TrafficBackpressure(bytes int, delay time.Duration) BackpressureRow {
	return ib.TrafficBackpressure(bytes, delay)
}

// FormatBackpressure renders the slow-receiver probe.
func FormatBackpressure(r BackpressureRow) string { return ib.FormatBackpressure(r) }

// FleetOnce runs one scheduler-fleet window at the current GOMAXPROCS:
// an adversarial mix of CPU spinners, syscall loops and poll-blocked
// echo pairs multiplexed onto the slot-token scheduler, reporting
// aggregate throughput, spinner fairness and in-guest round-trip
// latency (the starvation bound).
func FleetOnce(cfg FleetConfig) FleetRow { return ib.FleetOnce(cfg) }

// FleetSweep runs the fleet at each GOMAXPROCS value — the multicore
// scaling curve.
func FleetSweep(cfg FleetConfig, gomaxprocs []int) []FleetRow {
	return ib.FleetSweep(cfg, gomaxprocs)
}

// FormatFleet renders the fleet table.
func FormatFleet(rows []FleetRow) string { return ib.FormatFleet(rows) }

// SnapRestore runs the snapshot/restore benchmark: warm one guest,
// checkpoint it, restore it iters times sequentially (cold-start
// latency), then fan out forkN copy-on-write children from the image
// at once (fork rate, per-child heap vs a full memory copy, dirtied
// pages). Zero arguments pick the defaults (50 restores, 100 forks).
func SnapRestore(iters, forkN int) SnapRow { return ib.SnapRestore(iters, forkN) }

// FormatSnapRestore renders the snapshot/restore table.
func FormatSnapRestore(r SnapRow) string { return ib.FormatSnapRestore(r) }

// OpStatsProfile profiles a built-in app's dynamic opcode/sequence
// frequencies on the wire tier (the evidence base for superinstruction
// selection), then times the identical workload on every execution tier,
// reporting ns/instr and the fraction of instructions retired inside
// fused slots (coverage).
func OpStatsProfile(app string, scale int) OpProfile { return ib.OpStatsProfile(app, scale) }

// FormatOpProfile renders the opstats profile and per-tier cost table.
func FormatOpProfile(r OpProfile) string { return ib.FormatOpProfile(r) }

// NewReport creates an empty machine-readable benchmark report stamped
// with the environment; benchvirt -json fills and writes it.
func NewReport() *Report { return ib.NewReport() }

// FSMicro measures a guest open/pread64/close loop against the memfs,
// hostfs and overlayfs mount backends (hostDir backs the host-mapped
// rows).
func FSMicro(iters int, hostDir string) []FSMicroRow { return ib.FSMicro(iters, hostDir) }

// FormatFSMicro renders the backend micro-benchmark, memfs as baseline.
func FormatFSMicro(rows []FSMicroRow) string { return ib.FormatFSMicro(rows) }
