// Package obs is the runtime-wide observability plane: a lock-free
// sharded ring-buffer event tracer (exportable as Chrome trace-event
// JSON, Perfetto-loadable), a metrics registry of counters, gauges and
// log-bucketed latency histograms (p50/p99/p999 extraction), a
// Prometheus-text/JSON HTTP endpoint, and an strace-style syscall
// decoder.
//
// obs is a leaf package: it imports only the standard library plus the
// internal/linux constant tables, so every layer of the runtime —
// interpreter, kernel, scheduler, network fabric, snapshot engine,
// bench harnesses — can emit into it without import cycles. It sits
// below every lock in the system: no obs call takes a lock (tracer and
// metrics hot paths are atomics only), so emitting under the scheduler
// mutex or a link mutex is always safe.
//
// Overhead contract: every entry point is nil-receiver safe, and the
// disabled fast path is at most a couple of predictable branches plus
// one atomic load — attaching a disabled tracer to a runtime must not
// move serving numbers.
package obs

import (
	"sort"
	"sync/atomic"
	"time"
)

// Kind classifies one traced event.
type Kind uint8

// The event taxonomy, one constant per instrumented site.
const (
	// EvSyscall is one completed syscall: Name is the syscall, Dur the
	// wall latency of the handler, Arg1 the return value.
	EvSyscall Kind = iota
	// EvSchedRun: a task was granted a run slot; Arg1 is the run-queue
	// wait in nanoseconds.
	EvSchedRun
	// EvSchedPark: a preempted task released its slot at a safepoint;
	// Dur is the on-CPU slice it just finished.
	EvSchedPark
	// EvSchedPreempt: the preempt flag was raised on a running task
	// (sysmon tick, owner self-check or wake boost).
	EvSchedPreempt
	// EvSchedOverrun: a flagged task stayed off-safepoint past the
	// handoff delay and sysmon reclaimed its slot; Arg1 is nanoseconds
	// since the flag was raised.
	EvSchedOverrun
	// EvSchedBlock / EvSchedUnblock bracket a blocking syscall's
	// off-CPU region.
	EvSchedBlock
	EvSchedUnblock
	// EvNetFrameTx / EvNetFrameRx: one trunk frame sent/received; Name
	// is the link, Arg1 the frame length, Arg2 the frame type.
	EvNetFrameTx
	EvNetFrameRx
	// EvNetWindow: flow-control credit returned on a stream; Arg1 is
	// the credit, Arg2 the stream id.
	EvNetWindow
	// EvNetStall: a stream's tx pump blocked waiting for credit; Dur is
	// the stall, Arg2 the stream id.
	EvNetStall
	// EvSnapshot / EvRestore: one checkpoint / restore; Dur is the
	// end-to-end latency.
	EvSnapshot
	EvRestore
	// EvCowFault: a copy-on-write page materialized; Arg1 is the page
	// index.
	EvCowFault

	nKinds
)

var kindNames = [nKinds]string{
	"syscall", "sched_run", "sched_park", "sched_preempt", "sched_overrun",
	"sched_block", "sched_unblock", "net_frame_tx", "net_frame_rx",
	"net_window", "net_stall", "snapshot", "restore", "cow_fault",
}

// String returns the kind's wire name (also the trace-event name when
// an event carries no Name of its own).
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// category groups kinds into Chrome trace-event categories.
func (k Kind) category() string {
	switch {
	case k == EvSyscall:
		return "syscall"
	case k >= EvSchedRun && k <= EvSchedUnblock:
		return "sched"
	case k >= EvNetFrameTx && k <= EvNetStall:
		return "net"
	case k == EvSnapshot || k == EvRestore:
		return "snap"
	case k == EvCowFault:
		return "mem"
	}
	return "misc"
}

// Event is one traced occurrence. TS is nanoseconds on the tracer's
// clock (its creation is time zero); Dur is the event's wall duration
// (0 = instant event). PID attributes the event to a guest process
// (0 = the runtime itself: pumps, sysmon, demux loops). Arg1/Arg2
// carry kind-specific payload (see the Kind constants).
type Event struct {
	TS   int64
	Dur  int64
	Arg1 int64
	Arg2 int64
	Name string
	PID  int32
	Kind Kind
}

// Tracer buffer geometry. Shards keep concurrent emitters off each
// other's cache lines; each shard is a power-of-two ring of atomic
// event pointers, overwritten oldest-first when full — a bounded
// flight recorder, not an unbounded log.
const (
	traceShards     = 16
	defaultShardCap = 1 << 13 // 8192 events/shard, 128K total
)

type traceShard struct {
	pos  atomic.Uint64
	_    [56]byte // keep neighboring shards' write cursors apart
	ring []atomic.Pointer[Event]
}

// Tracer is the lock-free sharded ring-buffer event recorder. Emit is
// wait-free (one atomic ticket, one atomic pointer store) and safe
// from any goroutine; Events snapshots whatever is currently retained.
// The zero-value-disabled contract: a nil *Tracer is a valid disabled
// tracer, and Enabled is one nil check plus one atomic load.
type Tracer struct {
	on     atomic.Bool
	epoch  time.Time
	shards [traceShards]traceShard
	rr     atomic.Uint64 // round-robin shard pick for PID-0 events
}

// NewTracer builds a tracer retaining up to perShardCap events per
// shard (rounded up to a power of two; 0 = the 8192 default). The
// tracer starts disabled; SetEnabled(true) arms it.
func NewTracer(perShardCap int) *Tracer {
	if perShardCap <= 0 {
		perShardCap = defaultShardCap
	}
	capPow := 1
	for capPow < perShardCap {
		capPow <<= 1
	}
	t := &Tracer{epoch: time.Now()}
	for i := range t.shards {
		t.shards[i].ring = make([]atomic.Pointer[Event], capPow)
	}
	return t
}

// Enabled reports whether Emit records anything: the disabled fast
// path every instrumented site guards on.
func (t *Tracer) Enabled() bool { return t != nil && t.on.Load() }

// SetEnabled arms or disarms the tracer. Events already recorded stay
// retained across a disarm, so a run can be traced in windows.
func (t *Tracer) SetEnabled(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

// Now returns the current timestamp on the tracer clock (nanoseconds
// since the tracer was created).
func (t *Tracer) Now() int64 {
	if t == nil {
		return 0
	}
	return time.Since(t.epoch).Nanoseconds()
}

// Emit records one event. A zero TS is stamped here: end-of-event
// call sites pass Dur only and get TS = now - Dur, so duration events
// are anchored at their start like Chrome trace "X" events expect.
// No-op (two branches) when the tracer is nil or disabled: the guard is
// its own inlinable function because record stores &ev, which makes ev
// escape — in one function Go would heap-allocate it at entry, before
// the guard, on every disarmed call.
func (t *Tracer) Emit(ev Event) {
	if t == nil || !t.on.Load() {
		return
	}
	t.record(ev)
}

// record is the armed half of Emit.
func (t *Tracer) record(ev Event) {
	if ev.TS == 0 {
		ev.TS = t.Now() - ev.Dur
	}
	var sh *traceShard
	if ev.PID != 0 {
		sh = &t.shards[uint32(ev.PID)%traceShards]
	} else {
		sh = &t.shards[t.rr.Add(1)%traceShards]
	}
	i := sh.pos.Add(1) - 1
	sh.ring[i&uint64(len(sh.ring)-1)].Store(&ev)
}

// Emitted returns how many events have been recorded in total
// (including ones the rings have since overwritten).
func (t *Tracer) Emitted() uint64 {
	if t == nil {
		return 0
	}
	var n uint64
	for i := range t.shards {
		n += t.shards[i].pos.Load()
	}
	return n
}

// Dropped returns how many emitted events the rings have overwritten.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	var n uint64
	for i := range t.shards {
		if p, c := t.shards[i].pos.Load(), uint64(len(t.shards[i].ring)); p > c {
			n += p - c
		}
	}
	return n
}

// Events snapshots the retained events, sorted by start timestamp.
// Safe concurrently with Emit; each slot is read atomically, so a
// concurrent snapshot is a consistent sample, not a torn one.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	var out []Event
	for i := range t.shards {
		sh := &t.shards[i]
		for j := range sh.ring {
			if ev := sh.ring[j].Load(); ev != nil {
				out = append(out, *ev)
			}
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].TS < out[b].TS })
	return out
}
