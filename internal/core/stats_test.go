package core

import (
	"fmt"
	"sync/atomic"
	"testing"

	"gowali/internal/interp"
	"gowali/internal/wasm"
)

// statApp builds a minimal module issuing n getpid calls from a counted
// loop (a handful of IR slots, so timing it measures dispatch, not a
// stream of unrolled code through the cache).
func statApp(t *testing.T, n int) *interp.Compiled {
	t.Helper()
	b := newApp("getpid")
	f := b.NewFunc(StartExport, nil, nil)
	countLoopT(f, f.Local(wasm.I32), int32(n), func() {
		b.call(f, "getpid")
		f.Drop()
	})
	f.Finish()
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	c, err := interp.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestSyscallStatsRetainedAfterExit: per-PID stats come from the
// process's own counters while it lives and stay queryable (bounded
// window) right after it exits — the Fig. 7 read pattern.
func TestSyscallStatsRetainedAfterExit(t *testing.T) {
	w := New()
	// Handler time is measured only while a consumer is armed.
	w.AddHook(func(SyscallEvent) {})
	c := statApp(t, 7)
	p, err := w.SpawnCompiled(c, "stats", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	pid := p.KP.PID
	if status, err := p.Run(); err != nil || status != 0 {
		t.Fatalf("run: status=%d err=%v", status, err)
	}
	if d, n := w.SyscallStats(pid); n != 7 || d <= 0 {
		t.Fatalf("stats after exit: n=%d d=%v", n, d)
	}
	if d, n := w.SyscallStatsTotal(); n != 7 || d <= 0 {
		t.Fatalf("total: n=%d d=%v", n, d)
	}
}

// TestSyscallStatsEviction is the regression test for the per-PID stats
// leak: the engine once kept a map entry for every PID ever seen, so
// spawn storms grew it without bound. Retired stats are now a bounded
// FIFO window.
func TestSyscallStatsEviction(t *testing.T) {
	w := New()
	c := statApp(t, 1)
	spawn := retainedStatsMax + 50
	var first int32
	for i := 0; i < spawn; i++ {
		p, err := w.SpawnCompiled(c, fmt.Sprintf("s%d", i), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = p.KP.PID
		}
		if status, err := p.Run(); err != nil || status != 0 {
			t.Fatalf("run %d: status=%d err=%v", i, status, err)
		}
	}
	w.retMu.Lock()
	retained, order := len(w.retained), len(w.retOrder)
	w.retMu.Unlock()
	if retained > retainedStatsMax || order > retainedStatsMax {
		t.Fatalf("retained stats grew past the bound: map=%d order=%d max=%d",
			retained, order, retainedStatsMax)
	}
	if _, n := w.SyscallStats(first); n != 0 {
		t.Fatalf("oldest pid %d should have been evicted, still has n=%d", first, n)
	}
	w.mu.Lock()
	live := len(w.procs)
	w.mu.Unlock()
	if live != 0 {
		t.Fatalf("%d processes leaked in the live table", live)
	}
}

// TestAddHookFanout: multiple subscribers all observe events; the legacy
// Hook field keeps working alongside.
func TestAddHookFanout(t *testing.T) {
	w := New()
	var a, b, legacy atomic.Uint64
	w.Hook = func(ev SyscallEvent) { legacy.Add(1) }
	w.AddHook(func(ev SyscallEvent) { a.Add(1) })
	w.AddHook(func(ev SyscallEvent) { b.Add(1) })
	c := statApp(t, 5)
	p, err := w.SpawnCompiled(c, "fanout", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if status, err := p.Run(); err != nil || status != 0 {
		t.Fatalf("run: status=%d err=%v", status, err)
	}
	if a.Load() != 5 || b.Load() != 5 || legacy.Load() != 5 {
		t.Fatalf("fanout counts: a=%d b=%d legacy=%d", a.Load(), b.Load(), legacy.Load())
	}
}
