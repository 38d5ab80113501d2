package core

import (
	"sort"
	"testing"
	"time"

	"gowali/internal/interp"
	"gowali/internal/obs"
)

// dispatchWall times one guest issuing `calls` getpid syscalls.
func dispatchWall(t *testing.T, w *WALI, c *interp.Compiled, calls int) time.Duration {
	t.Helper()
	p, err := w.SpawnCompiled(c, "guard", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if status, err := p.Run(); err != nil || status != 0 {
		t.Fatalf("run: status=%d err=%v", status, err)
	}
	return time.Since(start)
}

// BenchmarkSyscallDispatchObs prices the dispatch path per obs mode:
// bare engine, plane attached but disabled, metrics recording, tracer
// recording, and everything at once — the EXPERIMENTS.md overhead
// table. ns/syscall is one iteration of a counted getpid loop (loop
// bookkeeping, call, dispatch, handler, drop) with the Spawn amortised
// over 20000 calls. bare and attached-disabled take the disarmed path
// (~45-55 ns, no clock read, 0 allocations per call); the other three pay
// two clock reads plus their sinks (~200-350 ns).
func BenchmarkSyscallDispatchObs(b *testing.B) {
	const calls = 20000
	c := func() *interp.Compiled {
		t := &testing.T{}
		return statApp(t, calls)
	}()
	modes := []struct {
		name string
		mk   func() *WALI
	}{
		{"bare", New},
		{"attached-disabled", func() *WALI {
			w := New()
			w.Trace = obs.NewTracer(1 << 10) // never enabled
			return w
		}},
		{"metrics", func() *WALI {
			w := New()
			w.Metrics = obs.NewRegistry()
			return w
		}},
		{"tracer", func() *WALI {
			w := New()
			w.Trace = obs.NewTracer(1 << 10)
			w.Trace.SetEnabled(true)
			return w
		}},
		{"all", func() *WALI {
			w := New()
			w.Trace = obs.NewTracer(1 << 10)
			w.Trace.SetEnabled(true)
			w.Metrics = obs.NewRegistry()
			return w
		}},
	}
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			w := m.mk()
			for i := 0; i < b.N; i++ {
				p, err := w.SpawnCompiled(c, "bench", nil, nil)
				if err != nil {
					b.Fatal(err)
				}
				if status, err := p.Run(); err != nil || status != 0 {
					b.Fatalf("status=%d err=%v", status, err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*calls), "ns/syscall")
		})
	}
}

// TestObsDisabledDispatchOverhead enforces the overhead contract: an
// attached-but-disabled obs plane (tracer present but not armed, no
// metrics registry) must cost the syscall dispatch path no more than a
// few predictable branches. The guard compares the wall time of a
// getpid-storm guest with and without the plane attached and fails if
// the instrumented-disabled path exceeds the bare path by >25% — far
// above what a couple of atomic loads can cost, so it only trips if
// someone puts real work (allocation, locking, formatting) on the
// disabled path.
func TestObsDisabledDispatchOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing guard")
	}
	// The disarmed path is tens of nanoseconds per call, so one run is
	// short enough for a scheduling blip to decide it.
	const calls, runs = 16000, 21
	c := statApp(t, calls)

	// Warm both engines once (module instantiation, map growth).
	bare := New()
	instr := New()
	instr.Trace = obs.NewTracer(1 << 8) // attached, never enabled
	dispatchWall(t, bare, c, calls)
	dispatchWall(t, instr, c, calls)

	// Each sample is the ratio of two back-to-back runs, which share
	// whatever the box was doing at that moment; the median of those
	// ratios shrugs off the spells that hit only one of a pair.
	ratios := make([]float64, runs)
	var base, withObs time.Duration
	for i := range ratios {
		base = dispatchWall(t, bare, c, calls)
		withObs = dispatchWall(t, instr, c, calls)
		ratios[i] = float64(withObs) / float64(base)
	}
	sort.Float64s(ratios)
	ratio := ratios[runs/2]
	t.Logf("dispatch ratio obs-disabled/bare: median of %d pairs %.3f (last pair %v / %v)", runs, ratio, withObs, base)
	if ratio > 1.25 {
		t.Fatalf("disabled obs plane slows syscall dispatch %.2fx; the disabled fast path must stay a few atomic loads", ratio)
	}
}
