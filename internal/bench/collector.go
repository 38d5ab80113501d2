package bench

// The syscall collector and the Fig. 2 / Fig. 7 arithmetic: syscall
// profiles, runtime attribution across app / kernel / WALI, and the E1
// verbose mode (WALI_VERBOSE-style dynamic syscall logging). Counts live
// in obs counters, so a collector's numbers appear in the same registry
// — and the same Prometheus endpoint — as the rest of the observability
// plane.

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gowali/internal/core"
	"gowali/internal/obs"
)

// Collector accumulates syscall events for one run. Observe is safe for
// concurrent use and designed not to serialize the processes it
// observes: per-name counts are lock-free obs counters (cached per
// distinct syscall, so steady state is one sync.Map load and one atomic
// add) and the time/call totals are plain atomics.
type Collector struct {
	reg      *obs.Registry
	counters sync.Map // syscall name -> *obs.Counter, label pre-formatted
	totalNs  atomic.Int64
	calls    atomic.Uint64

	// Verbose, if non-nil, receives one line per syscall (E1's
	// WALI_VERBOSE).
	Verbose func(line string)
}

// NewCollector returns an empty collector over a private registry.
func NewCollector() *Collector {
	return NewCollectorOn(obs.NewRegistry())
}

// NewCollectorOn returns a collector that counts into reg, so profile
// counts surface alongside the rest of the observability plane (the
// facade passes the engine's configured registry here).
func NewCollectorOn(reg *obs.Registry) *Collector {
	return &Collector{reg: reg}
}

// Registry exposes the backing metrics registry.
func (c *Collector) Registry() *obs.Registry { return c.reg }

// Attach installs the collector on a WALI engine.
func (c *Collector) Attach(w *core.WALI) {
	w.Hook = c.Observe
}

// counter resolves (and caches) the per-syscall count instrument.
func (c *Collector) counter(name string) *obs.Counter {
	if v, ok := c.counters.Load(name); ok {
		return v.(*obs.Counter)
	}
	ctr := c.reg.Counter(`wali_syscalls_total{syscall="` + name + `"}`)
	c.counters.Store(name, ctr)
	return ctr
}

// Observe records one syscall event. It is the collector's hook function:
// pass it to WALI.Hook (Attach does) or to the embedding facade's
// WithSyscallHook option.
func (c *Collector) Observe(ev core.SyscallEvent) {
	c.counter(ev.Name).Inc()
	c.totalNs.Add(int64(ev.Duration))
	c.calls.Add(1)
	if c.Verbose != nil {
		c.Verbose(fmt.Sprintf("[pid %d] %s(...) = %d <%s>", ev.PID, ev.Name, ev.Ret, ev.Duration))
	}
}

// Counts returns a copy of the per-syscall invocation counts.
func (c *Collector) Counts() map[string]uint64 {
	out := make(map[string]uint64)
	c.counters.Range(func(k, v any) bool {
		out[k.(string)] = uint64(v.(*obs.Counter).Value())
		return true
	})
	return out
}

// Unique returns the number of distinct syscalls invoked.
func (c *Collector) Unique() int {
	n := 0
	c.counters.Range(func(_, _ any) bool {
		n++
		return true
	})
	return n
}

// Total returns accumulated handler time and call count.
func (c *Collector) Total() (time.Duration, uint64) {
	return time.Duration(c.totalNs.Load()), c.calls.Load()
}

// Profile is one Fig. 2 row: an app and its syscall counts.
type Profile struct {
	App    string
	Counts map[string]uint64
}

// Fig2Row is the rendered profile: log-normalized frequency per syscall in
// the shared aggregate ordering.
type Fig2Row struct {
	App    string
	Values []float64 // 0..1 per syscall, aggregate order
}

// Fig2 computes the paper's Fig. 2: syscalls sorted by aggregate
// frequency; each row log-normalized to its own maximum.
func Fig2(profiles []Profile) (order []string, rows []Fig2Row) {
	agg := make(map[string]uint64)
	for _, p := range profiles {
		for s, n := range p.Counts {
			agg[s] += n
		}
	}
	order = make([]string, 0, len(agg))
	for s := range agg {
		order = append(order, s)
	}
	sort.Slice(order, func(i, j int) bool {
		if agg[order[i]] != agg[order[j]] {
			return agg[order[i]] > agg[order[j]]
		}
		return order[i] < order[j]
	})

	aggRow := Fig2Row{App: "Aggregate", Values: logNorm(order, agg)}
	rows = append(rows, aggRow)
	for _, p := range profiles {
		rows = append(rows, Fig2Row{App: p.App, Values: logNorm(order, p.Counts)})
	}
	return order, rows
}

func logNorm(order []string, counts map[string]uint64) []float64 {
	vals := make([]float64, len(order))
	maxLog := 0.0
	for i, s := range order {
		if counts[s] > 0 {
			vals[i] = math.Log1p(float64(counts[s]))
			if vals[i] > maxLog {
				maxLog = vals[i]
			}
		}
	}
	if maxLog > 0 {
		for i := range vals {
			vals[i] /= maxLog
		}
	}
	return vals
}

// Breakdown is one Fig. 7 bar: the runtime split across the system stack.
type Breakdown struct {
	App       string
	AppPct    float64 // wasm-app
	KernelPct float64
	WaliPct   float64
}

// AttributeRuntime computes the Fig. 7 split. wall is total run time,
// handlerTime the accumulated syscall handler time (kernel + WALI
// translation), calls the syscall count, and perCallOverhead the
// calibrated WALI-intrinsic dispatch+translation cost per call (measured
// by a no-op syscall microbenchmark, Table 2's method).
func AttributeRuntime(app string, wall, handlerTime time.Duration, calls uint64, perCallOverhead time.Duration) Breakdown {
	if wall <= 0 {
		return Breakdown{App: app}
	}
	wali := time.Duration(calls) * perCallOverhead
	if wali > handlerTime {
		wali = handlerTime
	}
	kern := handlerTime - wali
	appT := wall - handlerTime
	if appT < 0 {
		appT = 0
	}
	tot := float64(appT + kern + wali)
	return Breakdown{
		App:       app,
		AppPct:    100 * float64(appT) / tot,
		KernelPct: 100 * float64(kern) / tot,
		WaliPct:   100 * float64(wali) / tot,
	}
}
