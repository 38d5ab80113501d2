// Command benchmark is the repository's benchmark: four workloads that
// each put one layer of the request stack under load and leave another
// idle, measured end to end with tracing off, plus a separate traced
// pass that prices every layer from outside. See README.md in this
// directory for the definitions and BENCHMARK.json at the root for the
// contract.
//
//	bash benchmark/run.sh                      all workloads, 6 interleaved rounds
//	bash benchmark/run.sh -trace out.json      … plus the traced round and the probes
//	bash benchmark/run.sh -selfcheck 6         run-to-run spread of every end-to-end metric
//	bash benchmark/run.sh --workload kv-serve --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	gonet "net"
	"os"
	"runtime"
	"time"
)

// metricDef names one metric; the tables below are the single source the
// printer, the selfcheck and the test read, and BENCHMARK.json repeats.
type metricDef struct {
	name   string
	unit   string
	higher bool    // better direction
	bound  float64 // end-to-end only: share of the median it may worsen by
}

// endToEndMetrics are what a user of the runtime sees, per workload.
// failed_share is the eighth: it is 0 on every correct run, so it
// travels as the attempted/failed pair of the result line instead of as
// a bounded metric (any failed op fails the run).
//
// The timing rows carry the widest bound the contract allows: on the
// shared 2-core box their run-to-run quartile distance is 2-18% of the
// median whatever the estimator (README.md, "Noise"), and a bound must
// sit above that or it rejects innocent changes. The count rows
// repeat to within 0.5% and are bound tightly.
var endToEndMetrics = []metricDef{
	{"ops_per_s", "1/s", true, 0.25},
	{"op_p50_us", "us", false, 0.25},
	{"cpu_ms_per_kop", "ms", false, 0.25},
	{"allocs_per_op", "count", false, 0.05},
	{"alloc_kb_per_op", "KiB", false, 0.05},
	{"live_heap_mb", "MiB", false, 0.10},
	{"setup_s", "s", false, 0.25},
}

// config is one run's shape.
type config struct {
	seed     uint64
	rounds   int           // cells per workload
	window   time.Duration // timed window per cell
	setupDiv int
	probe    probeBudget
}

// rounds is R: every workload's numbers pool this many independent cells.
const rounds = 6

func main() {
	var (
		wlName    = flag.String("workload", "", "run one workload (kv-serve, lua-compute, sqlite-fs, guest-start); empty runs all four interleaved")
		seed      = flag.Uint64("seed", 1, "seed of the generated inputs (kv-serve keys and op mix, guest-start tokens)")
		seconds   = flag.Int("seconds", 30, "timed seconds per workload, spread over the rounds")
		trace     = flag.String("trace", "0", "0: measured run; 1: traced pass and per-layer probes; a path: the same, and write the Chrome trace there")
		selfcheck = flag.Int("selfcheck", 0, "run the untraced benchmark N times and print the run-to-run spread of every end-to-end metric")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 {
		flag.Usage()
		os.Exit(2)
	}
	// The sandbox has 2 shared cores; more Ps than that only add
	// scheduling noise, and 4 caps it on a bigger box so numbers from
	// different machines stay comparable.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	primeNetpoller()
	defer runtime.KeepAlive(hostHeap())

	cfg := config{
		seed: *seed, rounds: rounds, setupDiv: 1,
		window: time.Duration(*seconds) * time.Second / rounds,
		probe:  probeBudget{reps: 9, dur: 100 * time.Millisecond},
	}
	var err error
	switch {
	case *selfcheck > 0:
		err = runSelfcheck(cfg, *selfcheck)
	case *wlName == "":
		err = runAll(cfg, *trace)
	default:
		wl := workloadByName(*wlName)
		if wl == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *wlName)
			os.Exit(2)
		}
		err = runOne(wl, cfg, *trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// hostHeap stands in for the heap of the application embedding the
// runtime: 64 MiB that are live, pointer-free and never touched. Without
// it the benchmark's own live heap is a few hundred KiB, the collector
// runs at its 4 MiB floor, and a spawn op (1-7 MiB allocated) meets a
// collection every second op: op time then follows the collector's
// pacing, so that a change adding a megabyte of cache reads as a speed-up
// and the traced cell (whose span buffer is 14 MiB) ran 40% faster than
// the untraced one. What an op allocates is still charged, per byte,
// through allocs_per_op and alloc_kb_per_op.
func hostHeap() []byte { return make([]byte, 64<<20) }

// primeNetpoller makes the Go runtime open its epoll descriptors before
// the first leak baseline, so they are not mistaken for a leak of the
// first cell that touches the network.
func primeNetpoller() {
	if ln, err := gonet.Listen("tcp", "127.0.0.1:0"); err == nil {
		ln.Close()
	}
}

// result is the last line of standard output in single-workload mode.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne is the driver's entry: one workload, --seconds timed seconds.
// Untraced, it pools `rounds` cells and reports the end-to-end metrics;
// traced, it reports every per-layer metric and no end-to-end one.
func runOne(wl *workload, cfg config, trace string) error {
	p := &pooled{wl: wl}
	if trace == "0" {
		if err := runCells(wl, cfg, 0, cfg.rounds, p); err != nil {
			return err
		}
		printEndToEnd(p)
		return finish(p, endToEndMetrics, p.endToEnd())
	}
	// The driver gives a traced run the same time as a measured one:
	// two untraced cells for the baseline, the traced cell, the probes.
	if err := runCells(wl, cfg, 0, 2, p); err != nil {
		return err
	}
	vals, err := tracedRun([]*pooled{p}, cfg, trace)
	if err != nil {
		return err
	}
	return finish(p, perLayerMetrics, vals[0])
}

// tracedRun is the traced pass over the given workloads (measured
// untraced already): one armed cell each with harness spans, then the
// probes, then the per-layer tables and, when trace names a file, the
// Chrome trace of the whole pass.
func tracedRun(pools []*pooled, cfg config, trace string) ([]map[string]float64, error) {
	ts := newTraceSession()
	var all []map[string]float64
	var kv *pooled
	for _, p := range pools {
		vals, err := tracedPass(p.wl, cfg, p, ts)
		if err != nil {
			return nil, err
		}
		all = append(all, vals)
		if p.wl.name == "kv-serve" {
			kv = p
		}
	}
	probes, err := runProbes(cfg.probe, ts.rec)
	if err != nil {
		return nil, err
	}
	if kv != nil {
		classP50(kv, probes)
	} else if err := kvClassProbe(cfg, probes); err != nil {
		return nil, err
	}
	for i, p := range pools {
		for k, v := range probes {
			all[i][k] = v
		}
		attribute(all[i])
		printPerLayer(p.wl.name, all[i])
		printChecks(p, all[i])
	}
	printSpans(ts.rec)
	if trace != "1" {
		f, err := os.Create(trace)
		if err != nil {
			return nil, err
		}
		if err := ts.rec.writeChrome(f, ts.tr); err != nil {
			f.Close()
			return nil, fmt.Errorf("write %s: %w", trace, err)
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
		fmt.Printf("trace written to %s\n", trace)
	}
	return all, nil
}

// finish prints the result line and turns failed ops into a failed run.
func finish(p *pooled, defs []metricDef, vals map[string]float64) error {
	res := result{Attempted: p.attempted(), Failed: p.failed(), Metrics: map[string]metricValue{}}
	res.Correct = res.Failed == 0
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s was not measured", p.wl.name, d.name)
		}
		res.Metrics[d.name] = metricValue{v, d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed, first: %v", p.wl.name, res.Failed, res.Attempted, p.firstErr())
	}
	return nil
}

// runAll is the full benchmark: `rounds` rounds, each running the four
// workloads in fixed order, so a workload's 30 seconds are strided
// across the whole session instead of taken as one block.
func runAll(cfg config, trace string) error {
	pools, err := measureAll(cfg)
	if err != nil {
		return err
	}
	var failed int64
	for _, p := range pools {
		printEndToEnd(p)
		failed += p.failed()
	}
	if trace != "0" {
		if _, err := tracedRun(pools, cfg, trace); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}

func measureAll(cfg config) ([]*pooled, error) {
	pools := make([]*pooled, len(workloads))
	for i, wl := range workloads {
		pools[i] = &pooled{wl: wl}
	}
	for r := 0; r < cfg.rounds; r++ {
		for i, wl := range workloads {
			if err := runCells(wl, cfg, r, 1, pools[i]); err != nil {
				return nil, err
			}
		}
	}
	return pools, nil
}

func printEndToEnd(p *pooled) {
	vals, t := p.endToEnd(), p.timing()
	lat := t.sorted
	fmt.Printf("== %s: %d clients, %d cells, %.1f s timed of which %.0f%% steal-free and kept, %d latency samples kept\n",
		p.wl.name, p.wl.clients, len(p.cells), t.seconds/t.keptShare, 100*t.keptShare, len(lat))
	for _, d := range endToEndMetrics {
		fmt.Printf("  %-20s %14.4f %-6s (bound %.0f%%)\n", d.name, vals[d.name], d.unit, 100*d.bound)
	}
	fmt.Printf("  %-20s %14.6f        (ops_attempted %d, ops_failed %d)\n", "failed_share",
		float64(p.failed())/float64(max(p.attempted(), 1)), p.attempted(), p.failed())
	fmt.Printf("  %-20s %14.4f us     (not gated: too noisy on a shared box)\n", "diag.op_p99_us", quantile(lat, 0.99))
	fmt.Printf("  %-20s %14.4f %%      (share of the VM's CPU time the host took during the windows)\n", "diag.host_steal_pct", t.stealPct)
}

func printPerLayer(workload string, vals map[string]float64) {
	fmt.Printf("== %s: per-layer metrics (traced pass and probes)\n", workload)
	for _, d := range perLayerMetrics {
		fmt.Printf("  %-32s %16.4f %s\n", d.name, vals[d.name], d.unit)
	}
	fmt.Printf("  %-32s %16.4f us (printed only: 0 whenever a slot is free)\n", runqWait, vals[runqWait])
}

// printSpans prints the harness spans' self-time table: per span name
// the count, the median duration and the median self time (duration
// minus what child spans cover).
func printSpans(rec *recorder) {
	fmt.Printf("== harness spans (traced pass): count, median us, median self us; %d dropped\n", rec.dropped)
	for _, s := range rec.summary() {
		fmt.Printf("  %-32s %8d %12.2f %12.2f\n", s.name, s.count, s.durUS, s.selfUS)
	}
}

// printChecks states the shares the workload design rests on: each layer
// dominates one workload and is idle in another, and spawn cost is small
// beside a lua or sqlite op.
func printChecks(p *pooled, vals map[string]float64) {
	p50 := p.endToEnd()["op_p50_us"]
	check := func(what string, share float64, ok bool) {
		verdict := "ok"
		if !ok {
			verdict = "VIOLATED"
		}
		fmt.Printf("  check %-52s %6.1f%%  %s\n", what, 100*share, verdict)
	}
	interpShare, spawnShare := vals["interp.us_per_op"]/p50, vals["core.spawn_us"]/p50
	switch p.wl.name {
	case "kv-serve":
		check("interp.us_per_op / op_p50_us <= 20%", interpShare, interpShare <= 0.2)
	case "lua-compute":
		check("interp.us_per_op / op_p50_us >= 70%", interpShare, interpShare >= 0.7)
		check("core.spawn_us / op_p50_us <= 10%", spawnShare, spawnShare <= 0.1)
	case "sqlite-fs":
		check("core.spawn_us / op_p50_us <= 10%", spawnShare, spawnShare <= 0.1)
	}
}

// runSelfcheck runs the untraced benchmark n times back to back and
// prints, per workload and end-to-end metric, min / median / max and
// (max-min)/median; it fails when a spread exceeds the metric's bound.
func runSelfcheck(cfg config, n int) error {
	series := map[string]map[string][]float64{}
	for run := 0; run < n; run++ {
		c := cfg
		c.seed = cfg.seed + uint64(run)*1000
		pools, err := measureAll(c)
		if err != nil {
			return err
		}
		for _, p := range pools {
			if p.failed() > 0 {
				return fmt.Errorf("%s: %d operations failed, first: %v", p.wl.name, p.failed(), p.firstErr())
			}
			if series[p.wl.name] == nil {
				series[p.wl.name] = map[string][]float64{}
			}
			for name, v := range p.endToEnd() {
				series[p.wl.name][name] = append(series[p.wl.name][name], v)
			}
		}
		fmt.Printf("selfcheck: run %d of %d done\n", run+1, n)
	}
	var over []string
	fmt.Printf("%-12s %-16s %12s %12s %12s %8s %6s\n", "workload", "metric", "min", "median", "max", "spread", "bound")
	for _, wl := range workloads {
		for _, d := range endToEndMetrics {
			s := sortedCopy(series[wl.name][d.name])
			med := quantile(s, 0.5)
			spread := (s[len(s)-1] - s[0]) / med
			mark := ""
			if spread > d.bound {
				mark = "  OVER"
				over = append(over, wl.name+"/"+d.name)
			}
			fmt.Printf("%-12s %-16s %12.4f %12.4f %12.4f %7.1f%% %5.0f%%%s\n",
				wl.name, d.name, s[0], med, s[len(s)-1], 100*spread, 100*d.bound, mark)
		}
	}
	if len(over) > 0 {
		return fmt.Errorf("spread over the bound: %v", over)
	}
	return nil
}
