package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// smokeConfig is the benchmark at its smallest: one round, one-second
// windows, set-up counts and probe repetitions cut down. The numbers it
// yields are meaningless; their presence and the counters are not.
func smokeConfig(seed uint64) config {
	return config{
		seed: seed, rounds: 1, window: time.Second, setupDiv: 16,
		probe: probeBudget{reps: 1, dur: 5 * time.Millisecond},
	}
}

// countersOf runs one short untraced cell and returns its counters.
func countersOf(t *testing.T, name string, seed uint64) layerCounters {
	t.Helper()
	cfg := smokeConfig(seed)
	cfg.window = 300 * time.Millisecond
	p := &pooled{wl: workloadByName(name)}
	if err := runCells(p.wl, cfg, 0, 1, p); err != nil {
		t.Fatal(err)
	}
	if p.failed() != 0 {
		t.Fatalf("%s: %d failed ops: %v", name, p.failed(), p.firstErr())
	}
	return p.cells[0].counters
}

func TestSmoke(t *testing.T) {
	primeNetpoller()
	cfg := smokeConfig(1)
	pools, err := measureAll(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pools {
		if p.attempted() == 0 || p.failed() != 0 {
			t.Errorf("%s: attempted %d, failed %d: %v", p.wl.name, p.attempted(), p.failed(), p.firstErr())
		}
		vals := p.endToEnd()
		for _, d := range endToEndMetrics {
			if v, ok := vals[d.name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v (present %v), want finite and positive", p.wl.name, d.name, v, ok)
			}
		}
	}
	all, err := tracedRun(pools, cfg, "1")
	if err != nil {
		t.Fatal(err)
	}
	// Differences of two measurements may dip below zero on a run this short.
	signed := map[string]bool{"unattributed.us_per_op": true, "obs.traced_overhead_pct": true}
	for i, vals := range all {
		for _, d := range perLayerMetrics {
			v, ok := vals[d.name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) || (v < 0 && !signed[d.name]) {
				t.Errorf("%s: per-layer metric %s = %v (present %v), want finite and non-negative", pools[i].wl.name, d.name, v, ok)
			}
		}
	}
}

// The instruction count of a lua op is a property of the guest and the
// engine, not of the run: the same seed must give the same count.
func TestLuaStepsRepeatExactly(t *testing.T) {
	a, b := countersOf(t, "lua-compute", 7), countersOf(t, "lua-compute", 7)
	if a.steps/a.ops != b.steps/b.ops || a.steps%a.ops != 0 || b.steps%b.ops != 0 {
		t.Fatalf("steps per op differ: %d/%d vs %d/%d", a.steps, a.ops, b.steps, b.ops)
	}
}

// The seed picks the kv-serve keys and op mix, nothing else: another
// seed sends other keys down the same path.
func TestSeedChangesKeysNotPath(t *testing.T) {
	keys := func(seed uint64) (out [64]uint32) {
		c := &kvClient{rng: newRNG(seed)}
		for i := range out {
			_, out[i], _ = c.next()
		}
		return out
	}
	if keys(1) != keys(1) {
		t.Fatal("the same seed gave two key sequences")
	}
	if keys(1) == keys(2) {
		t.Fatal("another seed gave the same key sequence")
	}
	primeNetpoller()
	a, b := countersOf(t, "kv-serve", 1), countersOf(t, "kv-serve", 2)
	ra, rb := float64(a.syscalls)/float64(a.ops), float64(b.syscalls)/float64(b.ops)
	if math.Abs(ra-rb)/ra > 0.01 {
		t.Fatalf("core.syscalls_per_op moved with the seed: %.4f vs %.4f", ra, rb)
	}
}

// BENCHMARK.json repeats the metric and workload tables for the driver;
// the two must not drift apart.
func TestContractMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the table", len(doc.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if doc.Workloads[i].Name != wl.name || doc.Workloads[i].Why != wl.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the table %q (%q)", i, doc.Workloads[i].Name, doc.Workloads[i].Why, wl.name, wl.why)
		}
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the table", len(got), kind, len(want))
		}
		for i, d := range want {
			better := "lower"
			if d.higher {
				better = "higher"
			}
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != better || g.Bound != d.bound {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the table %+v", kind, i, g, d)
			}
		}
	}
	check("end-to-end", doc.EndToEnd, endToEndMetrics)
	check("per-layer", doc.PerLayer, perLayerMetrics)
}

// The timing rows come from steal-free slices only; when a run has
// almost none, from its least stolen tenth.
func TestTimingKeepsStealFreeSlices(t *testing.T) {
	mk := func(steals ...int64) *pooled {
		c := cellResult{}
		for i, st := range steals {
			end := time.Duration(i+1) * sliceLen
			c.slices = append(c.slices, slice{end: end, dur: sliceLen, ops: 10, cpu: sliceLen, steal: st, total: 20})
			// One op inside the slice, one straddling its start.
			c.lat[0] = append(c.lat[0], sample{end: end - sliceLen/4, lat: sliceLen / 2}, sample{end: end - 3*sliceLen/4, lat: sliceLen / 2})
		}
		return &pooled{cells: []cellResult{c}}
	}
	tm := mk(0, 0, 5, 0).timing()
	if tm.keptShare != 0.75 || tm.ops != 30 || math.Abs(tm.seconds-0.3) > 1e-9 {
		t.Errorf("kept share %v, ops %v over %v s, want 0.75, 30 over 0.3 s", tm.keptShare, tm.ops, tm.seconds)
	}
	// Slices 0 and 1 keep both their ops, slice 3 only the one that did
	// not start in the stolen slice 2.
	if len(tm.lat[0]) != 5 {
		t.Errorf("%d latency samples kept, want 5", len(tm.lat[0]))
	}
	if tm.stealPct != 100*5.0/80 {
		t.Errorf("steal %v%%, want %v%%", tm.stealPct, 100*5.0/80)
	}
	steals := make([]int64, 20)
	for i := range steals {
		steals[i] = int64(20 - i) // every slice stolen from, the last two least
	}
	tm = mk(steals...).timing()
	if tm.keptShare != 0.1 || tm.ops != 20 {
		t.Errorf("fallback kept share %v, ops %v, want the least stolen tenth: 0.1, 20", tm.keptShare, tm.ops)
	}
}
