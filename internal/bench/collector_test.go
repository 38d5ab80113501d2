package bench

import (
	"testing"
	"time"
)

func TestFig2OrderingAndNormalization(t *testing.T) {
	profiles := []Profile{
		{App: "a", Counts: map[string]uint64{"read": 100, "write": 10, "open": 1}},
		{App: "b", Counts: map[string]uint64{"read": 50, "mmap": 5}},
	}
	order, rows := Fig2(profiles)
	if order[0] != "read" {
		t.Fatalf("most frequent first: %v", order)
	}
	if len(rows) != 3 || rows[0].App != "Aggregate" {
		t.Fatalf("rows: %+v", rows)
	}
	for _, r := range rows {
		if len(r.Values) != len(order) {
			t.Fatalf("%s: %d values for %d syscalls", r.App, len(r.Values), len(order))
		}
		max := 0.0
		for _, v := range r.Values {
			if v < 0 || v > 1 {
				t.Fatalf("%s: value %f out of [0,1]", r.App, v)
			}
			if v > max {
				max = v
			}
		}
		if max != 1.0 {
			t.Errorf("%s: row max %f, want 1.0 (log-normalized per row)", r.App, max)
		}
	}
	// App b never calls write: its write column must be zero.
	widx := -1
	for i, s := range order {
		if s == "write" {
			widx = i
		}
	}
	if rows[2].Values[widx] != 0 {
		t.Error("unused syscall should be zero in the row")
	}
}

func TestAttributeRuntime(t *testing.T) {
	br := AttributeRuntime("x", 100*time.Millisecond, 20*time.Millisecond, 1000, 5*time.Microsecond)
	total := br.AppPct + br.KernelPct + br.WaliPct
	if total < 99.9 || total > 100.1 {
		t.Fatalf("percentages sum to %f", total)
	}
	if br.WaliPct <= 0 || br.WaliPct >= br.KernelPct {
		t.Fatalf("wali share %f implausible vs kernel %f", br.WaliPct, br.KernelPct)
	}
	if br.AppPct < 79 || br.AppPct > 81 {
		t.Fatalf("app share %f, want ~80", br.AppPct)
	}
	// Degenerate inputs must not divide by zero.
	z := AttributeRuntime("z", 0, 0, 0, 0)
	if z.AppPct != 0 && z.KernelPct != 0 {
		t.Fatal("zero wall must yield zero breakdown")
	}
	// Handler time exceeding wall (multi-threaded runs) clamps app to 0.
	c := AttributeRuntime("c", 10*time.Millisecond, 20*time.Millisecond, 10, time.Microsecond)
	if c.AppPct != 0 {
		t.Fatalf("app share %f, want 0 when handlers exceed wall", c.AppPct)
	}
}
