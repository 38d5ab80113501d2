package apps_test

// The collector-driven app tests live in the external test package:
// internal/bench (the collector's home) itself imports apps.

import (
	"strings"
	"testing"

	"gowali/internal/apps"
	"gowali/internal/bench"
	"gowali/internal/core"
)

func TestSyscallProfilesDistinct(t *testing.T) {
	// Each app must exercise its Table 1 "missing feature" syscall (the
	// E1 claim: verbose mode shows calls WASI/X cannot express).
	featureSyscall := map[string]string{
		"bash":      "rt_sigaction",
		"lua":       "dup",
		"sqlite":    "mremap",
		"memcached": "mmap",
		"paho-mqtt": "setsockopt",
	}
	scales := map[string]int{"bash": 4, "lua": 8192, "sqlite": 32, "memcached": 64, "paho-mqtt": 64}
	for _, a := range apps.Runnable() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			w := core.New()
			col := bench.NewCollector()
			col.Attach(w)
			_, status, err := apps.RunOn(w, a, scales[a.Name])
			if err != nil || status != 0 {
				t.Fatalf("run: status=%d err=%v", status, err)
			}
			counts := col.Counts()
			want := featureSyscall[a.Name]
			if counts[want] == 0 {
				t.Errorf("%s never invoked %s (counts: %v)", a.Name, want, counts)
			}
			if col.Unique() < 5 {
				t.Errorf("%s used only %d distinct syscalls", a.Name, col.Unique())
			}
		})
	}
}

func TestVerboseTraceE1(t *testing.T) {
	// E1's WALI_VERBOSE: dynamic syscall lines during execution.
	lua, err := apps.ByName("lua")
	if err != nil {
		t.Fatal(err)
	}
	w := core.New()
	col := bench.NewCollector()
	var lines []string
	col.Verbose = func(l string) { lines = append(lines, l) }
	col.Attach(w)
	_, status, err := apps.RunOn(w, lua, 4096)
	if err != nil || status != 0 {
		t.Fatal(err)
	}
	if len(lines) == 0 {
		t.Fatal("no verbose output")
	}
	joined := strings.Join(lines, "\n")
	if !strings.Contains(joined, "open(") || !strings.Contains(joined, "mmap(") {
		t.Errorf("verbose trace missing expected syscalls")
	}
}
