package gowali

// Root-package smoke tests: the benchmarks in bench_test.go only run under
// -bench, so these give `go test .` real assertions — a WALI end-to-end run
// and a WASI-over-WALI call — keeping tier-1 meaningful at the repo root.

import (
	"testing"

	"gowali/internal/apps"
	"gowali/internal/core"
)

// TestSmokeWALIRun executes the lua app end-to-end over WALI: spawn,
// syscalls, safepoint polls and exit status all on the default engine.
func TestSmokeWALIRun(t *testing.T) {
	app, err := apps.ByName("lua")
	if err != nil {
		t.Fatal(err)
	}
	w := core.New()
	_, status, err := apps.RunOn(w, app, 2000)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if status != 0 {
		t.Fatalf("exit status %d, want 0", status)
	}
}

// TestSmokeWASILayer drives fd_write through the WASI-over-WALI layer (the
// same path BenchmarkWASILayer measures) and checks the bytes land on the
// console.
func TestSmokeWASILayer(t *testing.T) {
	w := core.New()
	attachWASI(w)
	m := wasiTrampoline()
	p, err := w.SpawnModule(m, "wasismoke", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	p.Inst.Mem.WriteBytes(1000, []byte("hello wasi"))
	p.Inst.Mem.WriteU32(500, 1000)
	p.Inst.Mem.WriteU32(504, 10)
	fidx, ok := m.ExportedFunc("w_fd_write")
	if !ok {
		t.Fatal("no w_fd_write export")
	}
	res, err := p.Exec.Invoke(fidx, 1, 500, 1, 508)
	if err != nil {
		t.Fatal(err)
	}
	if errno := uint32(res[0]); errno != 0 {
		t.Fatalf("fd_write errno %d", errno)
	}
	if got := string(w.Console().Output()); got != "hello wasi" {
		t.Fatalf("console output %q, want %q", got, "hello wasi")
	}
}
