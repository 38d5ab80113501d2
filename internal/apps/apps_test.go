package apps

import (
	"strings"
	"testing"

	"gowali/internal/core"
	"gowali/internal/emu"
	"gowali/internal/wasm"
)

func TestAllAppsValidate(t *testing.T) {
	for _, a := range Runnable() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			m := a.Build(100)
			if err := wasm.Validate(m); err != nil {
				t.Fatalf("%s does not validate: %v", a.Name, err)
			}
			// And round-trips through the binary format.
			dec, err := wasm.Decode(wasm.Encode(m))
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if err := wasm.Validate(dec); err != nil {
				t.Fatalf("decoded module invalid: %v", err)
			}
		})
	}
}

func TestLuaRuns(t *testing.T) {
	w, status, err := Run(mustApp(t, "lua"), 20000)
	if err != nil || status != 0 {
		t.Fatalf("lua: status=%d err=%v", status, err)
	}
	if !strings.Contains(string(w.Console().Output()), "lua: ok") {
		t.Fatalf("console: %q", w.Console().Output())
	}
}

func TestBashRuns(t *testing.T) {
	w, status, err := Run(mustApp(t, "bash"), 6)
	if err != nil || status != 0 {
		t.Fatalf("bash: status=%d err=%v", status, err)
	}
	if !strings.Contains(string(w.Console().Output()), "jobs done") {
		t.Fatalf("console: %q", w.Console().Output())
	}
	if w.Kernel.ProcessCount() != 0 {
		t.Errorf("%d processes leaked", w.Kernel.ProcessCount())
	}
}

func TestSqliteRuns(t *testing.T) {
	w, status, err := Run(mustApp(t, "sqlite"), 64)
	if err != nil || status != 0 {
		t.Fatalf("sqlite: status=%d err=%v", status, err)
	}
	// The journal must be gone; the db must have the right size.
	if _, errno := w.Kernel.FS.Walk("/", "/data/test.db-journal", true); errno == 0 {
		r, _ := w.Kernel.FS.Walk("/", "/data/test.db-journal", true)
		if r.Node != nil {
			t.Error("journal not unlinked")
		}
	}
	r, errno := w.Kernel.FS.Walk("/", "/data/test.db", true)
	if errno != 0 || r.Node == nil {
		t.Fatalf("db missing: %v", errno)
	}
	if r.Node.Size() != 64*dbPage {
		t.Errorf("db size = %d, want %d", r.Node.Size(), 64*dbPage)
	}
}

func TestMemcachedRuns(t *testing.T) {
	w, status, err := Run(mustApp(t, "memcached"), 200)
	if err != nil || status != 0 {
		t.Fatalf("memcached: status=%d err=%v", status, err)
	}
	if !strings.Contains(string(w.Console().Output()), "memcached: done") {
		t.Fatalf("console: %q", w.Console().Output())
	}
}

func TestMQTTRuns(t *testing.T) {
	w, status, err := Run(mustApp(t, "paho-mqtt"), 128)
	if err != nil || status != 0 {
		t.Fatalf("mqtt: status=%d err=%v", status, err)
	}
	if !strings.Contains(string(w.Console().Output()), "mqtt: published") {
		t.Fatalf("console: %q", w.Console().Output())
	}
}

func mustApp(t *testing.T, name string) App {
	t.Helper()
	a, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestTable1Shape(t *testing.T) {
	all := All()
	if len(all) != 17 {
		t.Fatalf("Table 1 has %d rows, want 17", len(all))
	}
	wali := 0
	wasix := 0
	wasi := 0
	for _, a := range all {
		wali++ // every row is WALI ✓
		if a.WASIX {
			wasix++
		}
		if a.WASI {
			wasi++
		}
		if a.MissingFeature == "" {
			t.Errorf("%s missing the Missing-Features cell", a.Name)
		}
	}
	if wasix != 4 { // bash, lua, paho, zlib
		t.Errorf("WASIX count = %d, want 4", wasix)
	}
	if wasi != 1 { // zlib only
		t.Errorf("WASI count = %d, want 1", wasi)
	}
}

func TestRequiredSyscallsSubsetOfWALI(t *testing.T) {
	reg := core.Registry()
	for _, a := range Runnable() {
		for _, s := range RequiredSyscalls(a, 10) {
			if _, ok := reg[s]; !ok {
				t.Errorf("%s requires %s, which WALI does not implement", a.Name, s)
			}
		}
	}
}

func TestNativeKernelsRun(t *testing.T) {
	if LuaNative(10000) == 0 {
		t.Error("lua native degenerate")
	}
	if BashNative(4) == 0 {
		t.Error("bash native degenerate")
	}
	SqliteNative(32) // checksum may be any value; just must not panic
	if MemcachedNative(100) == 0 {
		t.Error("memcached native degenerate")
	}
	MQTTNative(50)
}

func TestRISCKernelsRun(t *testing.T) {
	for _, name := range []string{"lua", "bash", "sqlite"} {
		name := name
		t.Run(name, func(t *testing.T) {
			p, err := RISCFor(name, 64)
			if err != nil {
				t.Fatal(err)
			}
			m := emu.New(p, 1<<20, nil)
			if err := m.Run(200_000_000); err != nil {
				t.Fatalf("emulation: %v", err)
			}
		})
	}
	if _, err := RISCFor("nope", 1); err == nil {
		t.Error("unknown RISC kernel accepted")
	}
}
