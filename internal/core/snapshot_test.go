package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"

	"gowali/internal/interp"
	"gowali/internal/kernel/snap"
	"gowali/internal/linux"
	"gowali/internal/wasm"
)

// imageFromBytes decodes a serialized image, failing the test on error.
func imageFromBytes(t *testing.T, raw []byte) *snap.Image {
	t.Helper()
	img := &snap.Image{}
	if _, err := img.ReadFrom(bytes.NewReader(raw)); err != nil {
		t.Fatalf("decode image: %v", err)
	}
	return img
}

// tryDecode attempts to decode a serialized image.
func tryDecode(raw []byte) error {
	img := &snap.Image{}
	_, err := img.ReadFrom(bytes.NewReader(raw))
	return err
}

// Shared guest memory layout for the snapshot tests.
const (
	stReq       = 64      // i64 request word (futex guests wait on its low u32)
	stResp      = 72      // i64 response word, 2*req+1
	stReady     = 80      // i64 readiness marker
	stReqBuf    = 1024    // golden guest: request bytes read from /req
	stRespBuf   = 1032    // golden guest: response bytes written to console
	stTsBuf     = 1056    // timespec for retry sleeps
	stReqPath   = 512     // "/req\0"
	stWarmBase  = 1 << 16 // warmed working set: pages 1-2
	stWarmBytes = 2 << 16
	stWarmStep  = 1024
)

// warmAndReady emits the warm-up loop (mem[i] = i every stWarmStep
// bytes), the readiness store, and one getpid — the first syscall, so a
// nonzero syscall count is a race-free "warm-up done" signal.
func warmAndReady(b *appBuilder, f *wasm.FuncBuilder) {
	i := f.Local(wasm.I32)
	f.I32Const(stWarmBase).LocalSet(i)
	f.Block()
	f.Loop()
	f.LocalGet(i).LocalGet(i).Store(wasm.OpI32Store, 0)
	f.LocalGet(i).I32Const(stWarmStep).Op(wasm.OpI32Add).LocalSet(i)
	f.LocalGet(i).I32Const(stWarmBase + stWarmBytes).Op(wasm.OpI32LtU).BrIf(0)
	f.End()
	f.End()
	f.I32Const(stReady).I64Const(1).Store(wasm.OpI64Store, 0)
	b.call(f, "getpid")
	f.Drop()
}

// buildFutexServeGuest is the sleep table's futex sleeper (see
// buildSleeper): it parks in an untimed FUTEX_WAIT on the request word.
// The untimed wait is the point: only the interruptible futex lets
// SIGKILL and the snapshot quiesce get the guest out of it.
func buildFutexServeGuest() *appBuilder { return buildSleeper(sleepRowFor("futex")) }

// spawnWarm spawns b's module and blocks until the guest has executed
// its first syscall (which warmAndReady places after the warm-up).
func spawnWarm(t *testing.T, w *WALI, b *appBuilder, name string) *Process {
	t.Helper()
	m, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	p, err := w.SpawnModule(m, name, []string{name}, nil)
	if err != nil {
		t.Fatalf("spawn: %v", err)
	}
	p.RunAsync()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, n := w.SyscallStats(p.KP.PID); n >= 1 {
			return p
		}
		if time.Now().After(deadline) {
			t.Fatal("guest did not warm up within 10s")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// checkWarmRegion verifies the warmed working set in a (no longer
// running) memory image: mem[i] == i at every warmed address.
func checkWarmRegion(t *testing.T, read func(addr uint32) (uint32, bool), who string) {
	t.Helper()
	for a := uint32(stWarmBase); a < stWarmBase+stWarmBytes; a += stWarmStep {
		v, ok := read(a)
		if !ok || v != a {
			t.Fatalf("%s: warm region at %#x = %d (ok=%v), want %d", who, a, v, ok, a)
		}
	}
}

func killAndReap(t *testing.T, p *Process) {
	t.Helper()
	p.KP.PostSignal(linux.SIGKILL)
	select {
	case <-p.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("guest did not die within 5s of SIGKILL")
	}
}

// TestFutexWaitKilled: an untimed FUTEX_WAIT must be interruptible by a
// fatal signal. Before the interruptible futex this hung forever.
func TestFutexWaitKilled(t *testing.T) {
	b := newApp("futex", "exit_group")
	f := b.NewFunc(StartExport, nil, nil)
	b.call(f, "futex", stReq, linux.FUTEX_WAIT, 0, 0, 0, 0)
	f.Drop()
	b.call(f, "exit_group", 0)
	f.Drop()
	f.Finish()
	m, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	w := New()
	p, err := w.SpawnModule(m, "futexblock", nil, nil)
	if err != nil {
		t.Fatalf("spawn: %v", err)
	}
	p.RunAsync()
	time.Sleep(10 * time.Millisecond) // let it block in the futex
	killAndReap(t, p)
	w.WaitAll()
}

// TestRestoreCowIsolation: children restored from one image share its
// memory copy-on-write — each child sees only its own writes, and
// nothing leaks back into the image or into siblings.
func TestRestoreCowIsolation(t *testing.T) {
	// CoW isolation is a write-barrier property; it must hold identically
	// under the fused superinstruction tier and the plain IR tier.
	for _, tier := range []interp.ExecTier{interp.TierFused, interp.TierIR} {
		t.Run(tier.String(), func(t *testing.T) { testRestoreCowIsolation(t, tier) })
	}
}

func testRestoreCowIsolation(t *testing.T, tier interp.ExecTier) {
	w := New()
	w.Tier = tier
	p := spawnWarm(t, w, buildFutexServeGuest(), "futexserve")
	img, err := w.Snapshot(p)
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	killAndReap(t, p)

	const n = 3
	children := make([]*Process, n)
	for i := range children {
		if children[i], err = w.Restore(img, nil); err != nil {
			t.Fatalf("restore %d: %v", i, err)
		}
	}
	// Write each child's request while all are still parked; siblings
	// must not observe it.
	for i, ch := range children {
		ch.Inst.Mem.WriteU64(stReq, uint64(10+i))
		for j := i + 1; j < n; j++ {
			if v, _ := children[j].Inst.Mem.ReadU64(stReq); v != 0 {
				t.Fatalf("child %d sees sibling %d's request word %d", j, i, v)
			}
		}
		if v := binary.LittleEndian.Uint64(img.Mem.Data[stReq:]); v != 0 {
			t.Fatalf("child %d's request leaked into the image: %d", i, v)
		}
	}
	for _, ch := range children {
		ch.ResumeAsync()
	}
	for i, ch := range children {
		status, runErr := ch.Wait()
		if runErr != nil || status != int32((10+i)&63) {
			t.Fatalf("child %d: status=%d err=%v", i, status, runErr)
		}
		if resp, _ := ch.Inst.Mem.ReadU64(stResp); resp != uint64(2*(10+i)+1) {
			t.Fatalf("child %d: resp=%d want %d", i, resp, 2*(10+i)+1)
		}
		if d := ch.Inst.Mem.DirtyPages(); d < 1 {
			t.Fatalf("child %d: dirty pages = %d, want >= 1", i, d)
		}
		checkWarmRegion(t, ch.Inst.Mem.ReadU32, fmt.Sprintf("child %d", i))
	}
	// The image is untouched: request/response words zero, warm region
	// exactly as captured.
	if v := binary.LittleEndian.Uint64(img.Mem.Data[stResp:]); v != 0 {
		t.Fatalf("a child's response leaked into the image: %d", v)
	}
	checkWarmRegion(t, func(a uint32) (uint32, bool) {
		return binary.LittleEndian.Uint32(img.Mem.Data[a:]), true
	}, "image")
	w.WaitAll()
}

// TestConcurrentForkStress: many goroutines restore and run children
// from one image at once (run with -race: the image must be immutable
// under concurrent forks, and each child's CoW overlay private).
func TestConcurrentForkStress(t *testing.T) {
	w := New()
	p := spawnWarm(t, w, buildFutexServeGuest(), "futexserve")
	img, err := w.Snapshot(p)
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	killAndReap(t, p)

	const workers, perWorker = 8, 4
	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				req := uint64(1 + g*perWorker + i)
				ch, err := w.Restore(img, nil)
				if err != nil {
					errs <- fmt.Errorf("worker %d: restore: %w", g, err)
					return
				}
				ch.Inst.Mem.WriteU64(stReq, req)
				status, runErr := ch.Resume()
				if runErr != nil || status != int32(req&63) {
					errs <- fmt.Errorf("worker %d: status=%d err=%v", g, status, runErr)
					return
				}
				if resp, _ := ch.Inst.Mem.ReadU64(stResp); resp != 2*req+1 {
					errs <- fmt.Errorf("worker %d: resp=%d want %d", g, resp, 2*req+1)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	w.WaitAll()
}

// buildGoldenGuest assembles the determinism guest: warm up, poll for
// /req to appear (open retried around a 1ms nanosleep), then read the
// request, answer 2*req+1 on the console, and exit 0.
func buildGoldenGuest() *appBuilder {
	b := newApp("open", "read", "close", "write", "nanosleep", "getpid", "exit_group")
	b.Data(stReqPath, []byte("/req\x00"))
	// 1ms timespec {sec=0, nsec=1e6}.
	b.Data(stTsBuf, []byte{0, 0, 0, 0, 0, 0, 0, 0, 0x40, 0x42, 0x0F, 0, 0, 0, 0, 0})
	f := b.NewFunc(StartExport, nil, nil)
	fd := f.Local(wasm.I64)
	warmAndReady(b, f)
	f.Block()
	f.Loop()
	b.call(f, "open", stReqPath, 0, 0)
	f.LocalSet(fd)
	f.LocalGet(fd).I64Const(0).Op(wasm.OpI64GeS).BrIf(1)
	b.call(f, "nanosleep", stTsBuf, 0)
	f.Drop()
	f.Br(0)
	f.End()
	f.End()
	f.LocalGet(fd).I64Const(stReqBuf).I64Const(8).Call(b.sys["read"]).Drop()
	f.LocalGet(fd).Call(b.sys["close"]).Drop()
	f.I32Const(stRespBuf)
	f.I32Const(stReqBuf).Load(wasm.OpI64Load, 0)
	f.I64Const(2).Op(wasm.OpI64Mul).I64Const(1).Op(wasm.OpI64Add)
	f.Store(wasm.OpI64Store, 0)
	b.call(f, "write", 1, stRespBuf, 8)
	f.Drop()
	b.call(f, "exit_group", 0)
	f.Drop()
	f.Finish()
	return b
}

// traceRec records syscall events for the golden comparison.
type traceRec struct {
	mu  sync.Mutex
	evs []SyscallEvent
}

func (r *traceRec) hook(ev SyscallEvent) {
	r.mu.Lock()
	r.evs = append(r.evs, ev)
	r.mu.Unlock()
}

// servedTail returns the (name, ret) trace from the first successful
// open onward — the request-serving suffix, which is deterministic
// (the number of poll rounds before the request arrives is not).
func (r *traceRec) servedTail() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var tail []string
	serving := false
	for _, ev := range r.evs {
		if !serving && ev.Name == "open" && ev.Ret >= 0 {
			serving = true
		}
		if serving {
			tail = append(tail, fmt.Sprintf("%s=%d", ev.Name, ev.Ret))
		}
	}
	return tail
}

// TestSnapshotGoldenTwin: a restored guest must be indistinguishable
// from the original it was captured from. The image additionally
// round-trips through the binary codec and restores on a *fresh*
// engine (hash-cache miss: decode, compile, verify). Both twins then
// receive the same request; their serving syscall traces, console
// output and final memory must match exactly.
func TestSnapshotGoldenTwin(t *testing.T) {
	// Determinism must hold per tier AND across tiers: the fused code
	// array shares the IR pc space, so an image captured under the fused
	// tier restores mid-loop on the plain IR tier (and vice versa) with
	// no translation — the cross pairs prove that deopt contract.
	for _, tiers := range [][2]interp.ExecTier{
		{interp.TierFused, interp.TierFused},
		{interp.TierIR, interp.TierIR},
		{interp.TierFused, interp.TierIR},
		{interp.TierIR, interp.TierFused},
	} {
		t.Run(tiers[0].String()+"_to_"+tiers[1].String(), func(t *testing.T) {
			testSnapshotGoldenTwin(t, tiers[0], tiers[1])
		})
	}
}

func testSnapshotGoldenTwin(t *testing.T, tierOrig, tierRestored interp.ExecTier) {
	w1 := New()
	w1.Tier = tierOrig
	rec1 := &traceRec{}
	w1.AddHook(rec1.hook)
	p := spawnWarm(t, w1, buildGoldenGuest(), "golden")
	img, err := w1.Snapshot(p)
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}

	// Serialize and re-read: the fresh engine restores from bytes alone.
	var buf bytes.Buffer
	if _, err := img.WriteTo(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	img2 := imageFromBytes(t, buf.Bytes())

	w2 := New()
	w2.Tier = tierRestored
	rec2 := &traceRec{}
	w2.AddHook(rec2.hook)
	ch, err := w2.Restore(img2, nil)
	if err != nil {
		t.Fatalf("restore on fresh engine: %v", err)
	}
	ch.ResumeAsync()

	// The same request arrives on both engines.
	req := []byte{21, 0, 0, 0, 0, 0, 0, 0}
	if errno := w1.Kernel.FS.WriteFile("/req", req, 0o644); errno != 0 {
		t.Fatalf("inject on w1: errno %d", errno)
	}
	if errno := w2.Kernel.FS.WriteFile("/req", req, 0o644); errno != 0 {
		t.Fatalf("inject on w2: errno %d", errno)
	}
	st1, err1 := p.Wait()
	st2, err2 := ch.Wait()
	if err1 != nil || err2 != nil || st1 != 0 || st2 != 0 {
		t.Fatalf("twin exits: original status=%d err=%v, restored status=%d err=%v", st1, err1, st2, err2)
	}

	// Identical serving trace, console bytes and final linear memory.
	tail1, tail2 := rec1.servedTail(), rec2.servedTail()
	if fmt.Sprint(tail1) != fmt.Sprint(tail2) {
		t.Fatalf("serving traces diverge:\n original: %v\n restored: %v", tail1, tail2)
	}
	if len(tail1) == 0 {
		t.Fatal("no serving trace recorded")
	}
	out1, out2 := w1.Console().Output(), w2.Console().Output()
	if !bytes.Equal(out1, out2) {
		t.Fatalf("console outputs diverge: %q vs %q", out1, out2)
	}
	want := uint64(2*21 + 1)
	if got := binary.LittleEndian.Uint64(out1[len(out1)-8:]); got != want {
		t.Fatalf("console response = %d, want %d", got, want)
	}
	mem1 := p.Inst.Mem.SnapshotBytes()
	mem2 := ch.Inst.Mem.SnapshotBytes()
	if !bytes.Equal(mem1, mem2) {
		t.Fatal("final linear memories diverge between original and restored twin")
	}
	w1.WaitAll()
	w2.WaitAll()
}

// TestRestoreRejectsCorruptImage: a flipped byte or truncation must be
// refused at decode time, never restored.
func TestRestoreRejectsCorruptImage(t *testing.T) {
	w := New()
	p := spawnWarm(t, w, buildFutexServeGuest(), "futexserve")
	img, err := w.Snapshot(p)
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	killAndReap(t, p)
	var buf bytes.Buffer
	if _, err := img.WriteTo(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	good := buf.Bytes()

	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0x40
	if err := tryDecode(flipped); err == nil {
		t.Fatal("corrupted image decoded without error")
	}
	if err := tryDecode(good[:len(good)/2]); err == nil {
		t.Fatal("truncated image decoded without error")
	}
	if err := tryDecode(good); err != nil {
		t.Fatalf("pristine image failed to decode: %v", err)
	}
	w.WaitAll()
}
