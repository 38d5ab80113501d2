package interp

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"gowali/internal/wasm"
)

// memOps is the module the flat-vs-overlay differential drives: one
// exported function per memory instruction, so every access goes through
// the engine under test exactly as guest code would issue it.
type memOps struct {
	c      *Compiled
	loads  []uint32 // (addr i32) -> T, one per load opcode
	stores []uint32 // (addr i32, val T), one per store opcode
	copy   uint32   // (dst, src, len i32)
	fill   uint32   // (dst, val, len i32)
	grow   uint32   // (delta i32) -> i32
	size   uint32   // () -> i32
}

const (
	diffMinPages = 4
	diffMaxPages = 8
)

func buildMemOps(t *testing.T) *memOps {
	t.Helper()
	loads := []struct {
		op byte
		t  wasm.ValType
	}{
		{wasm.OpI32Load, wasm.I32}, {wasm.OpI64Load, wasm.I64}, {wasm.OpF32Load, wasm.F32}, {wasm.OpF64Load, wasm.F64},
		{wasm.OpI32Load8S, wasm.I32}, {wasm.OpI32Load8U, wasm.I32}, {wasm.OpI32Load16S, wasm.I32}, {wasm.OpI32Load16U, wasm.I32},
		{wasm.OpI64Load8S, wasm.I64}, {wasm.OpI64Load8U, wasm.I64}, {wasm.OpI64Load16S, wasm.I64}, {wasm.OpI64Load16U, wasm.I64},
		{wasm.OpI64Load32S, wasm.I64}, {wasm.OpI64Load32U, wasm.I64},
	}
	stores := []struct {
		op byte
		t  wasm.ValType
	}{
		{wasm.OpI32Store, wasm.I32}, {wasm.OpI64Store, wasm.I64}, {wasm.OpF32Store, wasm.F32}, {wasm.OpF64Store, wasm.F64},
		{wasm.OpI32Store8, wasm.I32}, {wasm.OpI32Store16, wasm.I32},
		{wasm.OpI64Store8, wasm.I64}, {wasm.OpI64Store16, wasm.I64}, {wasm.OpI64Store32, wasm.I64},
	}
	b := wasm.NewBuilder("memops")
	b.Memory(diffMinPages, diffMaxPages, false)
	// Data segments: one inside page 0, one straddling the 1|2 boundary;
	// pages 0, 1, 2 start private, page 3 starts on the zero page.
	b.Data(100, []byte("data segment on page zero"))
	b.Data(2*wasm.PageSize-5, []byte("straddling"))
	ops := &memOps{}
	i32 := []wasm.ValType{wasm.I32}
	for _, l := range loads {
		f := b.NewFunc(fmt.Sprintf("ld%02x", l.op), i32, []wasm.ValType{l.t})
		f.LocalGet(0).Load(l.op, 0)
		ops.loads = append(ops.loads, f.Finish())
	}
	for _, s := range stores {
		f := b.NewFunc(fmt.Sprintf("st%02x", s.op), []wasm.ValType{wasm.I32, s.t}, nil)
		f.LocalGet(0).LocalGet(1).Store(s.op, 0)
		ops.stores = append(ops.stores, f.Finish())
	}
	i32x3 := []wasm.ValType{wasm.I32, wasm.I32, wasm.I32}
	f := b.NewFunc("copy", i32x3, nil)
	f.LocalGet(0).LocalGet(1).LocalGet(2).MemoryCopy()
	ops.copy = f.Finish()
	f = b.NewFunc("fill", i32x3, nil)
	f.LocalGet(0).LocalGet(1).LocalGet(2).MemoryFill()
	ops.fill = f.Finish()
	f = b.NewFunc("grow", i32, i32)
	f.LocalGet(0).MemoryGrow()
	ops.grow = f.Finish()
	f = b.NewFunc("size", nil, i32)
	f.MemorySize()
	ops.size = f.Finish()
	m, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if ops.c, err = Compile(m); err != nil {
		t.Fatalf("compile: %v", err)
	}
	return ops
}

// diffSubject is one memory under comparison with the Exec that drives it.
type diffSubject struct {
	name string
	mem  *Memory
	e    *Exec
}

// invoke runs fidx and folds the outcome into a comparable string: the
// results, or the trap code.
func (s *diffSubject) invoke(t *testing.T, fidx uint32, args ...uint64) string {
	res, err := s.e.Invoke(fidx, args...)
	if err != nil {
		var trap *Trap
		if !errors.As(err, &trap) {
			t.Fatalf("%s: non-trap error: %v", s.name, err)
		}
		return fmt.Sprintf("trap %v", trap.Code)
	}
	return fmt.Sprint(res)
}

// diffAddr draws an address biased towards page boundaries (straddling
// accesses) and the end of memory (traps).
func diffAddr(rng *rand.Rand, pages uint32) uint32 {
	page := uint32(rng.Intn(int(pages) + 1))
	switch rng.Intn(4) {
	case 0:
		return page*wasm.PageSize - uint32(rng.Intn(9)) // just below a boundary (wraps below page 0: OOB)
	case 1:
		return page*wasm.PageSize + uint32(rng.Intn(9))
	default:
		return page*wasm.PageSize + uint32(rng.Intn(wasm.PageSize))
	}
}

// diffLen draws a bulk length: mostly short, sometimes a page or more.
func diffLen(rng *rand.Rand) uint32 {
	switch rng.Intn(8) {
	case 0:
		return 0
	case 1:
		return uint32(wasm.PageSize + rng.Intn(2*wasm.PageSize))
	default:
		return uint32(rng.Intn(600))
	}
}

// TestDifferentialFlatVsOverlay drives seeded random sequences of memory
// operations — every load and store opcode (including accesses straddling
// a 64 KiB boundary and out of bounds), memory.copy with overlap in both
// directions, memory.fill, memory.grow, and the embedder's Bytes,
// ReadCString, ReadBytes/WriteBytes, ZeroRange and CopyRange — against
// three memories started from the same module: a flat oracle, the
// zero-backed overlay a fresh instance gets, and an overlay over a frozen
// image as Restore builds it. Every operation must produce the same
// result or the same trap on all three, and the bytes must match after
// every sequence, on the fused and the IR tier.
func TestDifferentialFlatVsOverlay(t *testing.T) {
	ops := buildMemOps(t)
	for _, tier := range []ExecTier{TierFused, TierIR} {
		t.Run(tier.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(0x0E1A))
			for seq := 0; seq < 150; seq++ {
				runDiffSequence(t, ops, tier, rng, seq)
			}
		})
	}
	for i, b := range zeroPage {
		if b != 0 {
			t.Fatalf("zero page byte %d = %#x after the run", i, b)
		}
	}
}

func runDiffSequence(t *testing.T, ops *memOps, tier ExecTier, rng *rand.Rand, seq int) {
	newSubject := func(name string) *diffSubject {
		inst, err := ops.c.Instantiate(NewLinker())
		if err != nil {
			t.Fatalf("instantiate: %v", err)
		}
		e := NewExec(inst)
		e.Tier = tier
		return &diffSubject{name: name, mem: inst.Mem, e: e}
	}
	flat := newSubject("flat")
	if !flat.mem.CowActive() || !flat.mem.Materialize() || flat.mem.CowActive() {
		t.Fatal("oracle: a fresh private memory must start as an overlay and collapse on demand")
	}
	zero := newSubject("zero-overlay")
	image := newSubject("image-overlay")
	image.mem = NewCowMemory(flat.mem.SnapshotBytes(), flat.mem.MaxLen, nil)
	image.e = NewExec(image.e.Inst.Rehydrate(image.mem, image.e.Inst.Globals, image.e.Inst.Table))
	image.e.Tier = tier
	subjects := []*diffSubject{flat, zero, image}

	// same runs one operation on every subject and requires one outcome.
	same := func(what string, op func(s *diffSubject) string) {
		t.Helper()
		want := op(flat)
		for _, s := range subjects[1:] {
			if got := op(s); got != want {
				t.Fatalf("seq %d %s: flat %q, %s %q", seq, what, want, s.name, got)
			}
		}
	}

	for step := 0; step < 120; step++ {
		pages := flat.mem.Pages()
		addr := diffAddr(rng, pages)
		switch k := rng.Intn(100); {
		case k < 30:
			i := rng.Intn(len(ops.stores))
			v := rng.Uint64()
			same(fmt.Sprintf("store[%d] @%#x", i, addr), func(s *diffSubject) string {
				return s.invoke(t, ops.stores[i], uint64(addr), v)
			})
		case k < 55:
			i := rng.Intn(len(ops.loads))
			same(fmt.Sprintf("load[%d] @%#x", i, addr), func(s *diffSubject) string {
				return s.invoke(t, ops.loads[i], uint64(addr))
			})
		case k < 67:
			// Half the copies overlap: src within ±300 bytes of dst.
			src, ln := diffAddr(rng, pages), diffLen(rng)
			if rng.Intn(2) == 0 {
				src = addr + uint32(rng.Intn(600)) - 300
			}
			same(fmt.Sprintf("memory.copy %#x<-%#x len %d", addr, src, ln), func(s *diffSubject) string {
				return s.invoke(t, ops.copy, uint64(addr), uint64(src), uint64(ln))
			})
		case k < 75:
			val, ln := uint64(rng.Intn(3)), diffLen(rng) // val 0 a third of the time
			same(fmt.Sprintf("memory.fill %#x len %d", addr, ln), func(s *diffSubject) string {
				return s.invoke(t, ops.fill, uint64(addr), val, uint64(ln))
			})
		case k < 76:
			delta := uint64(rng.Intn(3))
			same("memory.grow", func(s *diffSubject) string {
				return s.invoke(t, ops.grow, delta) + s.invoke(t, ops.size)
			})
		case k < 82:
			// Bytes: mostly within a page, rarely a multi-page window
			// (which collapses the overlay). The window is writable.
			ln := uint32(rng.Intn(200))
			if rng.Intn(12) == 0 {
				ln = diffLen(rng)
			}
			fillByte := byte(rng.Intn(256))
			same(fmt.Sprintf("Bytes %#x len %d", addr, ln), func(s *diffSubject) string {
				win, ok := s.mem.Bytes(addr, ln)
				if !ok {
					return "oob"
				}
				was := string(win)
				for i := range win {
					win[i] = fillByte
				}
				return was
			})
		case k < 88:
			max := uint32(rng.Intn(400))
			same(fmt.Sprintf("ReadCString %#x max %d", addr, max), func(s *diffSubject) string {
				str, ok := s.mem.ReadCString(addr, max)
				return fmt.Sprint(str, ok)
			})
		case k < 92:
			payload := make([]byte, diffLen(rng))
			rng.Read(payload)
			same(fmt.Sprintf("WriteBytes %#x len %d", addr, len(payload)), func(s *diffSubject) string {
				return fmt.Sprint(s.mem.WriteBytes(addr, payload))
			})
		case k < 95:
			ln := diffLen(rng)
			same(fmt.Sprintf("ReadBytes %#x len %d", addr, ln), func(s *diffSubject) string {
				buf := make([]byte, ln)
				ok := s.mem.ReadBytes(addr, buf)
				return fmt.Sprint(ok, buf)
			})
		case k < 97:
			ln := diffLen(rng)
			same(fmt.Sprintf("ZeroRange %#x len %d", addr, ln), func(s *diffSubject) string {
				return fmt.Sprint(s.mem.ZeroRange(addr, ln))
			})
		default:
			src, ln := addr+uint32(rng.Intn(600))-300, diffLen(rng)
			same(fmt.Sprintf("CopyRange %#x<-%#x len %d", addr, src, ln), func(s *diffSubject) string {
				return fmt.Sprint(s.mem.CopyRange(addr, src, ln))
			})
		}
	}
	want := flat.mem.SnapshotBytes()
	for _, s := range subjects[1:] {
		if got := s.mem.SnapshotBytes(); !bytes.Equal(got, want) {
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			t.Fatalf("seq %d: %s differs from flat at byte %#x (len %d vs %d)", seq, s.name, i, len(got), len(want))
		}
	}
}

// TestOverlayStartsPageGranular pins the representation contract of a
// fresh instance: no flat buffer, only the pages the data segments cover
// are private, reads materialize nothing, and the first write to a clean
// page materializes exactly that page.
func TestOverlayStartsPageGranular(t *testing.T) {
	ops := buildMemOps(t)
	inst, err := ops.c.Instantiate(NewLinker())
	if err != nil {
		t.Fatal(err)
	}
	m := inst.Mem
	if !m.CowActive() || m.data != nil {
		t.Fatal("fresh private memory is not a bare overlay")
	}
	if m.Len() != diffMinPages*wasm.PageSize || m.Pages() != diffMinPages {
		t.Fatalf("size %d bytes / %d pages", m.Len(), m.Pages())
	}
	if d := m.DirtyPages(); d != 3 {
		t.Fatalf("dirty pages after instantiate = %d, want the 3 the data segments cover", d)
	}
	if s, ok := m.ReadCString(2*wasm.PageSize-5, 64); !ok || s != "straddling" {
		t.Fatalf("straddling data segment reads %q, %v", s, ok)
	}
	if v, ok := m.ReadU64(3 * wasm.PageSize); !ok || v != 0 || m.DirtyPages() != 3 {
		t.Fatalf("clean page read %d, %v, dirty %d", v, ok, m.DirtyPages())
	}
	if !m.ZeroRange(3*wasm.PageSize, wasm.PageSize) || m.DirtyPages() != 3 {
		t.Fatalf("zeroing a zero-backed page materialized it (dirty %d)", m.DirtyPages())
	}
	m.WriteU32(3*wasm.PageSize+8, 7)
	if m.DirtyPages() != 4 {
		t.Fatalf("dirty pages after one write = %d, want 4", m.DirtyPages())
	}
	// A fork-style clone keeps the form and shares nothing writable.
	c := m.Clone()
	if !c.CowActive() || c.DirtyPages() != 4 {
		t.Fatalf("clone: overlay %v, dirty %d", c.CowActive(), c.DirtyPages())
	}
	c.WriteU32(100, 0xFFFFFFFF)
	if s, _ := m.ReadCString(100, 64); s != "data segment on page zero" {
		t.Fatalf("clone's write reached the parent: %q", s)
	}
}

// BenchmarkMemoryForms prices the overlay barrier for a guest that never
// collapses: a load+add+store sweep over 1 MiB, the same code on a flat
// memory and on an un-collapsed overlay (all pages already private).
func BenchmarkMemoryForms(b *testing.B) {
	const pages = 16
	mb := wasm.NewBuilder("sweep")
	mb.Memory(pages, pages, false)
	f := mb.NewFunc("sweep", nil, nil)
	a := f.Local(wasm.I32)
	f.Loop()
	f.LocalGet(a).LocalGet(a).Load(wasm.OpI32Load, 0).I32Const(1).Op(wasm.OpI32Add).Store(wasm.OpI32Store, 0)
	f.LocalGet(a).I32Const(4).Op(wasm.OpI32Add).LocalTee(a)
	f.I32Const(pages * wasm.PageSize).Op(wasm.OpI32LtU).BrIf(0)
	f.End()
	sweep := f.Finish()
	m, err := mb.Build()
	if err != nil {
		b.Fatal(err)
	}
	c, err := Compile(m)
	if err != nil {
		b.Fatal(err)
	}
	for _, form := range []string{"flat", "overlay"} {
		b.Run(form, func(b *testing.B) {
			inst, err := c.Instantiate(NewLinker())
			if err != nil {
				b.Fatal(err)
			}
			if form == "flat" {
				inst.Mem.Materialize()
			}
			e := NewExec(inst)
			if _, err := e.Invoke(sweep); err != nil { // touch every page once
				b.Fatal(err)
			}
			if inst.Mem.CowActive() != (form == "overlay") {
				b.Fatal("memory is not in the form under test")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Invoke(sweep); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(pages*wasm.PageSize/4), "ns/iter")
		})
	}
}
