package core

import (
	"math/rand"
	"testing"

	"gowali/internal/interp"
	"gowali/internal/linux"
	"gowali/internal/wasm"
)

func testPool(t *testing.T) (*MmapPool, *interp.Memory) {
	t.Helper()
	mem := interp.NewMemory(wasm.Limits{Min: 2, Max: 64, HasMax: true})
	return NewMmapPool(mem), mem
}

func TestPoolMapUnmapBasics(t *testing.T) {
	p, mem := testPool(t)
	a, errno := p.Map(0, 10000, linux.PROT_READ|linux.PROT_WRITE, linux.MAP_ANONYMOUS|linux.MAP_PRIVATE, nil, 0)
	if errno != 0 {
		t.Fatalf("map: %v", errno)
	}
	if a%MapGranularity != 0 {
		t.Errorf("unaligned mapping %d", a)
	}
	if !mem.InRange(a, 10000) {
		t.Fatal("mapping outside memory")
	}
	// Contents zeroed.
	got := make([]byte, 10000)
	mem.ReadBytes(a, got)
	for i := 0; i < len(got); i += 997 {
		if got[i] != 0 {
			t.Fatalf("byte %d not zero", i)
		}
	}
	if errno := p.Unmap(a, 10000); errno != 0 {
		t.Fatalf("unmap: %v", errno)
	}
	if len(p.Regions()) != 0 {
		t.Fatalf("regions left: %v", p.Regions())
	}
}

func TestPoolGrowthLimit(t *testing.T) {
	p, _ := testPool(t)
	// Max is 64 pages = 4 MiB; a 16 MiB mapping must fail cleanly.
	if _, errno := p.Map(0, 16<<20, 0, linux.MAP_ANONYMOUS|linux.MAP_PRIVATE, nil, 0); errno != linux.ENOMEM {
		t.Fatalf("oversized map: %v, want ENOMEM", errno)
	}
}

func TestPoolRemap(t *testing.T) {
	p, mem := testPool(t)
	a, _ := p.Map(0, 8192, 0, linux.MAP_ANONYMOUS|linux.MAP_PRIVATE, nil, 0)
	mem.WriteU32(a, 0xABCD)
	// Grow.
	b, errno := p.Remap(a, 8192, 32768, linux.MREMAP_MAYMOVE)
	if errno != 0 {
		t.Fatalf("remap grow: %v", errno)
	}
	if v, _ := mem.ReadU32(b); v != 0xABCD {
		t.Fatal("contents lost on remap")
	}
	// Shrink.
	c, errno := p.Remap(b, 32768, 4096, 0)
	if errno != 0 || c != b {
		t.Fatalf("remap shrink: %d %v", c, errno)
	}
	// Remap of unmapped address fails.
	if _, errno := p.Remap(0x100000, 4096, 8192, linux.MREMAP_MAYMOVE); errno != linux.EFAULT {
		t.Fatalf("remap bogus: %v", errno)
	}
}

func TestPoolFixedMapping(t *testing.T) {
	p, _ := testPool(t)
	a, _ := p.Map(0, 4096, 0, linux.MAP_ANONYMOUS|linux.MAP_PRIVATE, nil, 0)
	// MAP_FIXED replaces the existing mapping.
	b, errno := p.Map(a, 4096, 0, linux.MAP_ANONYMOUS|linux.MAP_PRIVATE|linux.MAP_FIXED, nil, 0)
	if errno != 0 || b != a {
		t.Fatalf("fixed map: %d %v", b, errno)
	}
	if n := len(p.Regions()); n != 1 {
		t.Fatalf("%d regions after fixed remap", n)
	}
	// Unaligned fixed fails.
	if _, errno := p.Map(a+1, 4096, 0, linux.MAP_FIXED|linux.MAP_ANONYMOUS, nil, 0); errno != linux.EINVAL {
		t.Fatalf("unaligned fixed: %v", errno)
	}
}

func TestPoolBrk(t *testing.T) {
	p, mem := testPool(t)
	base := p.Brk(0)
	if base == 0 {
		t.Fatal("zero brk")
	}
	nb := p.Brk(base + 12345)
	if nb < base+12345 {
		t.Fatalf("brk did not grow: %d", nb)
	}
	if !mem.InRange(base, nb-base) {
		t.Fatal("brk outside memory")
	}
	// Shrinking below base is refused.
	if got := p.Brk(100); got != nb {
		t.Fatalf("bogus brk moved the break: %d", got)
	}
}

// TestPoolNonOverlapProperty: random map/unmap sequences never produce
// overlapping regions, and every region stays within memory bounds.
func TestPoolNonOverlapProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		p, mem := testPool(t)
		var live []uint32
		for op := 0; op < 200; op++ {
			if len(live) > 0 && rng.Intn(3) == 0 {
				i := rng.Intn(len(live))
				p.Unmap(live[i], 4096)
				live = append(live[:i], live[i+1:]...)
				continue
			}
			size := uint32(1+rng.Intn(4)) * 4096
			a, errno := p.Map(0, size, 0, linux.MAP_ANONYMOUS|linux.MAP_PRIVATE, nil, 0)
			if errno == linux.ENOMEM {
				continue
			}
			if errno != 0 {
				t.Fatalf("map: %v", errno)
			}
			live = append(live, a)
		}
		regions := p.Regions()
		for i := 1; i < len(regions); i++ {
			prev, cur := regions[i-1], regions[i]
			if prev.Addr+prev.Len > cur.Addr {
				t.Fatalf("trial %d: overlap %v / %v", trial, prev, cur)
			}
		}
		for _, r := range regions {
			if uint64(r.Addr)+uint64(r.Len) > uint64(mem.MaxLen) {
				t.Fatalf("region %v beyond max", r)
			}
		}
	}
}

func TestPoolFileBackedSync(t *testing.T) {
	w := New()
	kp := w.Kernel.NewProcess("t", nil, nil)
	fd, errno := kp.Open("/tmp/mapped", linux.O_CREAT|linux.O_RDWR, 0o644)
	if errno != 0 {
		t.Fatal(errno)
	}
	kp.Write(fd, []byte("0123456789abcdef"))
	file, _ := kp.FDs.Get(fd)

	mem := interp.NewMemory(wasm.Limits{Min: 2, Max: 64, HasMax: true})
	p := NewMmapPool(mem)
	a, errno := p.Map(0, 4096, linux.PROT_READ|linux.PROT_WRITE, linux.MAP_SHARED, file, 0)
	if errno != 0 {
		t.Fatalf("file map: %v", errno)
	}
	// File contents visible.
	got := make([]byte, 4)
	if mem.ReadBytes(a, got); string(got) != "0123" {
		t.Fatalf("mapped contents %q", got)
	}
	// Modify through memory, then msync → file updated.
	mem.WriteBytes(a, []byte("XYZ"))
	p.Sync(a, 4096)
	buf := make([]byte, 4)
	kp.Pread64(fd, buf, 0)
	if string(buf[:3]) != "XYZ" {
		t.Fatalf("write-back missing: %q", buf)
	}
}

func TestPoolBumpVsFreelist(t *testing.T) {
	// The ablation's correctness side: both allocators satisfy the same
	// sequence, but the bump allocator never reuses addresses.
	for _, bump := range []bool{true, false} {
		mem := interp.NewMemory(wasm.Limits{Min: 2, Max: 256, HasMax: true})
		p := NewMmapPool(mem)
		p.Bump = bump
		a1, _ := p.Map(0, 4096, 0, linux.MAP_ANONYMOUS|linux.MAP_PRIVATE, nil, 0)
		p.Unmap(a1, 4096)
		a2, errno := p.Map(0, 4096, 0, linux.MAP_ANONYMOUS|linux.MAP_PRIVATE, nil, 0)
		if errno != 0 {
			t.Fatalf("bump=%v: %v", bump, errno)
		}
		if bump && a2 == a1 {
			t.Error("bump allocator recycled an address")
		}
		if !bump && a2 != a1 {
			t.Errorf("free-list allocator failed to recycle (%d -> %d)", a1, a2)
		}
	}
}

func TestSigtableDeferIdentical(t *testing.T) {
	st := NewSigtable()
	if !st.beginHandler(linux.SIGUSR1, 0) {
		t.Fatal("first handler refused")
	}
	if st.beginHandler(linux.SIGUSR1, 0) {
		t.Fatal("identical signal not deferred without SA_NODEFER")
	}
	if !st.beginHandler(linux.SIGUSR1, linux.SA_NODEFER) {
		t.Fatal("SA_NODEFER did not permit nesting")
	}
	st.endHandler(linux.SIGUSR1)
	st.endHandler(linux.SIGUSR1)
	if !st.beginHandler(linux.SIGUSR1, 0) {
		t.Fatal("handler not re-armable after end")
	}
}
