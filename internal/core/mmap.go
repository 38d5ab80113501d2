package core

import (
	"sort"
	"sync"

	"gowali/internal/interp"
	"gowali/internal/kernel"
	"gowali/internal/linux"
	"gowali/internal/wasm"
)

// MmapPool manages mmap allocations inside a module's linear memory
// (§3.2 "Memory Management"). The pool occupies the address range above
// the module's initial memory; the engine grows linear memory on demand up
// to the declared maximum, failing with -ENOMEM beyond it.
//
// Two allocator strategies are provided: the paper's single-bump variant
// ("mapping a region in the engine at most once... a single bookkeeping
// variable") and a first-fit free-list variant anticipated as the "future
// implementation"; an ablation bench compares them. The free list is the
// default since real workloads unmap.
type MmapPool struct {
	mu   sync.Mutex
	mem  *interp.Memory
	base uint32 // pool start (page aligned); 0 until first allocation
	brk  uint32 // current program break for brk(2), inside the pool

	// Bump, when true, selects the paper's single-variable allocator:
	// munmap unmaps but never recycles addresses.
	Bump    bool
	bumpTop uint32

	regions []*Region
}

// MapGranularity is the mmap allocation granularity (matches Linux's 4 KiB
// pages rather than Wasm's 64 KiB pages; mappings are byte ranges inside
// linear memory so the small granularity is free).
const MapGranularity = 4096

// Region is one live mapping.
type Region struct {
	Addr   uint32
	Len    uint32
	Prot   int32
	Flags  int32
	File   kernel.File // non-nil for file-backed mappings
	Offset int64
}

// NewMmapPool creates a pool over mem.
func NewMmapPool(mem *interp.Memory) *MmapPool {
	return &MmapPool{mem: mem}
}

// CloneFor duplicates pool bookkeeping for a forked child whose memory is
// mem (a copy of the parent's). File handles are shared, like fd tables.
func (p *MmapPool) CloneFor(mem *interp.Memory) *MmapPool {
	p.mu.Lock()
	defer p.mu.Unlock()
	c := &MmapPool{
		mem:     mem,
		base:    p.base,
		brk:     p.brk,
		Bump:    p.Bump,
		bumpTop: p.bumpTop,
	}
	for _, r := range p.regions {
		cr := *r
		c.regions = append(c.regions, &cr)
	}
	return c
}

func pageUp(v uint32) uint32 {
	return (v + MapGranularity - 1) &^ (MapGranularity - 1)
}

// ensureBase lazily sets the pool base to the current memory size.
func (p *MmapPool) ensureBase() {
	if p.base == 0 {
		p.base = pageUp(uint32(p.mem.Len()))
		if p.base == 0 {
			p.base = MapGranularity
		}
		p.bumpTop = p.base
		p.brk = p.base
	}
}

// ensureMemory grows linear memory to cover [0, end).
func (p *MmapPool) ensureMemory(end uint32) linux.Errno {
	need := uint64(end)
	cur := p.mem.Len()
	if need <= cur {
		return 0
	}
	deltaPages := uint32((need - cur + wasm.PageSize - 1) / wasm.PageSize)
	if p.mem.Grow(deltaPages) < 0 {
		return linux.ENOMEM
	}
	return 0
}

// findGap locates a free range of length ln (first fit above base).
func (p *MmapPool) findGap(ln uint32) (uint32, linux.Errno) {
	if p.Bump {
		addr := p.bumpTop
		p.bumpTop += ln
		return addr, 0
	}
	sort.Slice(p.regions, func(i, j int) bool { return p.regions[i].Addr < p.regions[j].Addr })
	cand := p.base
	for _, r := range p.regions {
		if r.Addr >= cand+ln {
			break
		}
		if r.Addr+r.Len > cand {
			cand = pageUp(r.Addr + r.Len)
		}
	}
	if uint64(cand)+uint64(ln) > uint64(p.mem.MaxLen) {
		return 0, linux.ENOMEM
	}
	return cand, 0
}

// overlaps reports any region intersecting [addr, addr+ln).
func (p *MmapPool) overlaps(addr, ln uint32) bool {
	for _, r := range p.regions {
		if addr < r.Addr+r.Len && r.Addr < addr+ln {
			return true
		}
	}
	return false
}

// Map implements mmap: fixed or allocated placement, anonymous or
// file-backed. Returns the mapped address.
func (p *MmapPool) Map(addr uint32, length uint32, prot, flags int32, file kernel.File, offset int64) (uint32, linux.Errno) {
	if length == 0 {
		return 0, linux.EINVAL
	}
	ln := pageUp(length)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.ensureBase()

	if flags&linux.MAP_FIXED != 0 {
		if addr%MapGranularity != 0 || addr < p.base {
			return 0, linux.EINVAL
		}
		// Fixed mappings replace whatever is there (Linux semantics).
		p.removeRangeLocked(addr, ln, true)
	} else {
		var errno linux.Errno
		addr, errno = p.findGap(ln)
		if errno != 0 {
			return 0, errno
		}
	}
	if errno := p.ensureMemory(addr + ln); errno != 0 {
		return 0, errno
	}

	// Fresh anonymous contents are zero; MAP_FIXED reuse must re-zero.
	// All content moves go through the Memory bulk helpers, which work
	// on either form: a guest still on the page overlay dirties the pages
	// its mappings touch instead of writing through a shared one.
	p.mem.ZeroRange(addr, ln)
	if file != nil && flags&linux.MAP_ANONYMOUS == 0 {
		buf := make([]byte, ln)
		n, errno := file.Pread(buf, offset)
		if errno != 0 && n == 0 {
			return 0, errno
		}
		p.mem.WriteBytes(addr, buf[:n])
	}
	p.regions = append(p.regions, &Region{
		Addr: addr, Len: ln, Prot: prot, Flags: flags, File: file, Offset: offset,
	})
	return addr, 0
}

func zero(b []byte) {
	for i := range b {
		b[i] = 0
	}
}

// removeRangeLocked drops (and optionally syncs) all regions intersecting
// the range. Partial overlaps split.
func (p *MmapPool) removeRangeLocked(addr, ln uint32, sync bool) {
	var keep []*Region
	for _, r := range p.regions {
		if addr >= r.Addr+r.Len || r.Addr >= addr+ln {
			keep = append(keep, r)
			continue
		}
		if sync {
			p.syncRegionLocked(r)
		}
		// Left remainder.
		if r.Addr < addr {
			left := *r
			left.Len = addr - r.Addr
			keep = append(keep, &left)
		}
		// Right remainder.
		if r.Addr+r.Len > addr+ln {
			right := *r
			right.Offset += int64(addr + ln - r.Addr)
			right.Len = r.Addr + r.Len - (addr + ln)
			right.Addr = addr + ln
			keep = append(keep, &right)
		}
	}
	p.regions = keep
}

// syncRegionLocked writes back a MAP_SHARED file mapping.
func (p *MmapPool) syncRegionLocked(r *Region) {
	if r.File == nil || r.Flags&linux.MAP_SHARED == 0 {
		return
	}
	buf := make([]byte, r.Len)
	if p.mem.ReadBytes(r.Addr, buf) {
		r.File.Pwrite(buf, r.Offset)
	}
}

// Unmap implements munmap.
func (p *MmapPool) Unmap(addr, length uint32) linux.Errno {
	if addr%MapGranularity != 0 || length == 0 {
		return linux.EINVAL
	}
	ln := pageUp(length)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.removeRangeLocked(addr, ln, true)
	return 0
}

// Remap implements mremap (always MAYMOVE in this pool).
func (p *MmapPool) Remap(oldAddr, oldLen, newLen uint32, flags int32) (uint32, linux.Errno) {
	if oldAddr%MapGranularity != 0 || newLen == 0 {
		return 0, linux.EINVAL
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	var reg *Region
	for _, r := range p.regions {
		if r.Addr == oldAddr {
			reg = r
			break
		}
	}
	if reg == nil {
		return 0, linux.EFAULT
	}
	oldSz := reg.Len
	newSz := pageUp(newLen)
	if newSz <= oldSz {
		// Shrink in place.
		p.removeRangeLocked(oldAddr+newSz, oldSz-newSz, false)
		return oldAddr, 0
	}
	// Try growing in place.
	if !p.overlapsOther(reg, oldAddr+oldSz, newSz-oldSz) &&
		uint64(oldAddr)+uint64(newSz) <= uint64(p.mem.MaxLen) {
		if errno := p.ensureMemory(oldAddr + newSz); errno != 0 {
			return 0, errno
		}
		p.mem.ZeroRange(oldAddr+oldSz, newSz-oldSz)
		reg.Len = newSz
		return oldAddr, 0
	}
	if flags&linux.MREMAP_MAYMOVE == 0 {
		return 0, linux.ENOMEM
	}
	// Move: allocate, copy, free.
	newAddr, errno := p.findGap(newSz)
	if errno != 0 {
		return 0, errno
	}
	if errno := p.ensureMemory(newAddr + newSz); errno != 0 {
		return 0, errno
	}
	p.mem.ZeroRange(newAddr+oldSz, newSz-oldSz)
	p.mem.CopyRange(newAddr, oldAddr, oldSz)
	moved := *reg
	moved.Addr = newAddr
	moved.Len = newSz
	p.removeRangeLocked(oldAddr, oldSz, false)
	p.regions = append(p.regions, &moved)
	return newAddr, 0
}

func (p *MmapPool) overlapsOther(self *Region, addr, ln uint32) bool {
	for _, r := range p.regions {
		if r == self {
			continue
		}
		if addr < r.Addr+r.Len && r.Addr < addr+ln {
			return true
		}
	}
	return false
}

// Protect implements mprotect: the range must be mapped. PROT_EXEC is
// accepted but meaningless — linear memory is never executable (§3.6:
// code-injection via mapping is impossible by construction).
func (p *MmapPool) Protect(addr, length uint32, prot int32) linux.Errno {
	if addr%MapGranularity != 0 {
		return linux.EINVAL
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	ln := pageUp(length)
	for _, r := range p.regions {
		if addr >= r.Addr && addr+ln <= r.Addr+r.Len {
			r.Prot = prot
			return 0
		}
	}
	// Linux tolerates mprotect on the data segment; ranges below the
	// pool belong to the module's own data/stack.
	if addr+ln <= p.base {
		return 0
	}
	return linux.ENOMEM
}

// Sync implements msync for MAP_SHARED file mappings.
func (p *MmapPool) Sync(addr, length uint32) linux.Errno {
	p.mu.Lock()
	defer p.mu.Unlock()
	ln := pageUp(length)
	for _, r := range p.regions {
		if addr < r.Addr+r.Len && r.Addr < addr+ln {
			p.syncRegionLocked(r)
		}
	}
	return 0
}

// Brk implements brk(2): addr 0 queries; otherwise the break moves,
// bounded by the pool.
func (p *MmapPool) Brk(addr uint32) uint32 {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.ensureBase()
	if addr == 0 {
		return p.brk
	}
	if addr < p.base {
		return p.brk
	}
	end := pageUp(addr)
	if p.overlaps(p.brk, end-p.brk) {
		return p.brk
	}
	if p.ensureMemory(end) != 0 {
		return p.brk
	}
	if end > p.brk {
		p.mem.ZeroRange(p.brk, end-p.brk)
	}
	p.brk = end
	return p.brk
}

// Regions returns a snapshot of live mappings (tests, diagnostics).
func (p *MmapPool) Regions() []Region {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]Region, 0, len(p.regions))
	for _, r := range p.regions {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}
