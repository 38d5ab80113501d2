package interp

import (
	"bytes"
	"encoding/binary"
	"strings"
	"sync/atomic"

	"gowali/internal/wasm"
)

// Memory is a linear memory instance. It may be shared between multiple
// instances (WALI's instance-per-thread model); sharing callers synchronize
// through WALI futexes, matching Wasm's relaxed shared-memory expectations.
//
// A memory is in one of two forms. The page overlay (memory_cow.go) is how
// every private memory starts — instantiated, exec'd or restored: a page
// table over shared read-only pages in which only the pages the guest has
// written are private. The flat form is one contiguous buffer; an overlay
// collapses into it at the first memory.grow, mmap, thread share or
// multi-page Bytes window, and imported or declared-shared memories are
// flat from the start. Which form runs is decided by what the guest does.
type Memory struct {
	// data is the flat form's buffer. It is nil while the overlay is
	// active, so a direct access that bypassed the overlay panics
	// instead of reaching a shared page.
	data []byte
	// size is the current length in bytes, in either form.
	size   uint64
	MaxLen uint64 // bytes; cap on growth
	Shared bool

	// concurrent latches once a second thread shares this memory
	// (ShareForThread), whether or not the wasm declaration said shared.
	// While set, aligned 32/64-bit interpreter accesses go through
	// sync/atomic so futex-word protocols are sound under the Go memory
	// model (see atomicmem.go).
	concurrent atomic.Bool

	// Reserve, when set, gates the memory's private bytes against an
	// external budget: page materialization, collapse and growth call it
	// with the byte delta before allocating. Growth fails (-1, which
	// memory.grow and the embedder's mmap/brk paths surface as ENOMEM)
	// when it returns false; a refused page materialization traps.
	// Installed by the embedder per address space; Clone deliberately
	// does not copy it (a fork child joins its own accounting).
	Reserve func(delta int64) bool

	// OnCowFault, when set, is called after an overlay page is
	// materialized (slow path only — the per-access barrier never sees
	// it). The embedder uses it for observability: counting and tracing
	// page materializations per guest. Clone does not copy it.
	OnCowFault func(page int)

	// pages, when non-nil, is the overlay's page table and data is nil
	// (see memory_cow.go); dirty counts its private pages.
	pages []cowPage
	dirty int
}

// MarkConcurrent records that a second thread now shares this memory.
// An overlay collapses first: the atomic shared-memory access paths
// assume a single stable backing array.
func (m *Memory) MarkConcurrent() {
	m.mustMaterialize()
	m.concurrent.Store(true)
}

// racy reports whether accesses to this memory may be concurrent.
func (m *Memory) racy() bool { return m.Shared || m.concurrent.Load() }

// NewMemory allocates a flat memory from declared limits: the form for
// memories an embedder defines for import and for declared-shared ones.
// Shared memories are allocated at their maximum immediately (as most
// engines do for the threads proposal) so concurrent instances never
// observe a reallocated backing array.
func NewMemory(l wasm.Limits) *Memory {
	m := &Memory{
		size:   uint64(l.Min) * wasm.PageSize,
		MaxLen: maxBytes(l),
		Shared: l.Shared,
	}
	if l.Shared {
		m.size = m.MaxLen
	}
	m.data = make([]byte, m.size)
	return m
}

// maxBytes is the growth cap the limits declare, in bytes.
func maxBytes(l wasm.Limits) uint64 {
	if l.HasMax {
		return uint64(l.Max) * wasm.PageSize
	}
	return wasm.MaxPages * wasm.PageSize
}

// Len returns the current size in bytes.
func (m *Memory) Len() uint64 { return m.size }

// Pages returns the current size in 64 KiB pages.
func (m *Memory) Pages() uint32 { return uint32(m.size / wasm.PageSize) }

// Grow grows the memory by delta pages, returning the previous page count,
// or -1 if growth exceeds the maximum or the budget. Growing an overlay
// collapses it straight into the grown buffer.
func (m *Memory) Grow(delta uint32) int32 {
	old := m.Pages()
	newLen := m.size + uint64(delta)*wasm.PageSize
	if newLen > m.MaxLen {
		return -1
	}
	if delta > 0 && !m.reflat(newLen) {
		return -1
	}
	return int32(old)
}

// reflat moves the contents into a fresh flat buffer of newLen >= size
// bytes, ending the overlay if one is active. The budget is charged once,
// for the overlay's clean pages plus the growth; on refusal nothing
// changes.
func (m *Memory) reflat(newLen uint64) bool {
	charge := int64(newLen-m.size) + int64(len(m.pages)-m.dirty)*cowPageSize
	if charge > 0 && m.Reserve != nil && !m.Reserve(charge) {
		return false
	}
	buf := make([]byte, newLen)
	m.composeInto(buf)
	m.data, m.size, m.pages, m.dirty = buf, newLen, nil, 0
	return true
}

// composeInto copies the current contents into dst, which must be zeroed
// and at least size bytes long.
func (m *Memory) composeInto(dst []byte) {
	if m.pages == nil {
		copy(dst, m.data)
		return
	}
	for p := range m.pages {
		if pg := &m.pages[p]; pg.state != pageZero {
			copy(dst[p<<cowPageShift:], pg.b)
		}
	}
}

// InRange reports whether [addr, addr+size) is within memory. size may be 0.
func (m *Memory) InRange(addr, size uint32) bool {
	return uint64(addr)+uint64(size) <= m.size
}

// Bytes returns the byte window [addr, addr+size) of linear memory, or a
// trap-equivalent false when out of range. This is the address-space
// translation primitive WALI uses for zero-copy syscalls: the returned
// slice aliases module memory.
func (m *Memory) Bytes(addr, size uint32) ([]byte, bool) {
	if !m.InRange(addr, size) {
		return nil, false
	}
	if m.pages != nil {
		// The caller gets a writable alias, so the window must live in
		// private pages. Within one page that costs one materialization;
		// a window straddling pages needs a contiguous buffer, which only
		// the flat form provides.
		if size == 0 {
			return zeroPage[:0:0], true
		}
		end := uint64(addr) + uint64(size)
		if uint64(addr)>>cowPageShift == (end-1)>>cowPageShift {
			pg := m.writablePage(uint64(addr) >> cowPageShift)
			off := addr & (cowPageSize - 1)
			return pg[off : uint64(off)+uint64(size)], true
		}
		if !m.Materialize() {
			return nil, false
		}
	}
	return m.data[addr : uint64(addr)+uint64(size)], true
}

// ReadU32 loads a little-endian u32 at addr. Reading through the overlay
// does not materialize the page.
func (m *Memory) ReadU32(addr uint32) (uint32, bool) {
	if !m.InRange(addr, 4) {
		return 0, false
	}
	if m.pages != nil {
		return m.cowLoad32(uint64(addr)), true
	}
	return binary.LittleEndian.Uint32(m.data[addr:]), true
}

// ReadU64 loads a little-endian u64 at addr.
func (m *Memory) ReadU64(addr uint32) (uint64, bool) {
	if !m.InRange(addr, 8) {
		return 0, false
	}
	if m.pages != nil {
		return m.cowLoad64(uint64(addr)), true
	}
	return binary.LittleEndian.Uint64(m.data[addr:]), true
}

// WriteU32 stores a little-endian u32 at addr.
func (m *Memory) WriteU32(addr uint32, v uint32) bool {
	if !m.InRange(addr, 4) {
		return false
	}
	if m.pages != nil {
		m.cowStore32(uint64(addr), v)
		return true
	}
	binary.LittleEndian.PutUint32(m.data[addr:], v)
	return true
}

// WriteU64 stores a little-endian u64 at addr.
func (m *Memory) WriteU64(addr uint32, v uint64) bool {
	if !m.InRange(addr, 8) {
		return false
	}
	if m.pages != nil {
		m.cowStore64(uint64(addr), v)
		return true
	}
	binary.LittleEndian.PutUint64(m.data[addr:], v)
	return true
}

// ReadCString reads a NUL-terminated string starting at addr, bounded by
// maxLen bytes, returning the string without the terminator. It fails
// when no terminator lies within the bound and the memory.
func (m *Memory) ReadCString(addr uint32, maxLen uint32) (string, bool) {
	end := min(uint64(addr)+uint64(maxLen), m.size)
	if uint64(addr) >= end {
		return "", false
	}
	if m.pages == nil {
		win := m.data[addr:end]
		n := bytes.IndexByte(win, 0)
		if n < 0 {
			return "", false
		}
		return string(win[:n]), true
	}
	// Overlay: find the terminator page by page, then build the string
	// in one allocation.
	n := -1
	for a := uint64(addr); a < end && n < 0; {
		chunk := m.pageFrom(a, end-a)
		if i := bytes.IndexByte(chunk, 0); i >= 0 {
			n = int(a-uint64(addr)) + i
		}
		a += uint64(len(chunk))
	}
	if n < 0 {
		return "", false
	}
	if first := m.pageFrom(uint64(addr), uint64(n)); len(first) == n {
		return string(first), true
	}
	var sb strings.Builder
	sb.Grow(n)
	for a := uint64(addr); sb.Len() < n; {
		chunk := m.pageFrom(a, uint64(n-sb.Len()))
		sb.Write(chunk)
		a += uint64(len(chunk))
	}
	return sb.String(), true
}

// Clone returns a deep copy of the memory in the same form; used by fork.
// An overlay's child shares the clean pages and copies the private ones,
// so a fork pays for what the parent had written, not for its size.
func (m *Memory) Clone() *Memory {
	c := &Memory{size: m.size, MaxLen: m.MaxLen, Shared: m.Shared}
	if m.pages == nil {
		c.data = m.SnapshotBytes()
		return c
	}
	c.pages = append([]cowPage(nil), m.pages...)
	c.dirty = m.dirty
	for p := range c.pages {
		if pg := &c.pages[p]; pg.state == pageOwn {
			pg.b = append([]byte(nil), pg.b...)
		}
	}
	return c
}

// Concurrent reports whether this memory is (or ever was) shared between
// threads. Snapshot excludes multi-threaded guests: their sibling
// threads' execution state cannot be captured from one safepoint.
func (m *Memory) Concurrent() bool { return m.racy() }
