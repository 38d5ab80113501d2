package interp

import (
	"encoding/binary"

	"gowali/internal/wasm"
)

// The page overlay: linear memory as a table of 64 KiB wasm pages, each
// either shared and read-only or private to this memory. Every private
// memory starts here, over one of two bases:
//
//   - the zero page (newOverlayMemory): a fresh instance's clean pages all
//     read from one process-wide page of zeroes, and instantiation writes
//     the data segments through the overlay, so a start pays only for the
//     pages they cover;
//   - a frozen image (NewCowMemory): a restored guest's clean pages are
//     slices of the snapshot's bytes, shared by every restore of it.
//
// Reads index the table and never copy. The first write to a clean page
// gives it a private copy ("materializes" it) and charges the memory
// budget for exactly that page — so N guests started from one module or
// image share every page none of them touched, and tenant accounting sees
// only the dirtied delta. No contiguous full-size buffer exists while the
// overlay is active.
//
// Invariants:
//   - pages != nil implies the memory is private to one guest thread:
//     MarkConcurrent (thread spawn) collapses the overlay first, so the
//     shared-memory atomic paths never race with the overlay.
//   - While pages != nil, data is nil; every access path in the engine
//     and the embedder branches on pages first (sharedLoad*/sharedStore*,
//     memLoad*/memStore*, memory.copy/fill, Bytes and the bulk helpers),
//     and one that did not would panic rather than write a shared page.
//   - size, not the backing, is authoritative for bounds checks (effAddr,
//     InRange).
//
// The inactive cost of the barrier is a single predictable nil check on
// each memory access; BenchmarkInterpreter guards it at ≤2%.
type cowPage struct {
	b     []byte // what reads of this page see; always cowPageSize long
	state pageState
}

type pageState uint8

const (
	pageZero   pageState = iota // clean, b is the zero page
	pageShared                  // clean, b is a page of a frozen image
	pageOwn                     // private: b may be written
)

const (
	cowPageShift = 16 // 64 KiB, the wasm page size
	cowPageSize  = wasm.PageSize
)

// zeroPage backs every clean page that has no image behind it. It lives
// in the binary's zero-initialized data, not the heap, and is never
// written: the only writable slices the overlay hands out are pageOwn.
var zeroPage [cowPageSize]byte

// newOverlayMemory builds the memory of a fresh instance: min pages that
// all read as zero and cost nothing until written.
func newOverlayMemory(l wasm.Limits) *Memory {
	m := &Memory{
		size:   uint64(l.Min) * wasm.PageSize,
		MaxLen: maxBytes(l),
		pages:  make([]cowPage, l.Min),
	}
	for p := range m.pages {
		m.pages[p].b = zeroPage[:]
	}
	return m
}

// NewCowMemory builds an overlay over a frozen base image. base must not
// be mutated for the life of any memory built over it; its length must be
// a non-zero multiple of the wasm page size. reserve (nil ok) gates page
// materialization and growth against an external budget, charged one page
// at a time as pages are dirtied.
func NewCowMemory(base []byte, maxLen uint64, reserve func(int64) bool) *Memory {
	m := &Memory{
		size:    uint64(len(base)),
		MaxLen:  maxLen,
		Reserve: reserve,
		pages:   make([]cowPage, len(base)/cowPageSize),
	}
	for p := range m.pages {
		lo := p << cowPageShift
		m.pages[p] = cowPage{b: base[lo : lo+cowPageSize : lo+cowPageSize], state: pageShared}
	}
	return m
}

// CowActive reports whether this memory is still a page overlay.
func (m *Memory) CowActive() bool { return m.pages != nil }

// DirtyPages returns the number of private pages: the materialized ones
// while the overlay is active, every page once it has collapsed.
func (m *Memory) DirtyPages() int {
	if m.pages == nil {
		return int(m.size / cowPageSize)
	}
	return m.dirty
}

// pageFrom returns the readable bytes of the page holding address a, from
// a to the end of the page or max bytes, whichever is shorter.
func (m *Memory) pageFrom(a, max uint64) []byte {
	b := m.pages[a>>cowPageShift].b[a&(cowPageSize-1):]
	if uint64(len(b)) > max {
		b = b[:max]
	}
	return b
}

// writablePage is the store barrier: page p's private bytes, materialized
// on first use.
func (m *Memory) writablePage(p uint64) []byte {
	if pg := &m.pages[p]; pg.state == pageOwn {
		return pg.b
	}
	return m.materializePage(p)
}

// materializePage gives the clean page p a private copy, charging the
// budget. A zero-backed page needs no copy: the allocation is its image.
// Traps on budget exhaustion — the overlay's analogue of the OOM killer:
// the write that needed the page cannot be expressed as a syscall error.
func (m *Memory) materializePage(p uint64) []byte {
	if m.Reserve != nil && !m.Reserve(cowPageSize) {
		Throw(TrapMemBudget, "copy-on-write page %d: tenant memory budget exhausted", p)
	}
	pg := &m.pages[p]
	b := make([]byte, cowPageSize)
	if pg.state == pageShared {
		copy(b, pg.b)
	}
	pg.b, pg.state = b, pageOwn
	m.dirty++
	if m.OnCowFault != nil {
		m.OnCowFault(int(p))
	}
	return b
}

// Materialize collapses the overlay into a fresh flat buffer. Needed when
// a caller requires a stable contiguous view (multi-page Bytes windows,
// thread sharing; memory.grow collapses into the grown buffer directly).
// Returns false when the budget refuses the remaining clean pages.
func (m *Memory) Materialize() bool {
	return m.pages == nil || m.reflat(m.size)
}

// mustMaterialize is Materialize for engine paths with no error channel.
func (m *Memory) mustMaterialize() {
	if !m.Materialize() {
		Throw(TrapMemBudget, "copy-on-write collapse: tenant memory budget exhausted")
	}
}

// SnapshotBytes returns a private full copy of the current memory
// contents — the image a snapshot embeds.
func (m *Memory) SnapshotBytes() []byte {
	out := make([]byte, m.size)
	m.composeInto(out)
	return out
}

// cowReadInto fills b from [addr, addr+len(b)), crossing pages as needed.
// Bounds must have been checked.
func (m *Memory) cowReadInto(b []byte, addr uint64) {
	for len(b) > 0 {
		n := copy(b, m.pageFrom(addr, uint64(len(b))))
		b = b[n:]
		addr += uint64(n)
	}
}

// cowWriteFrom stores b at [addr, addr+len(b)), materializing each page.
func (m *Memory) cowWriteFrom(b []byte, addr uint64) {
	for len(b) > 0 {
		n := copy(m.writablePage(addr >> cowPageShift)[addr&(cowPageSize-1):], b)
		b = b[n:]
		addr += uint64(n)
	}
}

// Scalar loads/stores. The n-byte access at a fits within one page when
// the first and last byte share a page index; the split case is rare
// (unaligned access straddling a 64 KiB boundary) and handled byte-wise.

func (m *Memory) cowLoad8(a uint64) byte {
	return m.pages[a>>cowPageShift].b[a&(cowPageSize-1)]
}

func (m *Memory) cowLoad16(a uint64) uint16 {
	if a>>cowPageShift == (a+1)>>cowPageShift {
		return binary.LittleEndian.Uint16(m.pages[a>>cowPageShift].b[a&(cowPageSize-1):])
	}
	var b [2]byte
	m.cowReadInto(b[:], a)
	return binary.LittleEndian.Uint16(b[:])
}

func (m *Memory) cowLoad32(a uint64) uint32 {
	if a>>cowPageShift == (a+3)>>cowPageShift {
		return binary.LittleEndian.Uint32(m.pages[a>>cowPageShift].b[a&(cowPageSize-1):])
	}
	var b [4]byte
	m.cowReadInto(b[:], a)
	return binary.LittleEndian.Uint32(b[:])
}

func (m *Memory) cowLoad64(a uint64) uint64 {
	if a>>cowPageShift == (a+7)>>cowPageShift {
		return binary.LittleEndian.Uint64(m.pages[a>>cowPageShift].b[a&(cowPageSize-1):])
	}
	var b [8]byte
	m.cowReadInto(b[:], a)
	return binary.LittleEndian.Uint64(b[:])
}

func (m *Memory) cowStore8(a uint64, v byte) {
	m.writablePage(a >> cowPageShift)[a&(cowPageSize-1)] = v
}

func (m *Memory) cowStore16(a uint64, v uint16) {
	if a>>cowPageShift == (a+1)>>cowPageShift {
		binary.LittleEndian.PutUint16(m.writablePage(a >> cowPageShift)[a&(cowPageSize-1):], v)
		return
	}
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], v)
	m.cowWriteFrom(b[:], a)
}

func (m *Memory) cowStore32(a uint64, v uint32) {
	if a>>cowPageShift == (a+3)>>cowPageShift {
		binary.LittleEndian.PutUint32(m.writablePage(a >> cowPageShift)[a&(cowPageSize-1):], v)
		return
	}
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	m.cowWriteFrom(b[:], a)
}

func (m *Memory) cowStore64(a uint64, v uint64) {
	if a>>cowPageShift == (a+7)>>cowPageShift {
		binary.LittleEndian.PutUint64(m.writablePage(a >> cowPageShift)[a&(cowPageSize-1):], v)
		return
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	m.cowWriteFrom(b[:], a)
}

// cowCopyWithin implements memory.copy over the overlay without
// collapsing it and without a temporary: chunks that stay inside one
// source page and one destination page are moved in the direction that
// never overwrites source bytes not yet read, like memmove. The
// destination page is materialized before the source page is looked up,
// so when both are the same page the chunk is a memmove within its
// private copy.
func (m *Memory) cowCopyWithin(dst, src uint32, ln uint32) {
	d, s, rem := uint64(dst), uint64(src), uint64(ln)
	if d <= s || d >= s+rem {
		for rem > 0 {
			n := min(rem, cowPageSize-d&(cowPageSize-1), cowPageSize-s&(cowPageSize-1))
			to := m.writablePage(d >> cowPageShift)[d&(cowPageSize-1):]
			copy(to[:n], m.pageFrom(s, n))
			d, s, rem = d+n, s+n, rem-n
		}
		return
	}
	// src < dst < src+ln: walk down from the end.
	for rem > 0 {
		de, se := d+rem, s+rem // exclusive ends of what is left
		n := min(rem, (de-1)&(cowPageSize-1)+1, (se-1)&(cowPageSize-1)+1)
		to := m.writablePage((de - n) >> cowPageShift)[(de-n)&(cowPageSize-1):]
		copy(to[:n], m.pageFrom(se-n, n))
		rem -= n
	}
}

// cowFill implements memory.fill over the overlay. Zeroing a page that
// still reads from the zero page changes nothing and materializes
// nothing.
func (m *Memory) cowFill(dst uint32, val byte, ln uint32) {
	a := uint64(dst)
	for rem := uint64(ln); rem > 0; {
		p := a >> cowPageShift
		off := a & (cowPageSize - 1)
		n := min(rem, cowPageSize-off)
		if val != 0 || m.pages[p].state != pageZero {
			fillBytes(m.writablePage(p)[off:off+n], val)
		}
		a += n
		rem -= n
	}
}

// memLoad8..memStore16 are the engine's byte/halfword access paths with
// the overlay barrier folded in; 32/64-bit accesses barrier inside
// sharedLoad*/sharedStore* (atomicmem.go).

func memLoad8(m *Memory, a uint64) byte {
	if m.pages != nil {
		return m.cowLoad8(a)
	}
	return m.data[a]
}

func memLoad16(m *Memory, a uint64) uint16 {
	if m.pages != nil {
		return m.cowLoad16(a)
	}
	return binary.LittleEndian.Uint16(m.data[a:])
}

func memStore8(m *Memory, a uint64, v byte) {
	if m.pages != nil {
		m.cowStore8(a, v)
		return
	}
	m.data[a] = v
}

func memStore16(m *Memory, a uint64, v uint16) {
	if m.pages != nil {
		m.cowStore16(a, v)
		return
	}
	binary.LittleEndian.PutUint16(m.data[a:], v)
}

// Bulk helpers: the form-independent way for engine-adjacent code (data
// segments, the mmap pool, embedders staging arguments) to move bytes in
// and out of linear memory. Bounds are checked; all return false on
// out-of-range instead of panicking.

// ReadBytes fills b from [addr, addr+len(b)) without materializing
// anything.
func (m *Memory) ReadBytes(addr uint32, b []byte) bool {
	if uint64(addr)+uint64(len(b)) > m.size {
		return false
	}
	if m.pages != nil {
		m.cowReadInto(b, uint64(addr))
		return true
	}
	copy(b, m.data[addr:])
	return true
}

// WriteBytes copies b into memory at addr, dirtying exactly the pages it
// touches while the overlay is active.
func (m *Memory) WriteBytes(addr uint32, b []byte) bool {
	if uint64(addr)+uint64(len(b)) > m.size {
		return false
	}
	if m.pages != nil {
		m.cowWriteFrom(b, uint64(addr))
		return true
	}
	copy(m.data[addr:], b)
	return true
}

// FillRange sets [addr, addr+ln) to val (memory.fill; with val 0, mmap's
// fresh-mapping and brk-growth semantics).
func (m *Memory) FillRange(addr uint32, val byte, ln uint32) bool {
	if !m.InRange(addr, ln) {
		return false
	}
	if m.pages != nil {
		m.cowFill(addr, val, ln)
		return true
	}
	fillBytes(m.data[addr:uint64(addr)+uint64(ln)], val)
	return true
}

// fillBytes sets every byte of b to val at memmove speed: the runtime's
// clear for zero, otherwise a seed byte doubled across the slice.
func fillBytes(b []byte, val byte) {
	if val == 0 || len(b) == 0 {
		clear(b)
		return
	}
	b[0] = val
	for n := 1; n < len(b); n *= 2 {
		copy(b[n:], b[:n])
	}
}

// ZeroRange zeroes [addr, addr+ln).
func (m *Memory) ZeroRange(addr, ln uint32) bool { return m.FillRange(addr, 0, ln) }

// CopyRange copies ln bytes from src to dst within this memory, with
// memmove semantics (memory.copy, mremap's move path).
func (m *Memory) CopyRange(dst, src, ln uint32) bool {
	if !m.InRange(dst, ln) || !m.InRange(src, ln) {
		return false
	}
	if m.pages != nil {
		m.cowCopyWithin(dst, src, ln)
		return true
	}
	copy(m.data[dst:uint64(dst)+uint64(ln)], m.data[src:uint64(src)+uint64(ln)])
	return true
}
