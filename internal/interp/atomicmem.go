package interp

import (
	"encoding/binary"
	"sync/atomic"
	"unsafe"
)

// Shared-memory atomics. Wasm threads (instance-per-thread over one
// Memory) synchronize through WALI futexes, but the futex protocol itself
// needs the guest's plain loads/stores on the futex word to be atomic at
// the host level: a waiter spinning on `i32.load word` races with the
// waker's `i32.store word` otherwise (flagged by the Go race detector,
// and formally undefined under the Go memory model). For Shared memories
// the interpreter therefore routes naturally-aligned 32/64-bit accesses
// through sync/atomic; unshared memories keep the plain fast path.
//
// Linear memory is little-endian by spec while sync/atomic operates on
// native-endian words, so the helpers byte-swap on big-endian hosts to
// stay bit-compatible with the binary.LittleEndian accesses used
// everywhere else.

// hostBigEndian is detected once; Go supports few BE targets (s390x,
// mips), but correctness there is cheap to keep.
var hostBigEndian = func() bool {
	var probe uint16 = 1
	return *(*byte)(unsafe.Pointer(&probe)) == 0
}()

func bswap32(v uint32) uint32 {
	return v<<24 | (v&0xff00)<<8 | (v>>8)&0xff00 | v>>24
}

func bswap64(v uint64) uint64 {
	return uint64(bswap32(uint32(v)))<<32 | uint64(bswap32(uint32(v>>32)))
}

// atomicLoadLEU32 atomically loads the little-endian u32 at b[0:4].
// b[0] must be 4-byte aligned (guaranteed for aligned offsets into the
// 8-aligned backing array of a Memory).
func atomicLoadLEU32(b *byte) uint32 {
	v := atomic.LoadUint32((*uint32)(unsafe.Pointer(b)))
	if hostBigEndian {
		v = bswap32(v)
	}
	return v
}

// atomicStoreLEU32 atomically stores v little-endian at b[0:4].
func atomicStoreLEU32(b *byte, v uint32) {
	if hostBigEndian {
		v = bswap32(v)
	}
	atomic.StoreUint32((*uint32)(unsafe.Pointer(b)), v)
}

// atomicLoadLEU64 atomically loads the little-endian u64 at b[0:8];
// b[0] must be 8-byte aligned.
func atomicLoadLEU64(b *byte) uint64 {
	v := atomic.LoadUint64((*uint64)(unsafe.Pointer(b)))
	if hostBigEndian {
		v = bswap64(v)
	}
	return v
}

// atomicStoreLEU64 atomically stores v little-endian at b[0:8].
func atomicStoreLEU64(b *byte, v uint64) {
	if hostBigEndian {
		v = bswap64(v)
	}
	atomic.StoreUint64((*uint64)(unsafe.Pointer(b)), v)
}

// sharedLoadU32 reads a u32 from memory, atomically when the memory is
// shared and the address naturally aligned. The leading cow check is the
// copy-on-write read barrier (a cow memory is never concurrent:
// MarkConcurrent collapses the overlay first).
func sharedLoadU32(m *Memory, a uint64) uint32 {
	if m.pages != nil {
		return m.cowLoad32(a)
	}
	if a&3 == 0 && m.racy() {
		return atomicLoadLEU32(&m.data[a])
	}
	return binary.LittleEndian.Uint32(m.data[a:])
}

// sharedStoreU32 writes a u32, atomically when shared and aligned.
func sharedStoreU32(m *Memory, a uint64, v uint32) {
	if m.pages != nil {
		m.cowStore32(a, v)
		return
	}
	if a&3 == 0 && m.racy() {
		atomicStoreLEU32(&m.data[a], v)
		return
	}
	binary.LittleEndian.PutUint32(m.data[a:], v)
}

// sharedLoadU64 reads a u64, atomically when shared and aligned.
func sharedLoadU64(m *Memory, a uint64) uint64 {
	if m.pages != nil {
		return m.cowLoad64(a)
	}
	if a&7 == 0 && m.racy() {
		return atomicLoadLEU64(&m.data[a])
	}
	return binary.LittleEndian.Uint64(m.data[a:])
}

// sharedStoreU64 writes a u64, atomically when shared and aligned.
func sharedStoreU64(m *Memory, a uint64, v uint64) {
	if m.pages != nil {
		m.cowStore64(a, v)
		return
	}
	if a&7 == 0 && m.racy() {
		atomicStoreLEU64(&m.data[a], v)
		return
	}
	binary.LittleEndian.PutUint64(m.data[a:], v)
}

// AtomicReadU32 atomically loads the little-endian u32 at addr. The
// kernel's futex machinery uses this for the test-and-block load so it
// synchronizes with guest stores on the futex word. addr must be 4-byte
// aligned (Linux futexes require the same).
func (m *Memory) AtomicReadU32(addr uint32) (uint32, bool) {
	if addr&3 != 0 || !m.InRange(addr, 4) {
		return 0, false
	}
	if m.pages != nil {
		// cow implies single-threaded: a plain overlay read is sound.
		return m.cowLoad32(uint64(addr)), true
	}
	return atomicLoadLEU32(&m.data[addr]), true
}

// AtomicWriteU32 atomically stores a little-endian u32 at addr (4-byte
// aligned); used for CLONE_CHILD_SETTID / CLEARTID words, which other
// threads concurrently read and futex-wait on.
func (m *Memory) AtomicWriteU32(addr uint32, v uint32) bool {
	if addr&3 != 0 || !m.InRange(addr, 4) {
		return false
	}
	if m.pages != nil {
		m.cowStore32(uint64(addr), v)
		return true
	}
	atomicStoreLEU32(&m.data[addr], v)
	return true
}
