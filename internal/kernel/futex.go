package kernel

import (
	"hash/maphash"
	"sync"
	"time"

	"gowali/internal/kernel/waitq"
	"gowali/internal/linux"
)

// Futexes. The key identifies a 32-bit word in some address space: WALI
// passes its Memory object as the opaque space identity plus the Wasm
// address, so futexes on shared memories (threads) rendezvous correctly
// while separate processes do not collide.
//
// The table is sharded: each key hashes to one of futexShardCount
// buckets with an independent lock, so guests parked on unrelated words
// — or hammering wake/wait fast paths — never contend on a kernel-wide
// futex lock.
//
// Waiters sleep on the word's wait queue through the kernel's sleep
// primitive, so a parked futex_wait is interruptible: a posted fatal
// signal (SIGKILL, budget-overrun sweep) or a snapshot quiesce request
// turns the park into EINTR, as Linux does, instead of a sleep only a
// waker can end.

type futexKey struct {
	space any
	addr  uint32
}

const futexShardCount = 64

type futexShard struct {
	mu sync.Mutex
	m  map[futexKey]*futexQueue
	_  [48]byte // round the 16-byte payload up to a full cache line
}

var futexSeed = maphash.MakeSeed()

// shardFor buckets a key. maphash.Comparable hashes the space's dynamic
// (pointer) identity, so N guests whose futex words share the same Wasm
// address still spread across shards.
func (k *Kernel) shardFor(key futexKey) *futexShard {
	return &k.futexes[maphash.Comparable(futexSeed, key)%futexShardCount]
}

type futexQueue struct {
	q       waitq.Queue
	waiters int
	seq     uint64 // bumped on every wake to let waiters detect wakeups
}

// FutexWait blocks until a FutexWake on (space, addr), checking first that
// *addr (read via load) still equals val — the standard atomic test-and-
// block. The load callback must read the word atomically (WALI passes
// Memory.AtomicReadU32): it races by design with waker threads' stores to
// the futex word, and an atomic pairing is what makes the protocol sound
// under the Go memory model. timeout nil means wait forever. Returns
// EAGAIN when the value already changed, ETIMEDOUT on timeout, EINTR when
// a deliverable signal or a quiesce request interrupts the wait.
//
// p supplies signal interruption and the run slot; a nil p (a wait
// made by a host-side goroutine) sleeps on the word's queue alone.
func (k *Kernel) FutexWait(space any, addr uint32, val uint32, load func() uint32, timeout *linux.Timespec, p *Process) linux.Errno {
	key := futexKey{space, addr}
	sh := k.shardFor(key)
	sh.mu.Lock()
	q := sh.m[key]
	if q == nil {
		if sh.m == nil {
			sh.m = make(map[futexKey]*futexQueue)
		}
		q = &futexQueue{}
		sh.m[key] = q
	}
	if load() != val {
		if q.waiters == 0 {
			delete(sh.m, key)
		}
		sh.mu.Unlock()
		return linux.EAGAIN
	}
	q.waiters++
	start := q.seq
	sh.mu.Unlock()

	var deadline time.Time
	if timeout != nil {
		deadline = time.Now().Add(time.Duration(timeout.Nanos()))
	}
	woken := func() linux.Errno {
		sh.mu.Lock()
		defer sh.mu.Unlock()
		if q.seq != start {
			return 0
		}
		return linux.EAGAIN
	}
	var errno linux.Errno
	if p != nil {
		errno = p.sleep(func(qs []*waitq.Queue) []*waitq.Queue { return append(qs, &q.q) }, deadline, woken)
	} else {
		errno = q.q.Sleep(deadline, woken)
	}

	sh.mu.Lock()
	q.waiters--
	if q.waiters == 0 {
		delete(sh.m, key)
	}
	sh.mu.Unlock()
	return errno
}

// FutexWake wakes up to n waiters on (space, addr), returning the number
// of waiters present (all waiters wake and re-check; the over-wake is
// indistinguishable from spurious wakeups permitted by futex semantics).
func (k *Kernel) FutexWake(space any, addr uint32, n int32) int32 {
	key := futexKey{space, addr}
	sh := k.shardFor(key)
	sh.mu.Lock()
	q := sh.m[key]
	if q == nil {
		sh.mu.Unlock()
		return 0
	}
	woken := int32(q.waiters)
	if woken > n {
		woken = n
	}
	q.seq++
	sh.mu.Unlock()
	q.q.Wake()
	return woken
}
