// Package zephyr simulates the Zephyr RTOS kernel surface WAZI
// (internal/wazi) virtualizes — the paper's §5.1 recipe validation target.
//
// Zephyr's syscall interface is ISA-portable by construction and its build
// system emits a machine-readable encoding of every syscall; this package
// plays both roles: the kernel implementation and the compile-time
// encoding (SyscallTable) WAZI auto-generates its bindings from.
//
// The simulated board is a Nucleo-F767ZI-like target: 384 KiB of SRAM
// (tracked against thread stacks and heap allocations), a console UART,
// a flat flash filesystem, and the core kernel objects (threads,
// semaphores, mutexes, timers, message queues).
package zephyr

import (
	"fmt"
	"sync"
	"time"
)

// SRAMBudget is the simulated board's RAM in bytes (Nucleo-F767ZI).
const SRAMBudget = 384 * 1024

// Mem abstracts the caller's address space (the Wasm linear memory) for
// syscalls that move data; the kernel never sees raw pointers.
type Mem interface {
	Bytes(addr, size uint32) ([]byte, bool)
}

// Errno-style return codes follow Zephyr conventions: 0 success, negative
// errno-like failures.
const (
	RetOK     int64 = 0
	RetEINVAL int64 = -22
	RetENOMEM int64 = -12
	RetENOENT int64 = -2
	RetENOSYS int64 = -88 // -ENOSYS in Zephyr's newlib mapping
	RetEAGAIN int64 = -11
	RetEBUSY  int64 = -16
	RetENOSPC int64 = -28
)

// Sem is a counting semaphore (k_sem).
type Sem struct {
	mu    sync.Mutex
	cond  *sync.Cond
	count int64
	limit int64
}

// Mutex is a k_mutex.
type Mutex struct {
	mu sync.Mutex
}

// MsgQueue is a k_msgq with fixed-size messages.
type MsgQueue struct {
	mu      sync.Mutex
	cond    *sync.Cond
	msgSize uint32
	maxMsgs uint32
	msgs    [][]byte
}

// Timer is a k_timer counting expirations.
type Timer struct {
	mu      sync.Mutex
	ticker  *time.Ticker
	stop    chan struct{}
	expired int64
}

// Kernel is the simulated Zephyr instance.
type Kernel struct {
	mu       sync.Mutex
	boot     time.Time
	sems     map[int32]*Sem
	mutexes  map[int32]*Mutex
	queues   map[int32]*MsgQueue
	timers   map[int32]*Timer
	nextID   int32
	sramUsed int64

	consoleMu  sync.Mutex
	consoleOut []byte
	consoleIn  []byte

	fsMu  sync.Mutex
	files map[string][]byte
	open  map[int32]*openFile

	// ThreadSpawn is installed by WAZI: it runs fn(arg) on a new engine
	// thread. Returns a thread id or negative error.
	ThreadSpawn func(fnTableIdx, arg uint32, stackSize uint32) int64

	threadCount int
}

type openFile struct {
	name string
	pos  int64
}

// New boots a simulated Zephyr kernel.
func New() *Kernel {
	return &Kernel{
		boot:    time.Now(),
		sems:    make(map[int32]*Sem),
		mutexes: make(map[int32]*Mutex),
		queues:  make(map[int32]*MsgQueue),
		timers:  make(map[int32]*Timer),
		nextID:  1,
		files:   make(map[string][]byte),
		open:    make(map[int32]*openFile),
	}
}

// PreloadFile installs a file in the flat flash filesystem before (or
// between) runs — the board analogue of mounting a host directory.
func (z *Kernel) PreloadFile(name string, data []byte) {
	z.fsMu.Lock()
	z.files[name] = append([]byte(nil), data...)
	z.fsMu.Unlock()
}

// FileSnapshot copies the current flash filesystem contents (name →
// data), e.g. to sync guest output back to a host directory.
func (z *Kernel) FileSnapshot() map[string][]byte {
	z.fsMu.Lock()
	defer z.fsMu.Unlock()
	out := make(map[string][]byte, len(z.files))
	for name, data := range z.files {
		out[name] = append([]byte(nil), data...)
	}
	return out
}

// ConsoleOutput returns everything printed to the UART console.
func (z *Kernel) ConsoleOutput() []byte {
	z.consoleMu.Lock()
	defer z.consoleMu.Unlock()
	return append([]byte(nil), z.consoleOut...)
}

// FeedConsole queues console input.
func (z *Kernel) FeedConsole(b []byte) {
	z.consoleMu.Lock()
	z.consoleIn = append(z.consoleIn, b...)
	z.consoleMu.Unlock()
}

// SRAMUsed reports tracked allocations (thread stacks).
func (z *Kernel) SRAMUsed() int64 {
	z.mu.Lock()
	defer z.mu.Unlock()
	return z.sramUsed
}

func (z *Kernel) allocID() int32 {
	z.mu.Lock()
	defer z.mu.Unlock()
	id := z.nextID
	z.nextID++
	return id
}

// chargeSRAM reserves bytes against the board budget.
func (z *Kernel) chargeSRAM(n int64) bool {
	z.mu.Lock()
	defer z.mu.Unlock()
	if z.sramUsed+n > SRAMBudget {
		return false
	}
	z.sramUsed += n
	return true
}

// MaxArgs is the most arguments a Zephyr syscall passes in registers
// (arch_syscall_invoke6).
const MaxArgs = 6

// Args holds a syscall's raw arguments, zero past its arity. Passed by
// value so the WAZI binding converts the operand stack without allocating.
type Args [MaxArgs]int64

// Handler is one Zephyr syscall implementation.
type Handler func(z *Kernel, mem Mem, a Args) int64

// SyscallDesc is one entry of the compile-time syscall encoding: name,
// arity, and whether a generic passthrough binding suffices (no engine
// bridging needed). This mirrors the encoding Zephyr's build emits, which
// the paper extracts to auto-generate the WAMR implementation.
type SyscallDesc struct {
	Name        string
	NArgs       int
	Passthrough bool
	Fn          Handler
}

// SyscallTable returns the complete encoding. WAZI iterates this to
// generate its host-function bindings; only the entries with Passthrough
// false need hand-written engine glue (k_thread_create).
func SyscallTable() []SyscallDesc {
	return []SyscallDesc{
		{"k_sleep", 1, true, (*Kernel).sysSleep},
		{"k_usleep", 1, true, (*Kernel).sysUsleep},
		{"k_yield", 0, true, (*Kernel).sysYield},
		{"k_uptime_get", 0, true, (*Kernel).sysUptime},
		{"k_uptime_ticks", 0, true, (*Kernel).sysUptimeTicks},
		{"k_cycle_get_32", 0, true, (*Kernel).sysCycles},

		{"k_sem_init", 3, true, (*Kernel).sysSemInit},
		{"k_sem_take", 2, true, (*Kernel).sysSemTake},
		{"k_sem_give", 1, true, (*Kernel).sysSemGive},
		{"k_sem_count_get", 1, true, (*Kernel).sysSemCount},
		{"k_sem_reset", 1, true, (*Kernel).sysSemReset},

		{"k_mutex_init", 0, true, (*Kernel).sysMutexInit},
		{"k_mutex_lock", 2, true, (*Kernel).sysMutexLock},
		{"k_mutex_unlock", 1, true, (*Kernel).sysMutexUnlock},

		{"k_msgq_init", 2, true, (*Kernel).sysMsgqInit},
		{"k_msgq_put", 3, true, (*Kernel).sysMsgqPut},
		{"k_msgq_get", 3, true, (*Kernel).sysMsgqGet},
		{"k_msgq_num_used_get", 1, true, (*Kernel).sysMsgqUsed},

		{"k_timer_start", 2, true, (*Kernel).sysTimerStart},
		{"k_timer_stop", 1, true, (*Kernel).sysTimerStop},
		{"k_timer_status_get", 1, true, (*Kernel).sysTimerStatus},

		{"console_out", 2, true, (*Kernel).sysConsoleOut},
		{"console_in", 2, true, (*Kernel).sysConsoleIn},
		{"printk", 2, true, (*Kernel).sysConsoleOut},

		{"fs_open", 3, true, (*Kernel).sysFsOpen},
		{"fs_read", 3, true, (*Kernel).sysFsRead},
		{"fs_write", 3, true, (*Kernel).sysFsWrite},
		{"fs_seek", 3, true, (*Kernel).sysFsSeek},
		{"fs_close", 1, true, (*Kernel).sysFsClose},
		{"fs_unlink", 2, true, (*Kernel).sysFsUnlink},
		{"fs_stat", 3, true, (*Kernel).sysFsStat},

		{"sys_rand_get", 2, true, (*Kernel).sysRand},
		{"sys_reboot", 1, true, func(z *Kernel, m Mem, a Args) int64 { return RetOK }},

		// Engine-bridged: thread creation needs an instance-per-thread in
		// the engine (recipe step 4), so it is not auto-generatable.
		{"k_thread_create", 3, false, (*Kernel).sysThreadCreate},
		{"k_thread_abort", 1, true, func(z *Kernel, m Mem, a Args) int64 { return RetOK }},
		{"k_thread_join", 2, true, func(z *Kernel, m Mem, a Args) int64 { return RetOK }},
	}
}

// DomainSpecificSyscalls lists the (simulated) remainder of Zephyr's ~520
// syscall names: domain subsystems WAZI exposes as accept-or-ENOSYS
// passthroughs, mirroring §2's observation that most of Zephyr's surface
// targets niche subsystems.
func DomainSpecificSyscalls() []string {
	prefixes := []string{"gnss", "sip_svc", "auxdisplay", "can", "i2c", "spi",
		"uart", "adc", "dac", "pwm", "gpio", "sensor", "flash", "counter",
		"rtc", "watchdog", "dma", "ipm", "eeprom", "hwinfo", "regulator",
		"retained_mem", "smbus", "w1", "mbox", "clock_control", "espi",
		"edac", "ptp_clock", "bc12", "charger", "fuel_gauge", "haptics",
		"led", "mdio", "peci", "ps2", "sdhc", "syscon", "tgpio", "video"}
	ops := []string{"_init", "_read", "_write", "_config", "_get", "_set",
		"_enable", "_disable", "_start", "_stop", "_status", "_transfer"}
	var out []string
	for _, p := range prefixes {
		for _, op := range ops {
			out = append(out, p+op)
		}
	}
	return out
}

// --- handlers ---

func (z *Kernel) sysSleep(mem Mem, a Args) int64 {
	time.Sleep(time.Duration(a[0]) * time.Millisecond)
	return RetOK
}

func (z *Kernel) sysUsleep(mem Mem, a Args) int64 {
	time.Sleep(time.Duration(a[0]) * time.Microsecond)
	return RetOK
}

func (z *Kernel) sysYield(mem Mem, a Args) int64 { return RetOK }

func (z *Kernel) sysUptime(mem Mem, a Args) int64 {
	return time.Since(z.boot).Milliseconds()
}

func (z *Kernel) sysUptimeTicks(mem Mem, a Args) int64 {
	return time.Since(z.boot).Microseconds() * 10 // 10 MHz tick
}

func (z *Kernel) sysCycles(mem Mem, a Args) int64 {
	return int64(uint32(time.Since(z.boot).Nanoseconds() / 5)) // 200 MHz core
}

func (z *Kernel) sysSemInit(mem Mem, a Args) int64 {
	if a[1] < 0 || a[2] < a[1] {
		return RetEINVAL
	}
	id := z.allocID()
	s := &Sem{count: a[1], limit: a[2]}
	s.cond = sync.NewCond(&s.mu)
	z.mu.Lock()
	z.sems[id] = s
	z.mu.Unlock()
	return int64(id)
}

func (z *Kernel) sem(id int64) *Sem {
	z.mu.Lock()
	defer z.mu.Unlock()
	return z.sems[int32(id)]
}

func (z *Kernel) sysSemTake(mem Mem, a Args) int64 {
	s := z.sem(a[0])
	if s == nil {
		return RetEINVAL
	}
	timeoutMs := a[1]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.count == 0 && timeoutMs == 0 {
		return RetEBUSY
	}
	deadline := time.Now().Add(time.Duration(timeoutMs) * time.Millisecond)
	for s.count == 0 {
		if timeoutMs >= 0 && !time.Now().Before(deadline) {
			return RetEAGAIN
		}
		// Timed waits poll; K_FOREVER (-1) blocks on the cond.
		if timeoutMs < 0 {
			s.cond.Wait()
		} else {
			s.mu.Unlock()
			time.Sleep(100 * time.Microsecond)
			s.mu.Lock()
		}
	}
	s.count--
	return RetOK
}

func (z *Kernel) sysSemGive(mem Mem, a Args) int64 {
	s := z.sem(a[0])
	if s == nil {
		return RetEINVAL
	}
	s.mu.Lock()
	if s.count < s.limit {
		s.count++
	}
	s.mu.Unlock()
	s.cond.Broadcast()
	return RetOK
}

func (z *Kernel) sysSemCount(mem Mem, a Args) int64 {
	s := z.sem(a[0])
	if s == nil {
		return RetEINVAL
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

func (z *Kernel) sysSemReset(mem Mem, a Args) int64 {
	s := z.sem(a[0])
	if s == nil {
		return RetEINVAL
	}
	s.mu.Lock()
	s.count = 0
	s.mu.Unlock()
	return RetOK
}

func (z *Kernel) sysMutexInit(mem Mem, a Args) int64 {
	id := z.allocID()
	z.mu.Lock()
	z.mutexes[id] = &Mutex{}
	z.mu.Unlock()
	return int64(id)
}

func (z *Kernel) sysMutexLock(mem Mem, a Args) int64 {
	z.mu.Lock()
	m := z.mutexes[int32(a[0])]
	z.mu.Unlock()
	if m == nil {
		return RetEINVAL
	}
	m.mu.Lock()
	return RetOK
}

func (z *Kernel) sysMutexUnlock(mem Mem, a Args) int64 {
	z.mu.Lock()
	m := z.mutexes[int32(a[0])]
	z.mu.Unlock()
	if m == nil {
		return RetEINVAL
	}
	m.mu.Unlock()
	return RetOK
}

func (z *Kernel) sysMsgqInit(mem Mem, a Args) int64 {
	if a[0] <= 0 || a[0] > 4096 || a[1] <= 0 || a[1] > 1024 {
		return RetEINVAL
	}
	if !z.chargeSRAM(a[0] * a[1]) {
		return RetENOMEM
	}
	id := z.allocID()
	q := &MsgQueue{msgSize: uint32(a[0]), maxMsgs: uint32(a[1])}
	q.cond = sync.NewCond(&q.mu)
	z.mu.Lock()
	z.queues[id] = q
	z.mu.Unlock()
	return int64(id)
}

func (z *Kernel) msgq(id int64) *MsgQueue {
	z.mu.Lock()
	defer z.mu.Unlock()
	return z.queues[int32(id)]
}

func (z *Kernel) sysMsgqPut(mem Mem, a Args) int64 {
	q := z.msgq(a[0])
	if q == nil {
		return RetEINVAL
	}
	buf, ok := mem.Bytes(uint32(a[1]), q.msgSize)
	if !ok {
		return RetEINVAL
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if uint32(len(q.msgs)) >= q.maxMsgs {
		if a[2] == 0 {
			return RetEAGAIN
		}
		for uint32(len(q.msgs)) >= q.maxMsgs {
			q.cond.Wait()
		}
	}
	q.msgs = append(q.msgs, append([]byte(nil), buf...))
	q.cond.Broadcast()
	return RetOK
}

func (z *Kernel) sysMsgqGet(mem Mem, a Args) int64 {
	q := z.msgq(a[0])
	if q == nil {
		return RetEINVAL
	}
	buf, ok := mem.Bytes(uint32(a[1]), q.msgSize)
	if !ok {
		return RetEINVAL
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.msgs) == 0 {
		if a[2] == 0 {
			return RetEAGAIN
		}
		for len(q.msgs) == 0 {
			q.cond.Wait()
		}
	}
	copy(buf, q.msgs[0])
	q.msgs = q.msgs[1:]
	q.cond.Broadcast()
	return RetOK
}

func (z *Kernel) sysMsgqUsed(mem Mem, a Args) int64 {
	q := z.msgq(a[0])
	if q == nil {
		return RetEINVAL
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return int64(len(q.msgs))
}

func (z *Kernel) sysTimerStart(mem Mem, a Args) int64 {
	periodMs := a[0]
	if periodMs <= 0 {
		return RetEINVAL
	}
	id := z.allocID()
	t := &Timer{ticker: time.NewTicker(time.Duration(periodMs) * time.Millisecond), stop: make(chan struct{})}
	go func() {
		for {
			select {
			case <-t.ticker.C:
				t.mu.Lock()
				t.expired++
				t.mu.Unlock()
			case <-t.stop:
				return
			}
		}
	}()
	z.mu.Lock()
	z.timers[id] = t
	z.mu.Unlock()
	return int64(id)
}

func (z *Kernel) sysTimerStop(mem Mem, a Args) int64 {
	z.mu.Lock()
	t := z.timers[int32(a[0])]
	delete(z.timers, int32(a[0]))
	z.mu.Unlock()
	if t == nil {
		return RetEINVAL
	}
	t.ticker.Stop()
	close(t.stop)
	return RetOK
}

func (z *Kernel) sysTimerStatus(mem Mem, a Args) int64 {
	z.mu.Lock()
	t := z.timers[int32(a[0])]
	z.mu.Unlock()
	if t == nil {
		return RetEINVAL
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.expired
	t.expired = 0
	return n
}

func (z *Kernel) sysConsoleOut(mem Mem, a Args) int64 {
	buf, ok := mem.Bytes(uint32(a[0]), uint32(a[1]))
	if !ok {
		return RetEINVAL
	}
	z.consoleMu.Lock()
	z.consoleOut = append(z.consoleOut, buf...)
	z.consoleMu.Unlock()
	return int64(len(buf))
}

func (z *Kernel) sysConsoleIn(mem Mem, a Args) int64 {
	buf, ok := mem.Bytes(uint32(a[0]), uint32(a[1]))
	if !ok {
		return RetEINVAL
	}
	z.consoleMu.Lock()
	defer z.consoleMu.Unlock()
	n := copy(buf, z.consoleIn)
	z.consoleIn = z.consoleIn[n:]
	return int64(n)
}

// Flat filesystem: names are whole paths, like littlefs on small flash.

func (z *Kernel) sysFsOpen(mem Mem, a Args) int64 {
	nameBuf, ok := mem.Bytes(uint32(a[0]), uint32(a[1]))
	if !ok {
		return RetEINVAL
	}
	name := cstr(nameBuf)
	create := a[2] != 0
	z.fsMu.Lock()
	defer z.fsMu.Unlock()
	if _, exists := z.files[name]; !exists {
		if !create {
			return RetENOENT
		}
		z.files[name] = nil
	}
	id := z.allocID()
	z.open[id] = &openFile{name: name}
	return int64(id)
}

func cstr(b []byte) string {
	for i, c := range b {
		if c == 0 {
			return string(b[:i])
		}
	}
	return string(b)
}

func (z *Kernel) sysFsRead(mem Mem, a Args) int64 {
	buf, ok := mem.Bytes(uint32(a[1]), uint32(a[2]))
	if !ok {
		return RetEINVAL
	}
	z.fsMu.Lock()
	defer z.fsMu.Unlock()
	f := z.open[int32(a[0])]
	if f == nil {
		return RetEINVAL
	}
	data := z.files[f.name]
	if f.pos >= int64(len(data)) {
		return 0
	}
	n := copy(buf, data[f.pos:])
	f.pos += int64(n)
	return int64(n)
}

func (z *Kernel) sysFsWrite(mem Mem, a Args) int64 {
	buf, ok := mem.Bytes(uint32(a[1]), uint32(a[2]))
	if !ok {
		return RetEINVAL
	}
	z.fsMu.Lock()
	defer z.fsMu.Unlock()
	f := z.open[int32(a[0])]
	if f == nil {
		return RetEINVAL
	}
	data := z.files[f.name]
	end := f.pos + int64(len(buf))
	if end > int64(len(data)) {
		grown := make([]byte, end)
		copy(grown, data)
		data = grown
	}
	copy(data[f.pos:], buf)
	z.files[f.name] = data
	f.pos = end
	return int64(len(buf))
}

func (z *Kernel) sysFsSeek(mem Mem, a Args) int64 {
	z.fsMu.Lock()
	defer z.fsMu.Unlock()
	f := z.open[int32(a[0])]
	if f == nil {
		return RetEINVAL
	}
	switch a[2] {
	case 0:
		f.pos = a[1]
	case 1:
		f.pos += a[1]
	case 2:
		f.pos = int64(len(z.files[f.name])) + a[1]
	default:
		return RetEINVAL
	}
	if f.pos < 0 {
		f.pos = 0
	}
	return f.pos
}

func (z *Kernel) sysFsClose(mem Mem, a Args) int64 {
	z.fsMu.Lock()
	defer z.fsMu.Unlock()
	if _, ok := z.open[int32(a[0])]; !ok {
		return RetEINVAL
	}
	delete(z.open, int32(a[0]))
	return RetOK
}

func (z *Kernel) sysFsUnlink(mem Mem, a Args) int64 {
	nameBuf, ok := mem.Bytes(uint32(a[0]), uint32(a[1]))
	if !ok {
		return RetEINVAL
	}
	name := cstr(nameBuf)
	z.fsMu.Lock()
	defer z.fsMu.Unlock()
	if _, exists := z.files[name]; !exists {
		return RetENOENT
	}
	delete(z.files, name)
	return RetOK
}

func (z *Kernel) sysFsStat(mem Mem, a Args) int64 {
	nameBuf, ok := mem.Bytes(uint32(a[0]), uint32(a[1]))
	if !ok {
		return RetEINVAL
	}
	name := cstr(nameBuf)
	z.fsMu.Lock()
	defer z.fsMu.Unlock()
	data, exists := z.files[name]
	if !exists {
		return RetENOENT
	}
	out, ok := mem.Bytes(uint32(a[2]), 8)
	if !ok {
		return RetEINVAL
	}
	sz := uint64(len(data))
	for i := 0; i < 8; i++ {
		out[i] = byte(sz >> (8 * i))
	}
	return RetOK
}

func (z *Kernel) sysRand(mem Mem, a Args) int64 {
	buf, ok := mem.Bytes(uint32(a[0]), uint32(a[1]))
	if !ok {
		return RetEINVAL
	}
	// xorshift from uptime; deterministic enough for a sim.
	s := uint64(time.Since(z.boot).Nanoseconds()) | 1
	for i := range buf {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		buf[i] = byte(s)
	}
	return RetOK
}

// sysThreadCreate delegates to the engine bridge (recipe step 4).
func (z *Kernel) sysThreadCreate(mem Mem, a Args) int64 {
	if z.ThreadSpawn == nil {
		return RetENOSYS
	}
	stack := uint32(a[2])
	if stack == 0 {
		stack = 4096
	}
	if !z.chargeSRAM(int64(stack)) {
		return RetENOMEM
	}
	z.mu.Lock()
	z.threadCount++
	z.mu.Unlock()
	return z.ThreadSpawn(uint32(a[0]), uint32(a[1]), stack)
}

// ThreadCount reports threads created since boot.
func (z *Kernel) ThreadCount() int {
	z.mu.Lock()
	defer z.mu.Unlock()
	return z.threadCount
}

// String describes the board.
func (z *Kernel) String() string {
	return fmt.Sprintf("zephyr-sim(nucleo_f767zi, sram=%dKiB, used=%dKiB)",
		SRAMBudget/1024, z.SRAMUsed()/1024)
}
