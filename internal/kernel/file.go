// Package kernel simulates a Linux kernel's userspace-visible semantics:
// processes and threads, file descriptors over an in-memory VFS, pipes,
// signals, futexes, loopback sockets, poll/epoll, timers and credentials.
//
// It is the substrate the WALI layer (internal/core) translates syscalls
// into. The package exposes a syscall-shaped API: operations return
// linux.Errno, blocking calls block the calling goroutine (each WALI
// process/thread runs on its own goroutine, matching the paper's 1-to-1
// process model).
package kernel

import (
	"sync"

	"gowali/internal/kernel/vfs"
	"gowali/internal/kernel/waitq"
	"gowali/internal/linux"
)

// File is an open file description. Forked children share File instances
// (and therefore offsets), as POSIX requires. No method sleeps: Read and
// Write on a file that would have to wait (an empty pipe, a full socket
// buffer, a console without input) return EAGAIN whatever its flags,
// and Process.Read/Write/RecvFrom/SendTo/Accept supply the blocking of
// a descriptor without O_NONBLOCK through the sleep primitive.
type File interface {
	Read(b []byte) (int, linux.Errno)
	Write(b []byte) (int, linux.Errno)
	Pread(b []byte, off int64) (int, linux.Errno)
	Pwrite(b []byte, off int64) (int, linux.Errno)
	Lseek(off int64, whence int32) (int64, linux.Errno)
	Stat() (linux.Stat, linux.Errno)
	Truncate(size int64) linux.Errno
	Close() linux.Errno
	// Poll returns current readiness (POLLIN/POLLOUT/POLLHUP/POLLERR).
	Poll() int16
	// Flags returns the file status flags (access mode, O_NONBLOCK,
	// O_APPEND); SetFlags updates the mutable subset.
	Flags() int32
	SetFlags(int32)
	Ioctl(cmd uint32, arg []byte) (int32, linux.Errno)
}

// pather is implemented by files that track the path they were opened at
// (needed for openat(dirfd, ...) and /proc/self/cwd style diagnostics).
type pather interface{ Path() string }

// direader is implemented by directory files supporting getdents64.
type direader interface{ ReadDir() ([]vfs.DirEntry, bool) }

// --- base flag plumbing shared by implementations ---

type flagHolder struct {
	mu    sync.Mutex
	flags int32
}

func (f *flagHolder) Flags() int32 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.flags
}

func (f *flagHolder) SetFlags(v int32) {
	f.mu.Lock()
	defer f.mu.Unlock()
	const settable = linux.O_NONBLOCK | linux.O_APPEND
	f.flags = f.flags&^int32(settable) | v&int32(settable)
}

func (f *flagHolder) nonblock() bool { return f.Flags()&linux.O_NONBLOCK != 0 }

// --- regular file / directory ---

// regFile is an open regular file, directory or symlink handle backed by a
// VFS inode.
type regFile struct {
	flagHolder
	ino  *vfs.Inode
	path string

	posMu  sync.Mutex
	pos    int64
	dirEnt []vfs.DirEntry
	dirPos int
	dirSet bool
}

func newRegFile(ino *vfs.Inode, path string, flags int32) *regFile {
	f := &regFile{ino: ino, path: path}
	f.flags = flags
	return f
}

func (f *regFile) Path() string { return f.path }

// Inode exposes the backing inode (used by fchmod/fchown/utimensat).
func (f *regFile) Inode() *vfs.Inode { return f.ino }

func (f *regFile) readable() bool { return f.Flags()&linux.O_ACCMODE != linux.O_WRONLY }
func (f *regFile) writable() bool { return f.Flags()&linux.O_ACCMODE != linux.O_RDONLY }

func (f *regFile) Read(b []byte) (int, linux.Errno) {
	if !f.readable() {
		return 0, linux.EBADF
	}
	if f.ino.IsDir() {
		return 0, linux.EISDIR
	}
	f.posMu.Lock()
	defer f.posMu.Unlock()
	n, errno := f.ino.ReadAt(b, f.pos)
	f.pos += int64(n)
	return n, errno
}

func (f *regFile) Write(b []byte) (int, linux.Errno) {
	if !f.writable() {
		return 0, linux.EBADF
	}
	f.posMu.Lock()
	defer f.posMu.Unlock()
	if f.Flags()&linux.O_APPEND != 0 {
		f.pos = f.ino.Size()
	}
	n, errno := f.ino.WriteAt(b, f.pos)
	f.pos += int64(n)
	return n, errno
}

func (f *regFile) Pread(b []byte, off int64) (int, linux.Errno) {
	if !f.readable() {
		return 0, linux.EBADF
	}
	return f.ino.ReadAt(b, off)
}

func (f *regFile) Pwrite(b []byte, off int64) (int, linux.Errno) {
	if !f.writable() {
		return 0, linux.EBADF
	}
	return f.ino.WriteAt(b, off)
}

func (f *regFile) Lseek(off int64, whence int32) (int64, linux.Errno) {
	f.posMu.Lock()
	defer f.posMu.Unlock()
	var base int64
	switch whence {
	case linux.SEEK_SET:
		base = 0
	case linux.SEEK_CUR:
		base = f.pos
	case linux.SEEK_END:
		base = f.ino.Size()
	default:
		return 0, linux.EINVAL
	}
	np := base + off
	if np < 0 {
		return 0, linux.EINVAL
	}
	f.pos = np
	f.dirSet = false // rewinddir
	f.dirPos = 0
	return np, 0
}

func (f *regFile) Stat() (linux.Stat, linux.Errno) { return f.ino.Stat(), 0 }

func (f *regFile) Truncate(size int64) linux.Errno {
	if !f.writable() {
		return 0 // ftruncate on O_RDONLY is EINVAL, but be permissive for EBADF cases
	}
	return f.ino.Truncate(size)
}

func (f *regFile) Close() linux.Errno { return 0 }

func (f *regFile) Poll() int16 { return linux.POLLIN | linux.POLLOUT }

// PollQueues implements event-driven poll readiness. Regular files are
// always ready, so no queue ever needs arming.
func (f *regFile) PollQueues(qs []*waitq.Queue) []*waitq.Queue { return qs }

func (f *regFile) Ioctl(cmd uint32, arg []byte) (int32, linux.Errno) {
	return 0, linux.ENOTTY
}

// ReadDir returns the next batch of directory entries (all remaining) and
// whether this file is a directory.
func (f *regFile) ReadDir() ([]vfs.DirEntry, bool) {
	if !f.ino.IsDir() {
		return nil, false
	}
	f.posMu.Lock()
	defer f.posMu.Unlock()
	if !f.dirSet {
		f.dirEnt = f.ino.List()
		f.dirPos = 0
		f.dirSet = true
	}
	out := f.dirEnt[f.dirPos:]
	f.dirPos = len(f.dirEnt)
	return out, true
}

// --- pipe ends ---

type pipeFile struct {
	flagHolder
	pipe    *vfs.Pipe
	readEnd bool
	k       *Kernel
	once    sync.Once
}

func newPipeFile(k *Kernel, p *vfs.Pipe, readEnd bool, flags int32) *pipeFile {
	f := &pipeFile{pipe: p, readEnd: readEnd, k: k}
	f.flags = flags
	if readEnd {
		p.AddReader()
	} else {
		p.AddWriter()
	}
	return f
}

func (f *pipeFile) Read(b []byte) (int, linux.Errno) {
	if !f.readEnd {
		return 0, linux.EBADF
	}
	return f.pipe.Read(b, true)
}

func (f *pipeFile) Write(b []byte) (int, linux.Errno) {
	if f.readEnd {
		return 0, linux.EBADF
	}
	return f.pipe.Write(b, true)
}

func (f *pipeFile) Pread(b []byte, off int64) (int, linux.Errno)  { return 0, linux.ESPIPE }
func (f *pipeFile) Pwrite(b []byte, off int64) (int, linux.Errno) { return 0, linux.ESPIPE }
func (f *pipeFile) Lseek(off int64, whence int32) (int64, linux.Errno) {
	return 0, linux.ESPIPE
}

func (f *pipeFile) Stat() (linux.Stat, linux.Errno) {
	return linux.Stat{Mode: linux.S_IFIFO | 0o600, Blksize: 4096}, 0
}

func (f *pipeFile) Truncate(int64) linux.Errno { return linux.EINVAL }

func (f *pipeFile) Close() linux.Errno {
	f.once.Do(func() {
		if f.readEnd {
			f.pipe.CloseReader()
		} else {
			f.pipe.CloseWriter()
		}
	})
	return 0
}

func (f *pipeFile) Poll() int16 { return f.pipe.Poll(f.readEnd) }

// PollQueues implements event-driven poll readiness.
func (f *pipeFile) PollQueues(qs []*waitq.Queue) []*waitq.Queue {
	return append(qs, f.pipe.Queue())
}

func (f *pipeFile) Ioctl(cmd uint32, arg []byte) (int32, linux.Errno) {
	if cmd == linux.FIONREAD {
		return int32(f.pipe.Buffered()), 0
	}
	return 0, linux.ENOTTY
}

// --- character devices ---

type devFile struct {
	flagHolder
	ino  *vfs.Inode
	dev  vfs.DeviceOps
	path string // absolute path the device was opened by (snapshot re-open)
}

// OpenDevOn rebinds descriptor fd of p's table onto the character device
// at path (stdio redirection: the facade points fd 2 at a host stderr
// stream device). The previous file on fd, if any, is replaced.
func (p *Process) OpenDevOn(fd int32, path string) linux.Errno {
	r, errno := p.K.FS.Walk("/", path, true)
	if errno != 0 || r.Node == nil || r.Node.Device() == nil {
		return linux.ENOENT
	}
	return p.FDs.Set(fd, newDevFile(r.Node, path, linux.O_RDWR), false)
}

func newDevFile(ino *vfs.Inode, path string, flags int32) *devFile {
	f := &devFile{ino: ino, dev: ino.Device(), path: path}
	f.flags = flags
	return f
}

func (f *devFile) Read(b []byte) (int, linux.Errno)  { return f.dev.Read(b, true) }
func (f *devFile) Write(b []byte) (int, linux.Errno) { return f.dev.Write(b) }
func (f *devFile) Pread(b []byte, off int64) (int, linux.Errno) {
	return f.dev.Read(b, true)
}
func (f *devFile) Pwrite(b []byte, off int64) (int, linux.Errno) { return f.dev.Write(b) }
func (f *devFile) Lseek(off int64, whence int32) (int64, linux.Errno) {
	return 0, 0 // character devices accept but ignore seeks
}
func (f *devFile) Stat() (linux.Stat, linux.Errno) { return f.ino.Stat(), 0 }
func (f *devFile) Truncate(int64) linux.Errno      { return 0 }
func (f *devFile) Close() linux.Errno              { return 0 }
func (f *devFile) Poll() int16                     { return f.dev.Poll() }

// PollQueues delegates to the device when it supports event-driven
// readiness (the console); always-ready devices need no queues.
func (f *devFile) PollQueues(qs []*waitq.Queue) []*waitq.Queue {
	if pw, ok := f.dev.(pollWaitable); ok {
		return pw.PollQueues(qs)
	}
	return qs
}
func (f *devFile) Ioctl(cmd uint32, arg []byte) (int32, linux.Errno) {
	return f.dev.Ioctl(cmd, arg)
}

// --- FD table ---

type fdEntry struct {
	file    File
	cloexec bool
}

// FDReserver is a per-tenant descriptor budget hook (sched.Tenant
// implements it). ReserveFD charges one descriptor and may refuse;
// ForceFDs charges without enforcement (fork inheritance, stdio);
// ReleaseFDs uncharges.
type FDReserver interface {
	ReserveFD() bool
	ForceFDs(n int)
	ReleaseFDs(n int)
}

// FDTable maps descriptor numbers to open files. Threads share one table;
// fork copies the table (sharing the Files).
type FDTable struct {
	mu    sync.Mutex
	slots []fdEntry
	limit int
	// epolls counts installed EpollFiles so the common close path can
	// skip the interest-list sweep entirely.
	epolls int
	// res, when set, charges descriptor allocations against a tenant
	// budget (EMFILE at the cap, like the table's own limit).
	res FDReserver
}

// SetReserver installs the tenant descriptor budget hook; existing open
// descriptors are not retro-charged (the engine force-charges them).
func (t *FDTable) SetReserver(r FDReserver) {
	t.mu.Lock()
	t.res = r
	t.mu.Unlock()
}

// bookInstall/bookRemove maintain the epoll count; callers hold mu.
func (t *FDTable) bookInstall(f File) {
	if _, ok := f.(*EpollFile); ok {
		t.epolls++
	}
}

func (t *FDTable) bookRemove(f File) {
	if _, ok := f.(*EpollFile); ok {
		t.epolls--
	}
}

// forgetEpollLocked deregisters a closed or replaced descriptor from
// every epoll instance in the table, so a recycled fd number never
// reports the dead file's events. Callers hold mu; the sweep runs only
// when the table actually contains epolls. Forked tables share File
// instances (including EpollFiles) without refcounting — a close in
// any table closes the description everywhere — so dropping the
// shared registration on the first close matches the model's existing
// fork semantics, unlike Linux's per-description refcounted teardown.
func (t *FDTable) forgetEpollLocked(fd int32) {
	if t.epolls <= 0 {
		return
	}
	for _, e := range t.slots {
		if ef, ok := e.file.(*EpollFile); ok {
			ef.forget(fd)
		}
	}
}

// DefaultNOFILE is the default RLIMIT_NOFILE.
const DefaultNOFILE = 1024

// NewFDTable returns an empty table.
func NewFDTable() *FDTable {
	return &FDTable{limit: DefaultNOFILE}
}

// Get returns the file at fd.
func (t *FDTable) Get(fd int32) (File, linux.Errno) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if fd < 0 || int(fd) >= len(t.slots) || t.slots[fd].file == nil {
		return nil, linux.EBADF
	}
	return t.slots[fd].file, 0
}

// Alloc installs f at the lowest free descriptor >= min.
func (t *FDTable) Alloc(f File, cloexec bool, min int32) (int32, linux.Errno) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for fd := int(min); ; fd++ {
		if fd >= t.limit {
			return -1, linux.EMFILE
		}
		for fd >= len(t.slots) {
			t.slots = append(t.slots, fdEntry{})
		}
		if t.slots[fd].file == nil {
			if t.res != nil && !t.res.ReserveFD() {
				return -1, linux.EMFILE
			}
			t.slots[fd] = fdEntry{file: f, cloexec: cloexec}
			t.bookInstall(f)
			return int32(fd), 0
		}
	}
}

// Set installs f at exactly fd (dup2), closing any existing file there.
func (t *FDTable) Set(fd int32, f File, cloexec bool) linux.Errno {
	if fd < 0 || int(fd) >= t.limit {
		return linux.EBADF
	}
	t.mu.Lock()
	for int(fd) >= len(t.slots) {
		t.slots = append(t.slots, fdEntry{})
	}
	old := t.slots[fd].file
	// dup2 over an occupied slot is budget-neutral; only filling an
	// empty slot charges the tenant.
	if old == nil && t.res != nil && !t.res.ReserveFD() {
		t.mu.Unlock()
		return linux.EMFILE
	}
	t.slots[fd] = fdEntry{file: f, cloexec: cloexec}
	if old != nil {
		t.bookRemove(old)
		t.forgetEpollLocked(fd) // dup2 over a registered fd drops its interest
	}
	t.bookInstall(f)
	t.mu.Unlock()
	if old != nil {
		old.Close()
	}
	return 0
}

// Close removes fd and closes the file.
func (t *FDTable) Close(fd int32) linux.Errno {
	t.mu.Lock()
	if fd < 0 || int(fd) >= len(t.slots) || t.slots[fd].file == nil {
		t.mu.Unlock()
		return linux.EBADF
	}
	f := t.slots[fd].file
	t.slots[fd] = fdEntry{}
	t.bookRemove(f)
	t.forgetEpollLocked(fd)
	if t.res != nil {
		t.res.ReleaseFDs(1)
	}
	t.mu.Unlock()
	return f.Close()
}

// Cloexec reads or updates the close-on-exec flag.
func (t *FDTable) Cloexec(fd int32) (bool, linux.Errno) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if fd < 0 || int(fd) >= len(t.slots) || t.slots[fd].file == nil {
		return false, linux.EBADF
	}
	return t.slots[fd].cloexec, 0
}

// SetCloexec updates the close-on-exec flag.
func (t *FDTable) SetCloexec(fd int32, v bool) linux.Errno {
	t.mu.Lock()
	defer t.mu.Unlock()
	if fd < 0 || int(fd) >= len(t.slots) || t.slots[fd].file == nil {
		return linux.EBADF
	}
	t.slots[fd].cloexec = v
	return 0
}

// Clone copies the table for fork: same Files, same flags. Inherited
// descriptors are force-charged to the tenant (fork never fails on the
// descriptor limit, so the tenant may transiently overshoot; fresh
// allocations then fail until it drains).
func (t *FDTable) Clone() *FDTable {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := &FDTable{limit: t.limit, slots: append([]fdEntry(nil), t.slots...), epolls: t.epolls, res: t.res}
	if t.res != nil {
		n := 0
		for _, e := range t.slots {
			if e.file != nil {
				n++
			}
		}
		t.res.ForceFDs(n)
	}
	return c
}

// CloseAll closes every descriptor (process exit).
func (t *FDTable) CloseAll() {
	t.mu.Lock()
	slots := t.slots
	t.slots = nil
	t.epolls = 0
	res := t.res
	t.mu.Unlock()
	n := 0
	for _, e := range slots {
		if e.file != nil {
			n++
			e.file.Close()
		}
	}
	if res != nil {
		res.ReleaseFDs(n)
	}
}

// CloseExec closes all close-on-exec descriptors (execve).
func (t *FDTable) CloseExec() {
	t.mu.Lock()
	var toClose []File
	for i := range t.slots {
		if t.slots[i].file != nil && t.slots[i].cloexec {
			f := t.slots[i].file
			toClose = append(toClose, f)
			t.slots[i] = fdEntry{}
			t.bookRemove(f)
			t.forgetEpollLocked(int32(i))
		}
	}
	if t.res != nil {
		t.res.ReleaseFDs(len(toClose))
	}
	t.mu.Unlock()
	for _, f := range toClose {
		f.Close()
	}
}

// Count returns the number of open descriptors.
func (t *FDTable) Count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, e := range t.slots {
		if e.file != nil {
			n++
		}
	}
	return n
}

// Limit returns the RLIMIT_NOFILE-equivalent cap.
func (t *FDTable) Limit() int { return t.limit }

// SetLimit adjusts the descriptor cap (prlimit).
func (t *FDTable) SetLimit(n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.limit = n
}
