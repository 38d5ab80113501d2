package kernel

import (
	"fmt"
	"strings"

	"gowali/internal/kernel/vfs"
	"gowali/internal/linux"
)

// Filesystem syscalls, expressed as methods on Process so path resolution
// uses the caller's cwd, umask and credentials.

// resolveBase determines the directory path a *at() call resolves against.
func (p *Process) resolveBase(dirfd int32, path string) (string, linux.Errno) {
	if strings.HasPrefix(path, "/") || dirfd == linux.AT_FDCWD {
		return p.substSelf(p.Cwd()), 0
	}
	f, errno := p.FDs.Get(dirfd)
	if errno != 0 {
		return "", errno
	}
	pf, ok := f.(pather)
	if !ok {
		return "", linux.ENOTDIR
	}
	return pf.Path(), 0
}

// substSelf rewrites /proc/self to the caller's pid directory.
func (p *Process) substSelf(path string) string {
	if path == "/proc/self" || strings.HasPrefix(path, "/proc/self/") {
		return fmt.Sprintf("/proc/%d%s", p.PID, path[len("/proc/self"):])
	}
	return path
}

// OpenAt implements openat(dirfd, path, flags, mode).
func (p *Process) OpenAt(dirfd int32, path string, flags int32, mode uint32) (int32, linux.Errno) {
	base, errno := p.resolveBase(dirfd, path)
	if errno != 0 {
		return -1, errno
	}
	path = p.substSelf(path)
	fs := p.K.FS
	follow := flags&linux.O_NOFOLLOW == 0

	var ino *vfs.Inode
	if flags&linux.O_CREAT != 0 {
		p.fs.mu.Lock()
		umask := p.fs.umask
		p.fs.mu.Unlock()
		uid, euid, _, egid := p.Creds()
		_ = uid
		n, errno := fs.Create(base, path, linux.S_IFREG|mode&^umask&0o7777, euid, egid, flags&linux.O_EXCL != 0)
		if errno != 0 {
			return -1, errno
		}
		ino = n
	} else {
		r, errno := fs.Walk(base, path, follow)
		if errno != 0 {
			return -1, errno
		}
		if r.Node == nil {
			return -1, linux.ENOENT
		}
		if !follow && r.Node.IsSymlink() {
			return -1, linux.ELOOP
		}
		ino = r.Node
	}

	if flags&linux.O_DIRECTORY != 0 && !ino.IsDir() {
		return -1, linux.ENOTDIR
	}
	if ino.IsDir() && flags&linux.O_ACCMODE != linux.O_RDONLY {
		return -1, linux.EISDIR
	}
	if ino.ReadOnly() && (flags&linux.O_ACCMODE != linux.O_RDONLY || flags&linux.O_TRUNC != 0) {
		return -1, linux.EROFS // write access on a read-only mount
	}

	fullPath := path
	if !strings.HasPrefix(path, "/") {
		fullPath = strings.TrimSuffix(base, "/") + "/" + path
	}

	var file File
	switch ino.Type() {
	case linux.S_IFCHR:
		if ino.Device() == nil {
			// A device node with no driver attached (e.g. a host
			// device file seen through a hostfs mount).
			return -1, linux.ENXIO
		}
		file = newDevFile(ino, fullPath, flags)
	case linux.S_IFIFO:
		// Opening a FIFO: read end or write end by access mode.
		pipe := ino.Pipe()
		file = newPipeFile(p.K, pipe, flags&linux.O_ACCMODE == linux.O_RDONLY, flags)
	default:
		if flags&linux.O_TRUNC != 0 && !ino.IsDir() && flags&linux.O_ACCMODE != linux.O_RDONLY {
			ino.Truncate(0)
		}
		file = newRegFile(ino, fullPath, flags)
	}
	return p.FDs.Alloc(file, flags&linux.O_CLOEXEC != 0, 0)
}

// Open is open(2) (x86-64 legacy entry emulated via openat).
func (p *Process) Open(path string, flags int32, mode uint32) (int32, linux.Errno) {
	return p.OpenAt(linux.AT_FDCWD, path, flags, mode)
}

// Read implements read(2).
func (p *Process) Read(fd int32, b []byte) (int, linux.Errno) {
	f, errno := p.FDs.Get(fd)
	if errno != 0 {
		return 0, errno
	}
	return p.readFile(f, b)
}

// Write implements write(2). Writing to a read-closed pipe raises SIGPIPE
// in addition to EPIPE, as the kernel does.
func (p *Process) Write(fd int32, b []byte) (int, linux.Errno) {
	f, errno := p.FDs.Get(fd)
	if errno != 0 {
		return 0, errno
	}
	n, errno := p.writeFile(f, b)
	if errno == linux.EPIPE {
		p.PostSignal(linux.SIGPIPE)
	}
	return n, errno
}

// Pread64 implements pread64. Only a device that waits for input (the
// console) can answer EAGAIN; a blocking descriptor then sleeps for it.
func (p *Process) Pread64(fd int32, b []byte, off int64) (int, linux.Errno) {
	f, errno := p.FDs.Get(fd)
	if errno != 0 {
		return 0, errno
	}
	n, errno := f.Pread(b, off)
	if errno == linux.EAGAIN && f.Flags()&linux.O_NONBLOCK == 0 {
		errno = p.fileSleep(f, func() (e linux.Errno) {
			n, e = f.Pread(b, off)
			return e
		})
	}
	return n, errno
}

// Pwrite64 implements pwrite64.
func (p *Process) Pwrite64(fd int32, b []byte, off int64) (int, linux.Errno) {
	f, errno := p.FDs.Get(fd)
	if errno != 0 {
		return 0, errno
	}
	return f.Pwrite(b, off)
}

// Lseek implements lseek.
func (p *Process) Lseek(fd int32, off int64, whence int32) (int64, linux.Errno) {
	f, errno := p.FDs.Get(fd)
	if errno != 0 {
		return -1, errno
	}
	return f.Lseek(off, whence)
}

// Close implements close.
func (p *Process) Close(fd int32) linux.Errno { return p.FDs.Close(fd) }

// Dup implements dup.
func (p *Process) Dup(fd int32) (int32, linux.Errno) {
	f, errno := p.FDs.Get(fd)
	if errno != 0 {
		return -1, errno
	}
	return p.FDs.Alloc(f, false, 0)
}

// Dup3 implements dup3 (and dup2 when flags==0 with oldfd!=newfd checks in
// the WALI layer).
func (p *Process) Dup3(oldfd, newfd int32, flags int32) (int32, linux.Errno) {
	if oldfd == newfd {
		return -1, linux.EINVAL
	}
	f, errno := p.FDs.Get(oldfd)
	if errno != 0 {
		return -1, errno
	}
	if errno := p.FDs.Set(newfd, f, flags&linux.O_CLOEXEC != 0); errno != 0 {
		return -1, errno
	}
	return newfd, 0
}

// Fcntl implements the F_DUPFD/F_GETFD/F_SETFD/F_GETFL/F_SETFL subset.
func (p *Process) Fcntl(fd int32, cmd int32, arg int32) (int32, linux.Errno) {
	f, errno := p.FDs.Get(fd)
	if errno != 0 {
		return -1, errno
	}
	switch cmd {
	case linux.F_DUPFD:
		return p.FDs.Alloc(f, false, arg)
	case linux.F_DUPFD_CLOEXEC:
		return p.FDs.Alloc(f, true, arg)
	case linux.F_GETFD:
		ce, _ := p.FDs.Cloexec(fd)
		if ce {
			return linux.FD_CLOEXEC, 0
		}
		return 0, 0
	case linux.F_SETFD:
		p.FDs.SetCloexec(fd, arg&linux.FD_CLOEXEC != 0)
		return 0, 0
	case linux.F_GETFL:
		return f.Flags(), 0
	case linux.F_SETFL:
		f.SetFlags(arg)
		return 0, 0
	}
	return -1, linux.EINVAL
}

// Ioctl implements ioctl.
func (p *Process) Ioctl(fd int32, cmd uint32, arg []byte) (int32, linux.Errno) {
	f, errno := p.FDs.Get(fd)
	if errno != 0 {
		return -1, errno
	}
	if cmd == linux.FIONBIO {
		if len(arg) >= 4 && (arg[0]|arg[1]|arg[2]|arg[3]) != 0 {
			f.SetFlags(f.Flags() | linux.O_NONBLOCK)
		} else {
			f.SetFlags(f.Flags() &^ linux.O_NONBLOCK)
		}
		return 0, 0
	}
	return f.Ioctl(cmd, arg)
}

// Fstat implements fstat.
func (p *Process) Fstat(fd int32) (linux.Stat, linux.Errno) {
	f, errno := p.FDs.Get(fd)
	if errno != 0 {
		return linux.Stat{}, errno
	}
	return f.Stat()
}

// StatAt implements newfstatat/stat/lstat.
func (p *Process) StatAt(dirfd int32, path string, follow bool) (linux.Stat, linux.Errno) {
	base, errno := p.resolveBase(dirfd, path)
	if errno != 0 {
		return linux.Stat{}, errno
	}
	r, errno := p.K.FS.Walk(base, p.substSelf(path), follow)
	if errno != 0 {
		return linux.Stat{}, errno
	}
	if r.Node == nil {
		return linux.Stat{}, linux.ENOENT
	}
	return r.Node.Stat(), 0
}

// Access implements faccessat (permission model: owner bits only).
func (p *Process) Access(dirfd int32, path string, mode int32) linux.Errno {
	st, errno := p.StatAt(dirfd, path, true)
	if errno != 0 {
		return errno
	}
	if mode == linux.F_OK {
		return 0
	}
	_, euid, _, _ := p.Creds()
	if euid == 0 {
		return 0
	}
	perm := st.Mode & 0o777
	var need uint32
	if mode&linux.R_OK != 0 {
		need |= linux.S_IRUSR
	}
	if mode&linux.W_OK != 0 {
		need |= linux.S_IWUSR
	}
	if mode&linux.X_OK != 0 {
		need |= linux.S_IXUSR
	}
	if perm&need != need {
		return linux.EACCES
	}
	return 0
}

// MkdirAt implements mkdirat.
func (p *Process) MkdirAt(dirfd int32, path string, mode uint32) linux.Errno {
	base, errno := p.resolveBase(dirfd, path)
	if errno != 0 {
		return errno
	}
	p.fs.mu.Lock()
	umask := p.fs.umask
	p.fs.mu.Unlock()
	_, euid, _, egid := p.Creds()
	_, errno = p.K.FS.Mkdir(base, p.substSelf(path), mode&^umask, euid, egid)
	return errno
}

// UnlinkAt implements unlinkat.
func (p *Process) UnlinkAt(dirfd int32, path string, flags int32) linux.Errno {
	base, errno := p.resolveBase(dirfd, path)
	if errno != 0 {
		return errno
	}
	return p.K.FS.Unlink(base, p.substSelf(path), flags&linux.AT_REMOVEDIR != 0)
}

// RenameAt implements renameat.
func (p *Process) RenameAt(olddirfd int32, oldpath string, newdirfd int32, newpath string) linux.Errno {
	ob, errno := p.resolveBase(olddirfd, oldpath)
	if errno != 0 {
		return errno
	}
	nb, errno := p.resolveBase(newdirfd, newpath)
	if errno != 0 {
		return errno
	}
	if ob != nb && !strings.HasPrefix(oldpath, "/") && !strings.HasPrefix(newpath, "/") {
		// Different base dirs with relative paths: make both absolute.
		oldpath = strings.TrimSuffix(ob, "/") + "/" + oldpath
		newpath = strings.TrimSuffix(nb, "/") + "/" + newpath
	}
	return p.K.FS.Rename(ob, oldpath, newpath)
}

// LinkAt implements linkat.
func (p *Process) LinkAt(oldpath, newpath string) linux.Errno {
	return p.K.FS.Link(p.Cwd(), oldpath, newpath)
}

// SymlinkAt implements symlinkat.
func (p *Process) SymlinkAt(target, path string) linux.Errno {
	_, euid, _, egid := p.Creds()
	return p.K.FS.Symlink(p.Cwd(), target, path, euid, egid)
}

// ReadlinkAt implements readlinkat.
func (p *Process) ReadlinkAt(dirfd int32, path string) (string, linux.Errno) {
	base, errno := p.resolveBase(dirfd, path)
	if errno != 0 {
		return "", errno
	}
	return p.K.FS.Readlink(base, p.substSelf(path))
}

// Chdir implements chdir.
func (p *Process) Chdir(path string) linux.Errno {
	r, errno := p.K.FS.Walk(p.Cwd(), p.substSelf(path), true)
	if errno != 0 {
		return errno
	}
	if r.Node == nil {
		return linux.ENOENT
	}
	if !r.Node.IsDir() {
		return linux.ENOTDIR
	}
	abs := path
	if !strings.HasPrefix(path, "/") {
		abs = strings.TrimSuffix(p.Cwd(), "/") + "/" + path
	}
	p.fs.mu.Lock()
	p.fs.cwd = normalizePath(abs)
	p.fs.mu.Unlock()
	return 0
}

// Fchdir implements fchdir.
func (p *Process) Fchdir(fd int32) linux.Errno {
	f, errno := p.FDs.Get(fd)
	if errno != 0 {
		return errno
	}
	pf, ok := f.(pather)
	if !ok {
		return linux.ENOTDIR
	}
	return p.Chdir(pf.Path())
}

// normalizePath collapses "." and ".." lexically.
func normalizePath(path string) string {
	parts := strings.Split(path, "/")
	var stack []string
	for _, p := range parts {
		switch p {
		case "", ".":
		case "..":
			if len(stack) > 0 {
				stack = stack[:len(stack)-1]
			}
		default:
			stack = append(stack, p)
		}
	}
	return "/" + strings.Join(stack, "/")
}

// ChmodAt implements fchmodat.
func (p *Process) ChmodAt(dirfd int32, path string, mode uint32) linux.Errno {
	base, errno := p.resolveBase(dirfd, path)
	if errno != 0 {
		return errno
	}
	r, errno := p.K.FS.Walk(base, p.substSelf(path), true)
	if errno != 0 {
		return errno
	}
	if r.Node == nil {
		return linux.ENOENT
	}
	r.Node.SetMode(mode)
	return 0
}

// Fchmod implements fchmod.
func (p *Process) Fchmod(fd int32, mode uint32) linux.Errno {
	f, errno := p.FDs.Get(fd)
	if errno != 0 {
		return errno
	}
	rf, ok := f.(*regFile)
	if !ok {
		return linux.EINVAL
	}
	rf.Inode().SetMode(mode)
	return 0
}

// ChownAt implements fchownat.
func (p *Process) ChownAt(dirfd int32, path string, uid, gid uint32, follow bool) linux.Errno {
	base, errno := p.resolveBase(dirfd, path)
	if errno != 0 {
		return errno
	}
	r, errno := p.K.FS.Walk(base, p.substSelf(path), follow)
	if errno != 0 {
		return errno
	}
	if r.Node == nil {
		return linux.ENOENT
	}
	r.Node.SetOwner(uid, gid)
	return 0
}

// Truncate implements truncate.
func (p *Process) Truncate(path string, size int64) linux.Errno {
	r, errno := p.K.FS.Walk(p.Cwd(), p.substSelf(path), true)
	if errno != 0 {
		return errno
	}
	if r.Node == nil {
		return linux.ENOENT
	}
	return r.Node.Truncate(size)
}

// Ftruncate implements ftruncate.
func (p *Process) Ftruncate(fd int32, size int64) linux.Errno {
	f, errno := p.FDs.Get(fd)
	if errno != 0 {
		return errno
	}
	return f.Truncate(size)
}

// UtimensAt implements utimensat.
func (p *Process) UtimensAt(dirfd int32, path string, atime, mtime *linux.Timespec, follow bool) linux.Errno {
	base, errno := p.resolveBase(dirfd, path)
	if errno != 0 {
		return errno
	}
	r, errno := p.K.FS.Walk(base, p.substSelf(path), follow)
	if errno != 0 {
		return errno
	}
	if r.Node == nil {
		return linux.ENOENT
	}
	r.Node.SetTimes(atime, mtime)
	return 0
}

// Pipe2 implements pipe2, returning (readfd, writefd).
func (p *Process) Pipe2(flags int32) (int32, int32, linux.Errno) {
	pipe := vfs.NewPipe()
	statusFlags := flags & linux.O_NONBLOCK
	rf := newPipeFile(p.K, pipe, true, statusFlags)
	wf := newPipeFile(p.K, pipe, false, statusFlags|linux.O_WRONLY)
	cloexec := flags&linux.O_CLOEXEC != 0
	rfd, errno := p.FDs.Alloc(rf, cloexec, 0)
	if errno != 0 {
		rf.Close()
		wf.Close()
		return -1, -1, errno
	}
	wfd, errno := p.FDs.Alloc(wf, cloexec, 0)
	if errno != 0 {
		p.FDs.Close(rfd)
		wf.Close()
		return -1, -1, errno
	}
	return rfd, wfd, 0
}

// Getdents64 fills buf with linux_dirent64 records and returns the byte
// count, or 0 at end of directory.
func (p *Process) Getdents64(fd int32, buf []byte) (int, linux.Errno) {
	f, errno := p.FDs.Get(fd)
	if errno != 0 {
		return 0, errno
	}
	dr, ok := f.(direader)
	if !ok {
		return 0, linux.ENOTDIR
	}
	ents, isDir := dr.ReadDir()
	if !isDir {
		return 0, linux.ENOTDIR
	}
	off := 0
	written := 0
	for _, e := range ents {
		recLen := 19 + len(e.Name) + 1 // ino(8)+off(8)+reclen(2)+type(1)+name+NUL
		recLen = (recLen + 7) &^ 7     // 8-byte align
		if off+recLen > len(buf) {
			break
		}
		putU64(buf[off:], e.Ino)
		putU64(buf[off+8:], uint64(off+recLen))
		putU16(buf[off+16:], uint16(recLen))
		buf[off+18] = e.Type
		copy(buf[off+19:], e.Name)
		buf[off+19+len(e.Name)] = 0
		off += recLen
		written++
	}
	return off, 0
}

func putU16(b []byte, v uint16) { b[0] = byte(v); b[1] = byte(v >> 8) }
func putU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

// Sendfile copies up to count bytes from infd to outfd, each chunk
// through the read(2)/write(2) path, so a sleep on either end is
// interruptible; an interruption after some progress returns the count.
func (p *Process) Sendfile(outfd, infd int32, count int) (int, linux.Errno) {
	in, errno := p.FDs.Get(infd)
	if errno != 0 {
		return 0, errno
	}
	out, errno := p.FDs.Get(outfd)
	if errno != 0 {
		return 0, errno
	}
	buf := make([]byte, 64*1024)
	total := 0
	for total < count {
		n := count - total
		if n > len(buf) {
			n = len(buf)
		}
		r, errno := p.readFile(in, buf[:n])
		if errno != 0 {
			if total > 0 {
				return total, 0
			}
			return 0, errno
		}
		if r == 0 {
			break
		}
		w, errno := p.writeFile(out, buf[:r])
		total += w
		if errno != 0 {
			if total > 0 {
				return total, 0
			}
			return 0, errno
		}
	}
	return total, 0
}

// Statfs returns synthetic filesystem statistics.
type Statfs struct {
	Type    int64
	Bsize   int64
	Blocks  uint64
	Bfree   uint64
	Bavail  uint64
	Files   uint64
	Ffree   uint64
	NameLen int64
}

// StatfsPath implements statfs.
func (p *Process) StatfsPath(path string) (Statfs, linux.Errno) {
	r, errno := p.K.FS.Walk(p.Cwd(), p.substSelf(path), true)
	if errno != 0 {
		return Statfs{}, errno
	}
	if r.Node == nil {
		return Statfs{}, linux.ENOENT
	}
	return Statfs{
		Type:    p.K.FS.MagicFor(r.Node), // per-mount f_type (tmpfs default)
		Bsize:   4096,
		Blocks:  1 << 20,
		Bfree:   1 << 19,
		Bavail:  1 << 19,
		Files:   1 << 16,
		Ffree:   1 << 15,
		NameLen: 255,
	}, 0
}
