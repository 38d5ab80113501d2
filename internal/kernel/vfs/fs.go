package vfs

import (
	"strings"
	"sync"
	"sync/atomic"

	"gowali/internal/linux"
)

// FS is the filesystem namespace: a mount table of pluggable backends
// rooted at a MemFS tree. There is no filesystem-wide lock: path
// walking takes per-inode locks hand over hand (with a sharded dentry
// cache in front, see dcache.go), crossing mountpoints as it descends;
// namespace mutations take the parent directory's write lock and
// re-verify the walked entry under it, and cross-directory renames
// additionally serialize on renameMu so directory-cycle checks stay
// sound. The lock hierarchy is: renameMu → parent inode → child inode
// → {dcache shard, mount node table}.
type FS struct {
	Root  *Inode
	Clock func() linux.Timespec

	rootFS *MemFS

	mntMu   sync.Mutex
	mounts  []*Mount
	nextMnt atomic.Uint64

	// renameMu serializes cross-directory renames: with it held, the
	// tree's parent topology cannot change under the ancestry check
	// (same-directory renames and create/unlink only add or remove
	// leaves of an unchanged topology).
	renameMu sync.Mutex

	dcache [dcacheShards]dcacheShard
}

// New creates a filesystem whose root is an empty MemFS directory.
func New(clock func() linux.Timespec) *FS {
	if clock == nil {
		clock = func() linux.Timespec { return linux.Timespec{} }
	}
	fs := &FS{Clock: clock}
	fs.rootFS = NewMemFS(clock)
	fs.Root = fs.rootFS.root
	m := &Mount{
		ID:      fs.nextMnt.Add(1), // 1: guests see st_dev == 1 on the root fs
		fs:      fs,
		path:    "/",
		backend: fs.rootFS,
		mem:     fs.rootFS,
		root:    fs.Root,
	}
	fs.rootFS.mnt.Store(m)
	fs.mounts = []*Mount{m}
	return fs
}

// MaxSymlinkDepth bounds symlink chains, as ELOOP does.
const MaxSymlinkDepth = 40

// splitPath normalizes and splits a path into components; "." components
// are dropped here, ".." is handled during the walk.
func splitPath(path string) []string {
	parts := strings.Split(path, "/")
	out := parts[:0]
	for _, p := range parts {
		if p != "" && p != "." {
			out = append(out, p)
		}
	}
	return out
}

// WalkResult is the outcome of path resolution. Node is nil when the final
// component does not exist (Parent and Name identify where it would go).
type WalkResult struct {
	Parent *Inode
	Node   *Inode
	Name   string
}

// Walk resolves path relative to the directory cwd (itself an absolute
// path; "" means root). followLast controls whether a symlink in the final
// component is dereferenced.
func (fs *FS) Walk(cwd, path string, followLast bool) (WalkResult, linux.Errno) {
	return fs.walk(cwd, path, followLast, 0)
}

// lookup resolves one component: dentry cache first (lock-free of the
// directory), then the filesystem under the directory's read lock —
// the children map for native directories, the mount's backend for
// proxies — populating the cache on a hit. See dcache.go for the
// coherence rules.
func (fs *FS) lookup(dir *Inode, name string) (*Inode, bool) {
	// m is nil when dir belongs to a MemFS tree whose mount is gone (an
	// in-flight walk or a cwd that outlived Unmount). Such a tree has no
	// mount ID to key the cache by — inode numbers of different unmounted
	// trees would alias — so it is resolved uncached.
	m := dir.mount()
	if m != nil {
		if n := fs.dcacheGet(m.ID, dir.Ino, name); n != nil {
			return n, true
		}
	}
	if dir.isProxy() {
		return m.lookupProxy(fs, dir, name)
	}
	dir.mu.RLock()
	c, ok := dir.children[name]
	if ok && m != nil {
		fs.dcachePut(m, dir.Ino, name, c)
	}
	dir.mu.RUnlock()
	return c, ok
}

func (fs *FS) walk(cwd, path string, followLast bool, depth int) (WalkResult, linux.Errno) {
	if depth > MaxSymlinkDepth {
		return WalkResult{}, linux.ELOOP
	}
	if path == "" {
		return WalkResult{}, linux.ENOENT
	}
	start := fs.Root
	if !strings.HasPrefix(path, "/") && cwd != "" && cwd != "/" {
		r, errno := fs.walk("/", cwd, true, depth+1)
		if errno != 0 {
			return WalkResult{}, errno
		}
		if r.Node == nil || !r.Node.IsDir() {
			return WalkResult{}, linux.ENOTDIR
		}
		start = r.Node
	}
	parts := splitPath(path)
	if len(parts) == 0 {
		// Path is "/" or equivalent.
		return WalkResult{Parent: start, Node: start, Name: "/"}, 0
	}
	cur := start
	for i, name := range parts {
		last := i == len(parts)-1
		if !cur.IsDir() {
			return WalkResult{}, linux.ENOTDIR
		}
		if name == ".." {
			// Escape mount roots first: ".." at a mount root continues
			// from the covered mountpoint, as in the real dcache walk.
			for {
				m := cur.mount()
				if m != nil && cur == m.root && m.point != nil {
					cur = m.point
					continue
				}
				break
			}
			if p := cur.Parent(); p != nil {
				cur = p
			}
			if last {
				return WalkResult{Parent: cur, Node: cur, Name: ".."}, 0
			}
			continue
		}
		next, ok := fs.lookup(cur, name)
		if !ok {
			if last {
				return WalkResult{Parent: cur, Node: nil, Name: name}, 0
			}
			return WalkResult{}, linux.ENOENT
		}
		// Cross into mounted filesystems. Longest-prefix resolution is
		// emergent: the deepest mount on the walked path is crossed last.
		for {
			if m := next.mountedOn(); m != nil {
				next = m.root
				continue
			}
			break
		}
		if next.IsSymlink() && (!last || followLast) {
			target := next.Target()
			rest := strings.Join(parts[i+1:], "/")
			if rest != "" {
				target = target + "/" + rest
			}
			base := fs.pathOf(cur)
			return fs.walk(base, target, followLast, depth+1)
		}
		if last {
			return WalkResult{Parent: cur, Node: next, Name: name}, 0
		}
		cur = next
	}
	return WalkResult{}, linux.ENOENT // unreachable
}

// pathOf reconstructs an absolute path for dir (best effort; used as the
// base for relative symlink targets).
func (fs *FS) pathOf(dir *Inode) string {
	if dir == fs.Root {
		return "/"
	}
	if dir.isProxy() {
		m := dir.mnt
		rel := dir.rel()
		if rel == "" {
			return m.path
		}
		if m.path == "/" {
			return "/" + rel
		}
		return m.path + "/" + rel
	}
	// Walk up via parent pointers, searching each parent for the child
	// name. O(depth * width); fine for the simulated tree sizes.
	var parts []string
	cur := dir
	for cur != fs.Root {
		if m := cur.mount(); m != nil && cur == m.root && m.point != nil {
			// Native mount root: the mountpoint path is the prefix.
			if len(parts) == 0 {
				return m.path
			}
			if m.path == "/" {
				break
			}
			return m.path + "/" + strings.Join(parts, "/")
		}
		p := cur.Parent()
		if p == nil || p == cur {
			break
		}
		name := ""
		p.mu.RLock()
		for n, c := range p.children {
			if c == cur {
				name = n
				break
			}
		}
		p.mu.RUnlock()
		if name == "" {
			break
		}
		parts = append([]string{name}, parts...)
		cur = p
	}
	return "/" + strings.Join(parts, "/")
}

// mountRoot reports whether n is the root of a non-root mount (and so
// busy for unlink/rename purposes).
func mountRoot(n *Inode) bool {
	m := n.mount()
	return m != nil && n == m.root && m.point != nil
}

// Create makes a new inode of the given mode at path. With excl set an
// existing entry fails with EEXIST; otherwise the existing inode is
// returned (open(O_CREAT) semantics).
func (fs *FS) Create(cwd, path string, mode uint32, uid, gid uint32, excl bool) (*Inode, linux.Errno) {
	r, errno := fs.Walk(cwd, path, true)
	if errno != 0 {
		return nil, errno
	}
	if r.Node != nil {
		if excl {
			return nil, linux.EEXIST
		}
		if r.Node.IsDir() && mode&linux.S_IFMT == linux.S_IFREG {
			return nil, linux.EISDIR
		}
		return r.Node, 0
	}
	if r.Name == ".." || r.Name == "/" {
		return nil, linux.EEXIST
	}
	return fs.CreateAt(r.Parent, r.Name, mode, uid, gid, excl)
}

// CreateAt is Create for a caller that already holds the parent
// directory's inode: it makes (or, without excl, finds) the entry name
// in dir without resolving a path. name must be a single component.
func (fs *FS) CreateAt(dir *Inode, name string, mode uint32, uid, gid uint32, excl bool) (*Inode, linux.Errno) {
	m := dir.mount()
	if m != nil && m.readonly {
		return nil, linux.EROFS
	}
	if dir.isProxy() {
		return m.createProxy(fs, dir, name, mode, excl)
	}
	n := dir.fsys.newInode(mode)
	n.uid, n.gid = uid, gid
	dir.mu.Lock()
	defer dir.mu.Unlock()
	if dir.nlink == 0 {
		// The directory was rmdir'd before the lock; a file created now
		// would live on an unreachable inode.
		return nil, linux.ENOENT
	}
	if existing, ok := dir.children[name]; ok {
		// The entry exists (or a racing create got there first): apply
		// the same semantics a path walk that found it would.
		if excl {
			return nil, linux.EEXIST
		}
		if existing.IsDir() && mode&linux.S_IFMT == linux.S_IFREG {
			return nil, linux.EISDIR
		}
		return existing, 0
	}
	if n.mode&linux.S_IFMT == linux.S_IFDIR {
		n.parent = dir
		dir.nlink++
	}
	dir.children[name] = n
	dir.mtime = fs.Clock()
	return n, 0
}

// Mkdir creates a directory.
func (fs *FS) Mkdir(cwd, path string, perm uint32, uid, gid uint32) (*Inode, linux.Errno) {
	r, errno := fs.Walk(cwd, path, true)
	if errno != 0 {
		return nil, errno
	}
	if r.Node != nil {
		return nil, linux.EEXIST
	}
	return fs.Create(cwd, path, linux.S_IFDIR|perm&0o7777, uid, gid, true)
}

// Symlink creates a symbolic link at path pointing to target. The
// final component is not followed: an existing dangling symlink at
// path is EEXIST, as symlink(2) specifies.
func (fs *FS) Symlink(cwd, target, path string, uid, gid uint32) linux.Errno {
	r, errno := fs.Walk(cwd, path, false)
	if errno != 0 {
		return errno
	}
	if r.Node != nil || r.Name == ".." || r.Name == "/" {
		return linux.EEXIST
	}
	if m := r.Parent.mount(); m != nil && m.readonly {
		return linux.EROFS
	}
	if r.Parent.isProxy() {
		return r.Parent.mnt.symlinkProxy(r.Parent, r.Name, target)
	}
	n := r.Parent.fsys.newInode(linux.S_IFLNK | 0o777)
	n.uid, n.gid = uid, gid
	n.target = target
	r.Parent.mu.Lock()
	defer r.Parent.mu.Unlock()
	if r.Parent.nlink == 0 {
		return linux.ENOENT // parent was rmdir'd between walk and lock
	}
	if _, ok := r.Parent.children[r.Name]; ok {
		return linux.EEXIST // lost a create race
	}
	r.Parent.children[r.Name] = n
	r.Parent.mtime = fs.Clock()
	return 0
}

// Mknod creates a special file (FIFO, device, socket). Special files
// live on memfs mounts only; proxy backends reject them with EPERM.
func (fs *FS) Mknod(cwd, path string, mode uint32, uid, gid uint32, dev DeviceOps) (*Inode, linux.Errno) {
	n, errno := fs.Create(cwd, path, mode, uid, gid, true)
	if errno != 0 {
		return nil, errno
	}
	if dev != nil {
		n.mu.Lock()
		n.dev = dev
		n.mu.Unlock()
	}
	return n, 0
}

// SetGenerator installs a content synthesizer on an inode (procfs files).
func (fs *FS) SetGenerator(n *Inode, gen func() []byte) {
	n.mu.Lock()
	n.gen = gen
	n.mu.Unlock()
}

// Unlink removes a directory entry. rmdir semantics when dir is true.
func (fs *FS) Unlink(cwd, path string, dir bool) linux.Errno {
	r, errno := fs.Walk(cwd, path, false)
	if errno != 0 {
		return errno
	}
	if r.Node == nil {
		return linux.ENOENT
	}
	return fs.unlinkAt(r.Parent, r.Name, r.Node, dir)
}

// UnlinkAt is Unlink for a caller that already holds the parent
// directory's inode: it removes the entry name from dir (rmdir semantics
// when isDir is true) without resolving a path.
func (fs *FS) UnlinkAt(dir *Inode, name string, isDir bool) linux.Errno {
	var node *Inode
	if dir.isProxy() {
		node, _ = fs.lookup(dir, name)
	} else {
		// Read the entry directly: going through lookup would enter it
		// in the dentry cache only for unlinkAt to drop it again.
		dir.mu.RLock()
		node = dir.children[name]
		dir.mu.RUnlock()
	}
	if node == nil {
		return linux.ENOENT
	}
	return fs.unlinkAt(dir, name, node, isDir)
}

// unlinkAt removes the entry name → node from parent.
func (fs *FS) unlinkAt(parent *Inode, name string, node *Inode, dir bool) linux.Errno {
	if node == fs.Root {
		return linux.EBUSY
	}
	if mountRoot(node) {
		return linux.EBUSY // the entry is covered by a mount
	}
	if dir {
		if !node.IsDir() {
			return linux.ENOTDIR
		}
	} else if node.IsDir() {
		return linux.EISDIR
	}
	m := parent.mount()
	if m != nil && m.readonly {
		return linux.EROFS
	}
	if parent.isProxy() {
		return m.unlinkProxy(fs, parent, name, dir)
	}
	var mntID uint64
	if m != nil {
		mntID = m.ID
	}
	parent.mu.Lock()
	if parent.children[name] != node {
		// The entry changed before the lock; the caller's target is
		// already gone.
		parent.mu.Unlock()
		return linux.ENOENT
	}
	if dir {
		// Check emptiness and mark the victim dead (nlink 0) under its
		// own write lock, held together with the parent's: a concurrent
		// Create into this directory serializes on that lock and then
		// sees nlink == 0, so nothing can slip into a removed directory.
		node.mu.Lock()
		if len(node.children) > 0 {
			node.mu.Unlock()
			parent.mu.Unlock()
			return linux.ENOTEMPTY
		}
		node.nlink = 0
		node.mu.Unlock()
	}
	delete(parent.children, name)
	fs.dcacheDelete(mntID, parent.Ino, name)
	parent.mtime = fs.Clock()
	if dir {
		parent.nlink--
	}
	parent.mu.Unlock()
	if !dir {
		node.mu.Lock()
		if node.nlink > 0 {
			node.nlink--
		}
		node.mu.Unlock()
	}
	return 0
}

// Link creates a hard link newpath referring to oldpath's inode. Hard
// links are a memfs capability; cross-mount links fail with EXDEV and
// proxy mounts with EPERM.
func (fs *FS) Link(cwd, oldpath, newpath string) linux.Errno {
	or, errno := fs.Walk(cwd, oldpath, false)
	if errno != 0 {
		return errno
	}
	if or.Node == nil {
		return linux.ENOENT
	}
	if or.Node.IsDir() {
		return linux.EPERM
	}
	nr, errno := fs.Walk(cwd, newpath, true)
	if errno != 0 {
		return errno
	}
	if nr.Node != nil {
		return linux.EEXIST
	}
	m := nr.Parent.mount()
	if or.Node.mount() != m {
		return linux.EXDEV
	}
	if m != nil && m.readonly {
		return linux.EROFS
	}
	if nr.Parent.isProxy() {
		return linux.EPERM
	}
	nr.Parent.mu.Lock()
	if nr.Parent.nlink == 0 {
		nr.Parent.mu.Unlock()
		return linux.ENOENT // destination directory was rmdir'd
	}
	if _, ok := nr.Parent.children[nr.Name]; ok {
		nr.Parent.mu.Unlock()
		return linux.EEXIST
	}
	nr.Parent.children[nr.Name] = or.Node
	nr.Parent.mtime = fs.Clock()
	nr.Parent.mu.Unlock()
	or.Node.mu.Lock()
	or.Node.nlink++
	or.Node.mu.Unlock()
	return 0
}

// isAncestorOf reports whether a is dir or a strict ancestor of dir.
// Callers serialize topology changes (renameMu held); only per-step
// parent reads are locked.
func (fs *FS) isAncestorOf(a, dir *Inode) bool {
	for cur := dir; ; {
		if cur == a {
			return true
		}
		if cur == fs.Root {
			return false
		}
		p := cur.Parent()
		if p == nil || p == cur {
			return false
		}
		cur = p
	}
}

// lockTwoDirs acquires the write locks of both directories (identical
// directories lock once). Related directories lock ancestor-first — the
// same topological parent → child order Unlink and Create use — and
// unrelated pairs fall back to inode-number order; unrelated pairs are
// only ever held together by renames, which renameMu serializes, so the
// combined order is acyclic. Callers must hold renameMu whenever the two
// differ (it freezes the ancestor relation the choice depends on).
func (fs *FS) lockTwoDirs(a, b *Inode) {
	switch {
	case a == b:
		a.mu.Lock()
	case fs.isAncestorOf(a, b):
		a.mu.Lock()
		b.mu.Lock()
	case fs.isAncestorOf(b, a):
		b.mu.Lock()
		a.mu.Lock()
	case a.Ino < b.Ino:
		a.mu.Lock()
		b.mu.Lock()
	default:
		b.mu.Lock()
		a.mu.Lock()
	}
}

func unlockTwoDirs(a, b *Inode) {
	if a == b {
		a.mu.Unlock()
		return
	}
	a.mu.Unlock()
	b.mu.Unlock()
}

// Rename moves oldpath to newpath, replacing a compatible existing
// target. Renames never cross a mount boundary (EXDEV), matching
// rename(2) across filesystems.
func (fs *FS) Rename(cwd, oldpath, newpath string) linux.Errno {
	or, errno := fs.Walk(cwd, oldpath, false)
	if errno != 0 {
		return errno
	}
	if or.Node == nil {
		return linux.ENOENT
	}
	nr, errno := fs.Walk(cwd, newpath, false)
	if errno != 0 {
		return errno
	}
	if nr.Node == or.Node {
		return 0
	}
	mo := or.Parent.mount()
	if mo != nr.Parent.mount() {
		return linux.EXDEV
	}
	if mo != nil && mo.readonly {
		return linux.EROFS
	}
	if mountRoot(or.Node) || (nr.Node != nil && mountRoot(nr.Node)) {
		return linux.EBUSY // mountpoints cannot be moved or replaced
	}
	if or.Parent.isProxy() {
		return fs.renameProxy(mo, or, nr)
	}

	crossDir := or.Parent != nr.Parent
	srcIsDir := or.Node.IsDir()
	targetIsDir := nr.Node != nil && nr.Node.IsDir()
	if crossDir || targetIsDir {
		// Serialize every rename that locks two directories or replaces
		// one, so the ancestry analysis below cannot race a concurrent
		// topology change (Linux's s_vfs_rename_mutex). Plain same-
		// directory renames of non-directories skip it: they take one
		// parent lock and do not alter or consult topology.
		fs.renameMu.Lock()
		defer fs.renameMu.Unlock()
	}
	// Ancestry checks run before any inode lock is held (isAncestorOf
	// read-locks one chain node at a time).
	if crossDir && srcIsDir && fs.isAncestorOf(or.Node, nr.Parent) {
		return linux.EINVAL // would move a directory into itself
	}
	if targetIsDir && fs.isAncestorOf(nr.Node, or.Parent) {
		// The replaced directory contains the chain down to the source's
		// parent, so it is necessarily non-empty — and locking an
		// ancestor of a directory we hold would invert the lock order.
		return linux.ENOTEMPTY
	}

	fs.lockTwoDirs(or.Parent, nr.Parent)
	defer unlockTwoDirs(or.Parent, nr.Parent)

	if or.Parent.children[or.Name] != or.Node {
		return linux.ENOENT // lost a race with unlink/rename of the source
	}
	if or.Parent.nlink == 0 || nr.Parent.nlink == 0 {
		return linux.ENOENT // either directory was concurrently rmdir'd
	}
	target := nr.Parent.children[nr.Name]
	if target == or.Node {
		return 0
	}
	if target != nr.Node {
		// The destination entry changed between walk and lock. The
		// pre-lock type and ancestry analysis applied to nr.Node, not to
		// this entry; report the race instead of acting on stale checks.
		return linux.ENOENT
	}
	if target != nil {
		if targetIsDir != srcIsDir {
			if targetIsDir {
				return linux.EISDIR
			}
			return linux.ENOTDIR
		}
		if targetIsDir {
			// A directory reachable as one of the locked parents is
			// never empty; any other target passed the ancestry check,
			// so its lock nests parent → child here. As in rmdir: check
			// emptiness and mark the replaced directory dead under its
			// own write lock, so concurrent creates into it cannot land
			// after the replacement.
			if target == or.Parent || target == nr.Parent {
				return linux.ENOTEMPTY
			}
			target.mu.Lock()
			if len(target.children) > 0 {
				target.mu.Unlock()
				return linux.ENOTEMPTY
			}
			target.nlink = 0
			target.mu.Unlock()
		}
	}
	var mntID uint64
	if mo != nil {
		mntID = mo.ID
	}
	delete(or.Parent.children, or.Name)
	fs.dcacheDelete(mntID, or.Parent.Ino, or.Name)
	or.Parent.mtime = fs.Clock()
	nr.Parent.children[nr.Name] = or.Node
	fs.dcacheDelete(mntID, nr.Parent.Ino, nr.Name)
	nr.Parent.mtime = fs.Clock()
	if srcIsDir {
		or.Node.mu.Lock()
		or.Node.parent = nr.Parent
		or.Node.mu.Unlock()
	}
	return 0
}

// renameProxy delegates a rename within one proxy mount to its backend
// and re-keys the moved proxy subtree. renameMu serializes it (subtree
// re-keying must not interleave with another rename's).
func (fs *FS) renameProxy(m *Mount, or, nr WalkResult) linux.Errno {
	srcIsDir := or.Node.IsDir()
	if nr.Node != nil {
		targetIsDir := nr.Node.IsDir()
		if targetIsDir != srcIsDir {
			if targetIsDir {
				return linux.EISDIR
			}
			return linux.ENOTDIR
		}
	}
	fs.renameMu.Lock()
	defer fs.renameMu.Unlock()
	fs.lockTwoDirs(or.Parent, nr.Parent)
	defer unlockTwoDirs(or.Parent, nr.Parent)
	oldRel := joinRel(or.Parent.brel, or.Name)
	newRel := joinRel(nr.Parent.brel, nr.Name)
	if oldRel == newRel {
		return 0
	}
	if strings.HasPrefix(newRel, oldRel+"/") {
		return linux.EINVAL // would move a directory into itself
	}
	if strings.HasPrefix(oldRel, newRel+"/") {
		return linux.ENOTEMPTY // target contains the source: never empty
	}
	if errno := m.backend.Rename(oldRel, newRel); errno != 0 {
		return errno
	}
	fs.dcacheDelete(m.ID, or.Parent.Ino, or.Name)
	fs.dcacheDelete(m.ID, nr.Parent.Ino, nr.Name)
	m.renameNodes(oldRel, newRel, nr.Parent)
	return 0
}

// Readlink returns the symlink target.
func (fs *FS) Readlink(cwd, path string) (string, linux.Errno) {
	r, errno := fs.Walk(cwd, path, false)
	if errno != 0 {
		return "", errno
	}
	if r.Node == nil {
		return "", linux.ENOENT
	}
	if !r.Node.IsSymlink() {
		return "", linux.EINVAL
	}
	return r.Node.Target(), 0
}

// MkdirAll creates path and any missing ancestors (setup helper, not a
// syscall).
func (fs *FS) MkdirAll(path string, perm uint32) *Inode {
	parts := splitPath(path)
	cur := "/"
	var node *Inode = fs.Root
	for _, p := range parts {
		next := cur + p
		r, errno := fs.Walk("/", next, true)
		if errno == 0 && r.Node != nil {
			node = r.Node
		} else {
			n, errno := fs.Mkdir("/", next, perm, 0, 0)
			if errno != 0 {
				return nil
			}
			node = n
		}
		cur = next + "/"
	}
	return node
}

// WriteFile creates (or truncates) a regular file with contents (setup
// helper).
func (fs *FS) WriteFile(path string, contents []byte, perm uint32) linux.Errno {
	n, errno := fs.Create("/", path, linux.S_IFREG|perm, 0, 0, false)
	if errno != 0 {
		return errno
	}
	if errno := n.Truncate(0); errno != 0 {
		return errno
	}
	_, errno = n.WriteAt(contents, 0)
	return errno
}
