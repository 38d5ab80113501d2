package vfs

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"gowali/internal/linux"
)

// Mount is one entry of the mount table: a backend grafted over a
// directory. Two shapes exist:
//
//   - native (mem != nil): a MemFS tree grafted directly — the walk
//     descends its inodes exactly as it does the root tree;
//   - proxy (mem == nil): any other Backend. The mount materializes one
//     proxy inode per path it has seen (the nodes table), so open files
//     and the execve module cache observe a stable identity per file,
//     and delegates all data and namespace operations to the backend.
//
// Longest-prefix resolution is emergent: the walk crosses into a mount
// at its mountpoint inode, so the deepest mount on a path wins without
// consulting the table.
type Mount struct {
	// ID keys the dentry cache and is the st_dev guests observe; it is
	// unique per FS for the FS's lifetime (never reused), so a later
	// mount at the same path can never be served this mount's entries.
	ID       uint64
	fs       *FS
	path     string // absolute mountpoint path ("/" for the root mount)
	point    *Inode // covered mountpoint inode (nil for the root mount)
	backend  Backend
	mem      *MemFS // non-nil for natively grafted MemFS mounts
	root     *Inode
	readonly bool
	dead     atomic.Bool

	// Proxy-inode table (proxy mounts only): mount-relative path →
	// inode. nodeMu nests strictly inside inode locks.
	nodeMu  sync.Mutex
	nodes   map[string]*Inode
	nextIno atomic.Uint64
}

// MountOptions configures FS.Mount.
type MountOptions struct {
	// ReadOnly rejects every mutation through this mount with EROFS
	// (forced on when the backend itself is read-only).
	ReadOnly bool
}

// MountInfo is one public row of the mount table.
type MountInfo struct {
	Path     string
	ReadOnly bool
	Backend  Backend
}

// joinRel appends a name to a mount-relative directory path.
func joinRel(dir, name string) string {
	if dir == "" {
		return name
	}
	return dir + "/" + name
}

// normalizeAbs collapses "." and ".." lexically into an absolute path.
func normalizeAbs(path string) string {
	var stack []string
	for _, p := range strings.Split(path, "/") {
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

// Mount grafts backend over the directory at path. The directory must
// exist; mounting over "/" is rejected (the root mount is fixed at
// boot), and at most one mount may cover a given inode (mounting onto
// an already-mounted path stacks over the previous mount's root).
func (fs *FS) Mount(path string, b Backend, opts MountOptions) linux.Errno {
	if b == nil {
		return linux.EINVAL
	}
	r, errno := fs.Walk("/", path, true)
	if errno != 0 {
		return errno
	}
	if r.Node == nil {
		return linux.ENOENT
	}
	if !r.Node.IsDir() {
		return linux.ENOTDIR
	}
	if r.Node == fs.Root {
		return linux.EBUSY
	}
	m := &Mount{
		ID:       fs.nextMnt.Add(1),
		fs:       fs,
		path:     normalizeAbs(path),
		point:    r.Node,
		backend:  b,
		readonly: opts.ReadOnly || b.Caps().ReadOnly,
	}
	if mem, ok := b.(*MemFS); ok {
		if !mem.mnt.CompareAndSwap(nil, m) {
			return linux.EBUSY // this tree is already mounted somewhere
		}
		m.mem = mem
		m.root = mem.root
	} else {
		info, errno := b.Stat("")
		if errno != 0 {
			return errno
		}
		if info.Mode&linux.S_IFMT != linux.S_IFDIR {
			return linux.ENOTDIR
		}
		root := &Inode{Ino: m.nextIno.Add(1), typ: linux.S_IFDIR, mnt: m, mode: info.Mode, nlink: 2}
		root.parent = root
		m.nodes = map[string]*Inode{"": root}
		m.root = root
	}
	if !r.Node.mounted.CompareAndSwap(nil, m) {
		if m.mem != nil {
			m.mem.mnt.CompareAndSwap(m, nil)
		}
		return linux.EBUSY
	}
	fs.mntMu.Lock()
	fs.mounts = append(fs.mounts, m)
	fs.mntMu.Unlock()
	return 0
}

// Unmount detaches the (topmost) mount at path. In-flight walks and
// open files referencing the old mount keep working against its
// backend (lazy unmount, as MNT_DETACH behaves); fresh walks see the
// underlying directory. All of the mount's dentry-cache entries are
// swept out, and the dead flag (set before the sweep, checked by
// dcachePut under the shard lock) refuses any insert that races it.
func (fs *FS) Unmount(path string) linux.Errno {
	npath := normalizeAbs(path)
	fs.mntMu.Lock()
	var m *Mount
	for i := len(fs.mounts) - 1; i >= 0; i-- {
		if fs.mounts[i].path == npath && fs.mounts[i].point != nil {
			m = fs.mounts[i]
			fs.mounts = append(fs.mounts[:i], fs.mounts[i+1:]...)
			break
		}
	}
	fs.mntMu.Unlock()
	if m == nil {
		return linux.EINVAL
	}
	m.point.mounted.CompareAndSwap(m, nil)
	m.dead.Store(true)
	if m.mem != nil {
		m.mem.mnt.CompareAndSwap(m, nil)
	}
	fs.dcacheDropMount(m.ID)
	return 0
}

// Mounts lists the mount table, shortest path first.
func (fs *FS) Mounts() []MountInfo {
	fs.mntMu.Lock()
	defer fs.mntMu.Unlock()
	out := make([]MountInfo, 0, len(fs.mounts))
	for _, m := range fs.mounts {
		out = append(out, MountInfo{Path: m.path, ReadOnly: m.readonly, Backend: m.backend})
	}
	sort.Slice(out, func(i, j int) bool { return len(out[i].Path) < len(out[j].Path) })
	return out
}

// MagicFor reports the statfs f_type for the filesystem holding n.
func (fs *FS) MagicFor(n *Inode) int64 {
	if m := n.mount(); m != nil && m.backend != nil {
		if mg := m.backend.Caps().Magic; mg != 0 {
			return mg
		}
	}
	return MagicTmpfs
}

// --- proxy-inode management ---

// getNode returns the stable proxy inode for rel, materializing it on
// first sight. Caller holds (at least) the parent's read lock, which
// is what makes the dcache insert it performs next coherent.
func (m *Mount) getNode(parent *Inode, rel string, info NodeInfo) *Inode {
	m.nodeMu.Lock()
	defer m.nodeMu.Unlock()
	if n := m.nodes[rel]; n != nil && n.typ == info.Mode&linux.S_IFMT {
		return n
	}
	n := &Inode{
		Ino:   m.nextIno.Add(1),
		typ:   info.Mode & linux.S_IFMT,
		mnt:   m,
		brel:  rel,
		mode:  info.Mode,
		nlink: 1,
	}
	if info.Mode&linux.S_IFMT == linux.S_IFDIR {
		n.nlink = 2
		n.parent = parent
	}
	m.nodes[rel] = n
	return n
}

// detachLocked removes rel (and, for directories, its whole subtree)
// from the proxy table, returning the victims. Caller holds nodeMu and
// MUST NOT touch the victims' inode locks until nodeMu is released —
// nodeMu nests strictly inside inode locks (lookupProxy holds a
// directory lock when it takes nodeMu in getNode), so acquiring an
// inode lock under nodeMu would invert the order and deadlock against
// a concurrent walk.
func (m *Mount) detachLocked(rel string) []*Inode {
	var victims []*Inode
	if n := m.nodes[rel]; n != nil {
		victims = append(victims, n)
		delete(m.nodes, rel)
	}
	prefix := rel + "/"
	for k, n := range m.nodes {
		if strings.HasPrefix(k, prefix) {
			victims = append(victims, n)
			delete(m.nodes, k)
		}
	}
	return victims
}

// killNodes marks detached proxies dead (nlink 0) so racing creates
// observe the removal. Runs with nodeMu released; the caller's parent
// write lock keeps the parent → child order of the memfs paths.
func killNodes(victims []*Inode) {
	for _, n := range victims {
		n.mu.Lock()
		n.nlink = 0
		n.mu.Unlock()
	}
}

// dropNode removes rel (and, for directories, its whole subtree) from
// the proxy table, marking the victims dead so racing creates observe
// nlink == 0. Caller holds the parent's write lock.
func (m *Mount) dropNode(rel string) {
	m.nodeMu.Lock()
	victims := m.detachLocked(rel)
	m.nodeMu.Unlock()
	killNodes(victims)
}

// renameNodes re-keys oldRel's proxy subtree under newRel after a
// successful backend rename, so open files follow the file to its new
// path. A displaced target subtree dies first. Caller holds both
// parents' write locks and FS.renameMu (which serializes re-keying);
// the map is updated under nodeMu alone, then the inodes' brel fields
// under their own locks — see detachLocked for why the two phases
// must not overlap.
func (m *Mount) renameNodes(oldRel, newRel string, newParent *Inode) {
	type move struct {
		key string
		n   *Inode
	}
	m.nodeMu.Lock()
	victims := m.detachLocked(newRel)
	var moved []move
	for k, n := range m.nodes {
		if k == oldRel || strings.HasPrefix(k, oldRel+"/") {
			moved = append(moved, move{newRel + k[len(oldRel):], n})
			delete(m.nodes, k)
		}
	}
	for _, mv := range moved {
		m.nodes[mv.key] = mv.n
	}
	m.nodeMu.Unlock()
	killNodes(victims)
	for _, mv := range moved {
		mv.n.mu.Lock()
		mv.n.brel = mv.key
		if mv.key == newRel && mv.n.parent != nil {
			mv.n.parent = newParent
		}
		mv.n.mu.Unlock()
	}
}

// lookupProxy resolves one component in a proxy directory, mirroring
// the native lookup's coherence protocol: backend consult plus dcache
// insert under the directory's read lock, mutations under its write
// lock, so an invalidated entry can never be re-inserted stale.
func (m *Mount) lookupProxy(fs *FS, dir *Inode, name string) (*Inode, bool) {
	dir.mu.RLock()
	defer dir.mu.RUnlock()
	if dir.nlink == 0 {
		return nil, false // directory was removed
	}
	info, errno := m.backend.Lookup(dir.brel, name)
	if errno != 0 {
		return nil, false
	}
	n := m.getNode(dir, joinRel(dir.brel, name), info)
	fs.dcachePut(m, dir.Ino, name, n)
	return n, true
}

// listProxy implements Inode.List for proxy directories, substituting
// per-mount inode numbers for the backend's advisory ones.
func (m *Mount) listProxy(n *Inode) []DirEntry {
	n.mu.RLock()
	defer n.mu.RUnlock()
	ents, errno := m.backend.ReadDir(n.brel)
	if errno != 0 {
		return nil
	}
	out := make([]DirEntry, 0, len(ents))
	for _, e := range ents {
		mode := modeFromDT(e.Type)
		if mode == 0 {
			info, errno := m.backend.Lookup(n.brel, e.Name)
			if errno != 0 {
				continue
			}
			mode = info.Mode
		}
		child := m.getNode(n, joinRel(n.brel, e.Name), infoFromMode(mode))
		out = append(out, DirEntry{Name: e.Name, Ino: child.Ino, Type: dtype(child.typ)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// createProxy implements Create/Mkdir under a proxy parent.
func (m *Mount) createProxy(fs *FS, dir *Inode, name string, mode uint32, excl bool) (*Inode, linux.Errno) {
	dir.mu.Lock()
	defer dir.mu.Unlock()
	if dir.nlink == 0 {
		return nil, linux.ENOENT // parent was removed between walk and lock
	}
	rel := joinRel(dir.brel, name)
	if info, errno := m.backend.Lookup(dir.brel, name); errno == 0 {
		// Lost a create race (or the walk's miss was stale): apply
		// open(O_CREAT) semantics to the entry that got there first.
		if excl {
			return nil, linux.EEXIST
		}
		n := m.getNode(dir, rel, info)
		if n.IsDir() && mode&linux.S_IFMT == linux.S_IFREG {
			return nil, linux.EISDIR
		}
		return n, 0
	}
	var errno linux.Errno
	switch mode & linux.S_IFMT {
	case linux.S_IFREG:
		errno = m.backend.Create(rel, mode&0o7777)
	case linux.S_IFDIR:
		errno = m.backend.Mkdir(rel, mode&0o7777)
	default:
		return nil, linux.EPERM // devices/FIFOs/sockets stay on memfs
	}
	if errno != 0 {
		return nil, errno
	}
	info, errno := m.backend.Lookup(dir.brel, name)
	if errno != 0 {
		return nil, linux.EIO
	}
	return m.getNode(dir, rel, info), 0
}

// symlinkProxy implements Symlink under a proxy parent.
func (m *Mount) symlinkProxy(dir *Inode, name, target string) linux.Errno {
	sb, ok := m.backend.(SymlinkBackend)
	if !ok {
		return linux.EPERM
	}
	dir.mu.Lock()
	defer dir.mu.Unlock()
	if dir.nlink == 0 {
		return linux.ENOENT
	}
	return sb.Symlink(joinRel(dir.brel, name), target)
}

// unlinkProxy implements Unlink/Rmdir under a proxy parent. Type and
// mount-root checks ran in FS.Unlink; the backend is authoritative for
// existence and emptiness.
func (m *Mount) unlinkProxy(fs *FS, dir *Inode, name string, dirOp bool) linux.Errno {
	dir.mu.Lock()
	defer dir.mu.Unlock()
	rel := joinRel(dir.brel, name)
	if errno := m.backend.Unlink(rel, dirOp); errno != 0 {
		return errno
	}
	fs.dcacheDelete(m.ID, dir.Ino, name)
	m.dropNode(rel)
	return 0
}
