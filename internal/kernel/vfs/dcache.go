package vfs

import (
	"hash/maphash"
	"sync"
)

// Dentry cache: a sharded (mount, directory ino, name) → inode map in
// front of the per-directory children maps and backend lookups, so hot
// path components (/, /tmp, shared prefixes) resolve without touching
// the directory's lock — or the backend — at all.
//
// Coherence protocol: a cache entry for (mnt, dir, name) is only ever
// inserted while holding dir's inode lock in read mode, and only ever
// invalidated while holding it in write mode (every namespace mutation
// — create, unlink, link, rename — runs under the parent's write lock,
// on proxy mounts too). The two modes exclude each other, so a lookup
// can never re-populate an entry a concurrent unlink just invalidated:
// there are no stale entries, only misses. Shard locks nest strictly
// inside inode locks.
//
// Keys carry the mount ID so distinct mounts can never alias (inode
// numbers are per-mount), and so unmount can sweep a whole mount's
// entries. Mount IDs are never reused, so an entry that outlived its
// mount could never be served for a later mount at the same path — but
// it could never be looked up again either, and under mount churn such
// entries would pile up without bound. None survive: Unmount sets the
// mount's dead flag before it sweeps, and dcachePut checks the flag under
// the shard lock, so an insert racing the unmount either lands before the
// sweep visits its shard (and is swept) or sees the flag (and is refused).
const dcacheShards = 64

// dcacheShardCap bounds each shard; beyond it a random entry is evicted.
// Eviction is always safe — a miss falls back to the filesystem.
const dcacheShardCap = 4096

type dentKey struct {
	mnt  uint64 // mount ID
	dir  uint64 // directory inode number within the mount
	name string
}

type dcacheShard struct {
	mu sync.RWMutex
	m  map[dentKey]*Inode
	_  [32]byte // round the 32-byte payload up to a full cache line
}

var dentSeed = maphash.MakeSeed()

func (fs *FS) dshard(mnt, dir uint64, name string) *dcacheShard {
	return &fs.dcache[maphash.Comparable(dentSeed, dentKey{mnt, dir, name})%dcacheShards]
}

// dcacheGet returns the cached child, or nil on miss.
func (fs *FS) dcacheGet(mnt, dir uint64, name string) *Inode {
	sh := fs.dshard(mnt, dir, name)
	sh.mu.RLock()
	n := sh.m[dentKey{mnt, dir, name}]
	sh.mu.RUnlock()
	return n
}

// dcachePut caches a positive lookup in a directory of mount m. Caller
// holds the directory's inode lock in (at least) read mode. An insert for
// an unmounted mount is refused; the dead check sits under the shard lock
// so that it orders against dcacheDropMount.
func (fs *FS) dcachePut(m *Mount, dir uint64, name string, n *Inode) {
	mnt := m.ID
	sh := fs.dshard(mnt, dir, name)
	sh.mu.Lock()
	if m.dead.Load() {
		sh.mu.Unlock()
		return
	}
	if sh.m == nil {
		sh.m = make(map[dentKey]*Inode)
	}
	if len(sh.m) >= dcacheShardCap {
		for k := range sh.m {
			delete(sh.m, k)
			break
		}
	}
	sh.m[dentKey{mnt, dir, name}] = n
	sh.mu.Unlock()
}

// dcacheDelete invalidates (mnt, dir, name). Caller holds the directory's
// inode lock in write mode.
func (fs *FS) dcacheDelete(mnt, dir uint64, name string) {
	sh := fs.dshard(mnt, dir, name)
	sh.mu.Lock()
	delete(sh.m, dentKey{mnt, dir, name})
	sh.mu.Unlock()
}

// dcacheDropMount sweeps every entry belonging to one mount (unmount).
// The caller has already set the mount's dead flag.
func (fs *FS) dcacheDropMount(mnt uint64) {
	for i := range fs.dcache {
		sh := &fs.dcache[i]
		sh.mu.Lock()
		for k := range sh.m {
			if k.mnt == mnt {
				delete(sh.m, k)
			}
		}
		sh.mu.Unlock()
	}
}
