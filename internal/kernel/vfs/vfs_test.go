package vfs

import (
	"testing"
	"testing/quick"
	"time"

	"gowali/internal/linux"
)

func newFS() *FS {
	return New(func() linux.Timespec { return linux.Timespec{Sec: 1} })
}

func TestWalkAbsoluteAndRelative(t *testing.T) {
	fs := newFS()
	fs.MkdirAll("/a/b/c", 0o755)
	r, errno := fs.Walk("/", "/a/b/c", true)
	if errno != 0 || r.Node == nil || !r.Node.IsDir() {
		t.Fatalf("walk abs: %v", errno)
	}
	r, errno = fs.Walk("/a", "b/c", true)
	if errno != 0 || r.Node == nil {
		t.Fatalf("walk rel: %v", errno)
	}
	r, errno = fs.Walk("/a/b", "../b/c", true)
	if errno != 0 || r.Node == nil {
		t.Fatalf("walk dotdot: %v", errno)
	}
	// Missing final component: Node nil, Parent set.
	r, errno = fs.Walk("/", "/a/b/nope", true)
	if errno != 0 || r.Node != nil || r.Parent == nil || r.Name != "nope" {
		t.Fatalf("missing final: %+v %v", r, errno)
	}
	// Missing intermediate: ENOENT.
	if _, errno := fs.Walk("/", "/zzz/c", true); errno != linux.ENOENT {
		t.Fatalf("missing intermediate: %v", errno)
	}
	// Through a file: ENOTDIR.
	fs.Create("/", "/a/file", linux.S_IFREG|0o644, 0, 0, true)
	if _, errno := fs.Walk("/", "/a/file/x", true); errno != linux.ENOTDIR {
		t.Fatalf("through file: %v", errno)
	}
}

func TestRootAndDotDotAboveRoot(t *testing.T) {
	fs := newFS()
	r, errno := fs.Walk("/", "/", true)
	if errno != 0 || r.Node != fs.Root {
		t.Fatalf("walk /: %v", errno)
	}
	// ".." above root stays at root.
	r, errno = fs.Walk("/", "/../../..", true)
	if errno != 0 || r.Node != fs.Root {
		t.Fatalf("above root: %v node=%v", errno, r.Node)
	}
}

func TestInodeDataOps(t *testing.T) {
	fs := newFS()
	n, errno := fs.Create("/", "/f", linux.S_IFREG|0o644, 0, 0, true)
	if errno != 0 {
		t.Fatal(errno)
	}
	// Sparse write.
	if _, errno := n.WriteAt([]byte("end"), 100); errno != 0 {
		t.Fatal(errno)
	}
	if n.Size() != 103 {
		t.Fatalf("size %d", n.Size())
	}
	buf := make([]byte, 10)
	cnt, _ := n.ReadAt(buf, 0)
	for i := 0; i < cnt; i++ {
		if buf[i] != 0 {
			t.Fatal("sparse gap not zero")
		}
	}
	cnt, _ = n.ReadAt(buf, 100)
	if string(buf[:cnt]) != "end" {
		t.Fatalf("read %q", buf[:cnt])
	}
	// EOF.
	if cnt, errno := n.ReadAt(buf, 1000); cnt != 0 || errno != 0 {
		t.Fatalf("eof: %d %v", cnt, errno)
	}
	// Truncate shrink + grow.
	n.Truncate(2)
	if n.Size() != 2 {
		t.Fatal("shrink failed")
	}
	n.Truncate(50)
	cnt, _ = n.ReadAt(buf, 40)
	if cnt != 10 || buf[0] != 0 {
		t.Fatal("grow not zero-filled")
	}
}

func TestDirEntriesSorted(t *testing.T) {
	fs := newFS()
	fs.MkdirAll("/d", 0o755)
	for _, name := range []string{"zeta", "alpha", "mid"} {
		fs.Create("/", "/d/"+name, linux.S_IFREG|0o644, 0, 0, true)
	}
	r, _ := fs.Walk("/", "/d", true)
	ents := r.Node.List()
	if len(ents) != 3 || ents[0].Name != "alpha" || ents[2].Name != "zeta" {
		t.Fatalf("entries: %+v", ents)
	}
	if ents[0].Type != linux.DT_REG {
		t.Fatalf("dtype %d", ents[0].Type)
	}
}

func TestPipeEOFAndEPIPE(t *testing.T) {
	p := NewPipe()
	p.AddReader()
	p.AddWriter()
	if n, errno := p.Write([]byte("xy"), false); n != 2 || errno != 0 {
		t.Fatalf("write: %d %v", n, errno)
	}
	buf := make([]byte, 8)
	if n, _ := p.Read(buf, false); n != 2 {
		t.Fatalf("read %d", n)
	}
	p.CloseWriter()
	if n, errno := p.Read(buf, false); n != 0 || errno != 0 {
		t.Fatalf("eof: %d %v", n, errno)
	}
	p2 := NewPipe()
	p2.AddWriter()
	if _, errno := p2.Write([]byte("x"), false); errno != linux.EPIPE {
		t.Fatalf("no-reader write: %v", errno)
	}
}

func TestPipeBlockingHandoff(t *testing.T) {
	p := NewPipe()
	p.AddReader()
	p.AddWriter()
	done := make(chan int, 1)
	go func() {
		buf := make([]byte, 4)
		n, _ := p.Read(buf, false)
		done <- n
	}()
	time.Sleep(time.Millisecond)
	p.Write([]byte("go"), false)
	if n := <-done; n != 2 {
		t.Fatalf("handoff read %d", n)
	}
}

// TestPipeMessageCycleAllocatesNothing: a request/reply stream (write a
// message, read it whole) reuses the pipe's array. A drained pipe used to
// keep a zero-capacity tail, so every message went through growslice.
func TestPipeMessageCycleAllocatesNothing(t *testing.T) {
	p := NewPipe()
	p.AddReader()
	p.AddWriter()
	msg, buf := make([]byte, 16), make([]byte, 64)
	if n := testing.AllocsPerRun(100, func() {
		if n, errno := p.Write(msg, true); n != len(msg) || errno != 0 {
			t.Fatalf("write: %d %v", n, errno)
		}
		if n, errno := p.Read(buf, true); n != len(msg) || errno != 0 {
			t.Fatalf("read: %d %v", n, errno)
		}
	}); n != 0 {
		t.Errorf("%v allocations per 16-byte write/read cycle, want 0", n)
	}
}

func TestPipePollStates(t *testing.T) {
	p := NewPipe()
	p.AddReader()
	p.AddWriter()
	if ev := p.Poll(true); ev&linux.POLLIN != 0 {
		t.Error("empty pipe readable")
	}
	if ev := p.Poll(false); ev&linux.POLLOUT == 0 {
		t.Error("fresh pipe not writable")
	}
	p.Write([]byte("z"), false)
	if ev := p.Poll(true); ev&linux.POLLIN == 0 {
		t.Error("non-empty pipe not readable")
	}
	p.CloseWriter()
	if ev := p.Poll(true); ev&linux.POLLHUP == 0 {
		t.Error("writer-closed pipe missing POLLHUP")
	}
}

// TestWalkNeverPanicsProperty: arbitrary path strings must resolve or
// fail with an errno, never panic.
func TestWalkNeverPanicsProperty(t *testing.T) {
	fs := newFS()
	fs.MkdirAll("/a/b", 0o755)
	fs.Symlink("/", "/a/loop", "/a/ln", 0, 0)
	f := func(segs []uint8) bool {
		parts := []string{"a", "b", "..", ".", "ln", "x", "/", ""}
		path := ""
		for _, s := range segs {
			path += "/" + parts[int(s)%len(parts)]
		}
		fs.Walk("/", path, true)
		fs.Walk("/a", path, false)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestHardLinkNlinkAccounting(t *testing.T) {
	fs := newFS()
	fs.Create("/", "/orig", linux.S_IFREG|0o644, 0, 0, true)
	fs.Link("/", "/orig", "/copy")
	r, _ := fs.Walk("/", "/copy", true)
	if r.Node.Stat().Nlink != 2 {
		t.Fatalf("nlink %d", r.Node.Stat().Nlink)
	}
	fs.Unlink("/", "/orig", false)
	r2, errno := fs.Walk("/", "/copy", true)
	if errno != 0 || r2.Node == nil {
		t.Fatal("hard link lost after unlinking original")
	}
	if r2.Node.Stat().Nlink != 1 {
		t.Fatalf("nlink after unlink %d", r2.Node.Stat().Nlink)
	}
}
