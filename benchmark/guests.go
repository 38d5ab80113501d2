package main

import (
	"gowali/internal/apps"
	"gowali/internal/core"
	"gowali/internal/isa"
	"gowali/internal/linux"
	"gowali/internal/wasm"
)

// Guests the benchmark builds itself. The lua and sqlite guests come
// from internal/apps unchanged; everything here is "compiled" with the
// same apps.W toolchain stand-in, so the modules look to the runtime
// exactly like the ported applications do.

// kv-serve wire protocol: one 16-byte little-endian record each way,
// {op u32, key u32, val u64}. The reply is the record as the server
// holds it after the operation, so the harness can check every byte.
const (
	kvOpGet  = 0
	kvOpSet  = 1
	kvOpQuit = 2

	kvPort  = 11211
	kvSlots = 1 << 16 // 64 Ki 8-byte slots in linear memory
	kvRec   = 16
	kvDone  = "kv: done\n"
)

// Guest memory layout of the kv server (apps.W gives 16 initial pages:
// the 512 KiB table at 64 KiB ends well inside them).
const (
	kvAddrBuf = 1024
	kvOptBuf  = 1040
	kvMsgBuf  = 1056
	kvEvIn    = 1100 // epoll_event handed to epoll_ctl
	kvEvOut   = 1200 // epoll_event[8] filled by epoll_wait (12 bytes each)
	kvReqBuf  = 3000
	kvTable   = 65536
)

// buildKVServer is the server half of apps.BuildMemcached without the
// in-guest client thread: a single-threaded epoll loop that accepts
// connections, answers GET/SET records against a table in linear
// memory, and exits 0 after printing kvDone when a QUIT record arrives.
// A short or torn record exits 3, so a transport bug fails loudly.
func buildKVServer() *wasm.Module {
	w := apps.NewW("kv-serve",
		"socket", "setsockopt", "bind", "listen", "accept4",
		"epoll_create1", "epoll_ctl", "epoll_wait",
		"recvfrom", "sendto", "close", "write", "exit_group")
	addr := make([]byte, 8)
	isa.PutSockaddrIn(addr, kvPort, [4]byte{})
	w.Data(kvAddrBuf, addr)
	w.Data(kvMsgBuf, []byte(kvDone))

	f := w.NewFunc(core.StartExport, nil, nil)
	ls := f.Local(wasm.I64)
	ep := f.Local(wasm.I64)
	cfd := f.Local(wasm.I64)
	r := f.Local(wasm.I64)
	n := f.Local(wasm.I32)
	j := f.Local(wasm.I32)
	slot := f.Local(wasm.I32)

	epollAdd := func(fd uint32) {
		f.I32Const(kvEvIn).I32Const(linux.EPOLLIN).Store(wasm.OpI32Store, 0)
		f.I32Const(kvEvIn+4).LocalGet(fd).Store(wasm.OpI64Store, 0)
		f.LocalGet(ep).I64Const(linux.EPOLL_CTL_ADD).LocalGet(fd).I64Const(kvEvIn)
		w.Pad(f, "epoll_ctl", 4)
		f.Drop()
	}

	w.CallC(f, "socket", linux.AF_INET, linux.SOCK_STREAM, 0)
	f.LocalSet(ls)
	f.I32Const(kvOptBuf).I32Const(1).Store(wasm.OpI32Store, 0)
	f.LocalGet(ls).I64Const(linux.SOL_SOCKET).I64Const(linux.SO_REUSEADDR).I64Const(kvOptBuf).I64Const(4)
	w.Pad(f, "setsockopt", 5)
	f.Drop()
	f.LocalGet(ls).I64Const(kvAddrBuf).I64Const(8)
	w.Pad(f, "bind", 3)
	f.Drop()
	f.LocalGet(ls).I64Const(16)
	w.Pad(f, "listen", 2)
	f.Drop()
	w.CallC(f, "epoll_create1", 0)
	f.LocalSet(ep)
	epollAdd(ls)

	f.Loop() // event loop: left only through exit_group
	f.LocalGet(ep).I64Const(kvEvOut).I64Const(8).I64Const(-1)
	w.Pad(f, "epoll_wait", 4)
	f.Op(wasm.OpI32WrapI64).LocalSet(n)
	f.I32Const(0).LocalSet(j)
	f.Block()
	f.Loop()
	f.LocalGet(j).LocalGet(n).Op(wasm.OpI32GeS).BrIf(1)
	f.I32Const(kvEvOut).LocalGet(j).I32Const(12).Op(wasm.OpI32Mul).Op(wasm.OpI32Add)
	f.Load(wasm.OpI64Load, 4).LocalSet(cfd)
	f.LocalGet(cfd).LocalGet(ls).Op(wasm.OpI64Eq)
	f.If()
	{
		f.LocalGet(ls).I64Const(0).I64Const(0).I64Const(0)
		w.Pad(f, "accept4", 4)
		f.LocalSet(cfd)
		epollAdd(cfd)
	}
	f.Else()
	{
		f.LocalGet(cfd).I64Const(kvReqBuf).I64Const(kvRec)
		w.Pad(f, "recvfrom", 3)
		f.LocalSet(r)
		f.LocalGet(r).I64Const(kvRec).Op(wasm.OpI64Eq)
		f.If()
		{
			f.I32Const(kvReqBuf).Load(wasm.OpI32Load, 0).I32Const(kvOpQuit).Op(wasm.OpI32Eq)
			f.If()
			f.LocalGet(ls)
			w.Pad(f, "close", 1)
			f.Drop()
			w.CallC(f, "write", 1, kvMsgBuf, int64(len(kvDone)))
			f.Drop()
			w.CallC(f, "exit_group", 0)
			f.Drop()
			f.End()
			// slot = table + (key & (slots-1)) * 8
			f.I32Const(kvReqBuf).Load(wasm.OpI32Load, 4).I32Const(kvSlots - 1).Op(wasm.OpI32And)
			f.I32Const(3).Op(wasm.OpI32Shl).I32Const(kvTable).Op(wasm.OpI32Add).LocalSet(slot)
			f.I32Const(kvReqBuf).Load(wasm.OpI32Load, 0).I32Const(kvOpSet).Op(wasm.OpI32Eq)
			f.If()
			f.LocalGet(slot).I32Const(kvReqBuf).Load(wasm.OpI64Load, 8).Store(wasm.OpI64Store, 0)
			f.Else()
			f.I32Const(kvReqBuf).LocalGet(slot).Load(wasm.OpI64Load, 0).Store(wasm.OpI64Store, 8)
			f.End()
			f.LocalGet(cfd).I64Const(kvReqBuf).I64Const(kvRec)
			w.Pad(f, "sendto", 3)
			f.Drop()
		}
		f.Else()
		{
			f.LocalGet(r).I64Const(0).Op(wasm.OpI64GtS)
			f.If()
			w.CallC(f, "exit_group", 3)
			f.Drop()
			f.End()
			// Peer closed: deregister and close.
			f.LocalGet(ep).I64Const(linux.EPOLL_CTL_DEL).LocalGet(cfd).I64Const(0)
			w.Pad(f, "epoll_ctl", 4)
			f.Drop()
			f.LocalGet(cfd)
			w.Pad(f, "close", 1)
			f.Drop()
		}
		f.End()
	}
	f.End()
	f.LocalGet(j).I32Const(1).Op(wasm.OpI32Add).LocalSet(j)
	f.Br(0)
	f.End()
	f.End()
	f.Br(0)
	f.End()
	f.Finish()
	return w.Module()
}

// The sqlite-fs guest: a database in steady state. apps.BuildSqlite
// truncates its file to zero and appends every page, and memfs regrows a
// file to its exact new size on each append, so at any scale that makes
// an op long enough to dwarf its spawn, three quarters of the op were
// memclr and memmove of the regrown buffer (45 MiB allocated per op at
// scale 144): a memory-bandwidth test, which on a shared host moved 18-22%
// between runs. This guest keeps BuildSqlite's syscall profile - open,
// ftruncate, pread64, pwrite64, fsync, journal create / write / close /
// unlink, fstat, lseek - but updates pages in place the way sqlite does
// on an existing database, so the op is the syscall path into kernel/vfs.
const (
	sqlPages   = 256 // database size in 4 KiB pages; the file is sized once per cell
	sqlTxns    = 300 // transactions per op
	sqlPerTxn  = 24  // pages read, modified and written per transaction
	sqlPage    = 4096
	sqlDone    = "sqlite: ok\n"
	sqlDB      = "/data/test.db"
	sqlJournal = "/data/test.db-journal"
)

// xorshift emits the xorshift32 step the lua guest runs, on the i32 local x.
func xorshift(f *wasm.FuncBuilder, x uint32) {
	f.LocalGet(x).LocalGet(x).I32Const(13).Op(wasm.OpI32Shl).Op(wasm.OpI32Xor).LocalSet(x)
	f.LocalGet(x).LocalGet(x).I32Const(17).Op(wasm.OpI32ShrU).Op(wasm.OpI32Xor).LocalSet(x)
	f.LocalGet(x).LocalGet(x).I32Const(5).Op(wasm.OpI32Shl).Op(wasm.OpI32Xor).LocalSet(x)
}

// loop emits body n times, counting in the i32 local i.
func loop(f *wasm.FuncBuilder, i uint32, n int, body func()) {
	f.I32Const(0).LocalSet(i)
	f.Block()
	f.Loop()
	f.LocalGet(i).I32Const(int32(n)).Op(wasm.OpI32GeU).BrIf(1)
	body()
	f.LocalGet(i).I32Const(1).Op(wasm.OpI32Add).LocalSet(i)
	f.Br(0)
	f.End()
	f.End()
}

func buildSqliteGuest() *wasm.Module {
	const (
		dbStr   = 1024
		jStr    = 1124
		doneStr = 1224
		hdrStr  = 1324
		statBuf = 2048
		pageBuf = 8192 // the page read, patched and written back
	)
	w := apps.NewW("sqlite-fs",
		"open", "ftruncate", "pread64", "pwrite64", "fsync", "write",
		"close", "unlink", "fstat", "lseek", "exit_group")
	w.Data(dbStr, []byte(sqlDB+"\x00"))
	w.Data(jStr, []byte(sqlJournal+"\x00"))
	w.Data(doneStr, []byte(sqlDone))
	w.Data(hdrStr, []byte("journal-header"))

	f := w.NewFunc(core.StartExport, nil, nil)
	fd := f.Local(wasm.I64)
	jfd := f.Local(wasm.I64)
	off := f.Local(wasm.I64)
	t := f.Local(wasm.I32)
	k := f.Local(wasm.I32)
	x := f.Local(wasm.I32)

	w.CallC(f, "open", dbStr, linux.O_CREAT|linux.O_RDWR, 0o644)
	f.LocalSet(fd)
	f.LocalGet(fd).I64Const(sqlPages * sqlPage)
	w.Pad(f, "ftruncate", 2)
	f.Drop()

	f.I32Const(0x12345678).LocalSet(x)
	loop(f, t, sqlTxns, func() {
		w.CallC(f, "open", jStr, linux.O_CREAT|linux.O_WRONLY, 0o644)
		f.LocalSet(jfd)
		f.LocalGet(jfd).I64Const(hdrStr).I64Const(14)
		w.Pad(f, "write", 3)
		f.Drop()
		loop(f, k, sqlPerTxn, func() {
			// off = (next x % pages) * 4096
			xorshift(f, x)
			f.LocalGet(x).I32Const(sqlPages).Op(wasm.OpI32RemU)
			f.Op(wasm.OpI64ExtendI32U).I64Const(sqlPage).Op(wasm.OpI64Mul).LocalSet(off)
			f.LocalGet(fd).I64Const(pageBuf).I64Const(sqlPage).LocalGet(off)
			w.Pad(f, "pread64", 4)
			f.Drop()
			// Patch the page header: its offset and a change counter.
			f.I32Const(pageBuf).LocalGet(off).Store(wasm.OpI64Store, 0)
			f.I32Const(pageBuf+8).I32Const(pageBuf+8).Load(wasm.OpI32Load, 0).I32Const(1).Op(wasm.OpI32Add).Store(wasm.OpI32Store, 0)
			f.LocalGet(fd).I64Const(pageBuf).I64Const(sqlPage).LocalGet(off)
			w.Pad(f, "pwrite64", 4)
			f.Drop()
		})
		f.LocalGet(fd)
		w.Pad(f, "fsync", 1)
		f.Drop()
		f.LocalGet(jfd)
		w.Pad(f, "close", 1)
		f.Drop()
		w.CallC(f, "unlink", jStr)
		f.Drop()
	})

	f.LocalGet(fd).I64Const(statBuf)
	w.Pad(f, "fstat", 2)
	f.Drop()
	f.LocalGet(fd).I64Const(0).I64Const(linux.SEEK_END)
	w.Pad(f, "lseek", 3)
	f.Drop()
	w.CallC(f, "write", 1, doneStr, int64(len(sqlDone)))
	f.Drop()
	f.LocalGet(fd)
	w.Pad(f, "close", 1)
	f.Drop()
	w.CallC(f, "exit_group", 0)
	f.Drop()
	f.Finish()
	return w.Module()
}

// startToken is the length of the per-op token the guest-start guest
// echoes: the harness passes a fresh one as argv[1] on every spawn, so
// a matching console line proves that this op's guest ran.
const startToken = 16

// buildStartGuest is the lifecycle guest: 16 pages of memory of which
// it touches four, one getpid, argv[1] echoed to stdout, exit 0.
func buildStartGuest() *wasm.Module {
	w := apps.NewW("guest-start", "getpid", "write", "exit_group")
	i32 := []wasm.ValType{wasm.I32, wasm.I32}
	copyArgv := w.ImportFunc(core.Namespace, "copy_argv", i32, i32[:1])
	const buf = 2048
	f := w.NewFunc(core.StartExport, nil, nil)
	for page := int32(1); page <= 13; page += 4 {
		f.I32Const(page*wasm.PageSize).I32Const(page).Store(wasm.OpI32Store, 0)
	}
	w.CallC(f, "getpid")
	f.Drop()
	f.I32Const(buf).I32Const(1).Call(copyArgv).Drop()
	w.CallC(f, "write", 1, buf, startToken)
	f.Drop()
	w.CallC(f, "exit_group", 0)
	f.Drop()
	f.Finish()
	return w.Module()
}

// buildLoopGuest is the probe guest: prologue once, then body n times
// on a counted loop, then exit 0. An empty body prices the loop itself,
// so (loop with body − empty loop) / n is the cost of one body.
//
// tmp is an i64 local the prologue may set for the body to read.
func buildLoopGuest(name string, n int, syscalls []string, prologue, body func(w *apps.W, f *wasm.FuncBuilder, tmp uint32)) *wasm.Module {
	w := apps.NewW(name, append([]string{"exit_group"}, syscalls...)...)
	f := w.NewFunc(core.StartExport, nil, nil)
	i := f.Local(wasm.I32)
	tmp := f.Local(wasm.I64)
	if prologue != nil {
		prologue(w, f, tmp)
	}
	loop(f, i, n, func() {
		if body != nil {
			body(w, f, tmp)
		}
	})
	w.CallC(f, "exit_group", 0)
	f.Drop()
	f.Finish()
	return w.Module()
}

// buildGetpidLoop is n bare getpid calls: the cheapest syscall, so the
// difference to the empty loop is the dispatch wrapper alone.
func buildGetpidLoop(n int) *wasm.Module {
	return buildLoopGuest("getpid-loop", n, []string{"getpid"}, nil,
		func(w *apps.W, f *wasm.FuncBuilder, _ uint32) {
			w.CallC(f, "getpid")
			f.Drop()
		})
}

// buildEpollLoop is n epoll_wait(timeout 0) calls on an epoll set whose
// one member, the read end of a pipe holding a byte, is always ready.
func buildEpollLoop(n int) *wasm.Module {
	const (
		pfd = 900
		ev  = 1100
		out = 1200
	)
	return buildLoopGuest("epoll-loop", n, []string{"pipe2", "write", "epoll_create1", "epoll_ctl", "epoll_wait"},
		func(w *apps.W, f *wasm.FuncBuilder, ep uint32) {
			w.CallC(f, "pipe2", pfd, 0)
			f.Drop()
			f.I32Const(pfd).Load(wasm.OpI32Load, 4).Op(wasm.OpI64ExtendI32U).I64Const(pfd).I64Const(1)
			w.Pad(f, "write", 3)
			f.Drop()
			w.CallC(f, "epoll_create1", 0)
			f.LocalSet(ep)
			f.I32Const(ev).I32Const(linux.EPOLLIN).Store(wasm.OpI32Store, 0)
			f.LocalGet(ep).I64Const(linux.EPOLL_CTL_ADD)
			f.I32Const(pfd).Load(wasm.OpI32Load, 0).Op(wasm.OpI64ExtendI32U).I64Const(ev)
			w.Pad(f, "epoll_ctl", 4)
			f.Drop()
		},
		func(w *apps.W, f *wasm.FuncBuilder, ep uint32) {
			f.LocalGet(ep).I64Const(out).I64Const(8).I64Const(0)
			w.Pad(f, "epoll_wait", 4)
			f.Drop()
		})
}

// buildPipePingPong forks; parent and child then bounce one byte n
// times over a pair of pipes, every read blocking until the peer's
// write. n = 0 prices the fork, the pipes and the reaping alone.
func buildPipePingPong(n int) *wasm.Module {
	const (
		p2c = 900 // pipe parent → child: read fd at +0, write fd at +4
		c2p = 912
		buf = 960
	)
	fd := func(f *wasm.FuncBuilder, addr int32) {
		f.I32Const(addr).Load(wasm.OpI32Load, 0).Op(wasm.OpI64ExtendI32U)
	}
	xfer := func(w *apps.W, f *wasm.FuncBuilder, call string, addr int32) {
		fd(f, addr)
		f.I64Const(buf).I64Const(1)
		w.Pad(f, call, 3)
		f.Drop()
	}
	return buildLoopGuest("pipe-pingpong", n, []string{"pipe2", "fork", "read", "write"},
		func(w *apps.W, f *wasm.FuncBuilder, _ uint32) {
			w.CallC(f, "pipe2", p2c, 0)
			f.Drop()
			w.CallC(f, "pipe2", c2p, 0)
			f.Drop()
			w.CallC(f, "fork")
			f.Op(wasm.OpI64Eqz)
			f.If()
			{ // child: echo n bytes, then exit
				loop(f, f.Local(wasm.I32), n, func() {
					xfer(w, f, "read", p2c)
					xfer(w, f, "write", c2p+4)
				})
				w.CallC(f, "exit_group", 0)
				f.Drop()
			}
			f.End()
		},
		func(w *apps.W, f *wasm.FuncBuilder, _ uint32) {
			xfer(w, f, "write", p2c+4)
			xfer(w, f, "read", c2p)
		})
}

// buildSpinGuest is the pure-compute guest: n rounds of the xorshift
// step the lua guest runs, no imports at all, so interp alone is timed.
func buildSpinGuest(n int) *wasm.Module {
	b := wasm.NewBuilder("spin")
	b.Memory(1, 1, false)
	f := b.NewFunc(core.StartExport, nil, nil)
	i := f.Local(wasm.I32)
	x := f.Local(wasm.I32)
	f.I32Const(-1640531527).LocalSet(x)
	loop(f, i, n, func() { xorshift(f, x) })
	f.I32Const(0).LocalGet(x).Store(wasm.OpI32Store, 0)
	f.Finish()
	return b.Module()
}
