package kernel

import (
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"gowali/internal/kernel/sched"
	"gowali/internal/kernel/waitq"
	"gowali/internal/linux"
)

// epollFixture is one process with one epoll instance.
type epollFixture struct {
	t  *testing.T
	p  *Process
	ep int32
	ef *EpollFile
}

func newEpollFixture(t *testing.T) *epollFixture {
	t.Helper()
	_, p := newTestProc(t)
	ep, errno := p.EpollCreate(0)
	if errno != 0 {
		t.Fatalf("epoll_create1: %v", errno)
	}
	f, _ := p.FDs.Get(ep)
	return &epollFixture{t: t, p: p, ep: ep, ef: f.(*EpollFile)}
}

func (x *epollFixture) ctl(op, fd int32, events uint32, data uint64) {
	x.t.Helper()
	if errno := x.p.EpollCtl(x.ep, op, fd, events, data); errno != 0 {
		x.t.Fatalf("epoll_ctl(op %d, fd %d): %v", op, fd, errno)
	}
}

// poll is a zero-timeout wait; the events are copied out of the task's
// buffer.
func (x *epollFixture) poll(max int) []EpollEvent {
	x.t.Helper()
	evs, errno := x.p.EpollWait(x.ep, max, 0)
	if errno != 0 {
		x.t.Fatalf("epoll_wait: %v", errno)
	}
	return append([]EpollEvent(nil), evs...)
}

// blockedWait starts a wait on a thread of its own (a task sleeps on its
// own goroutine only) and returns once that thread is past its first
// scan and armed on the instance's queue.
func (x *epollFixture) blockedWait(max int, timeout time.Duration) <-chan []EpollEvent {
	x.t.Helper()
	th := x.p.CloneThread()
	done := make(chan []EpollEvent, 1)
	before := x.ef.q.Armed()
	go func() {
		evs, errno := th.EpollWait(x.ep, max, int64(timeout))
		if errno != 0 {
			x.t.Errorf("blocked epoll_wait: %v", errno)
		}
		done <- append([]EpollEvent(nil), evs...)
		th.Exit(0)
	}()
	for deadline := time.Now().Add(5 * time.Second); x.ef.q.Armed() == before; {
		if time.Now().After(deadline) {
			x.t.Fatal("waiter never armed on the instance queue")
		}
		time.Sleep(50 * time.Microsecond)
	}
	return done
}

func recvEvents(t *testing.T, done <-chan []EpollEvent) []EpollEvent {
	t.Helper()
	select {
	case evs := <-done:
		return evs
	case <-time.After(10 * time.Second):
		t.Fatal("blocked epoll_wait never returned")
		return nil
	}
}

func wantData(t *testing.T, evs []EpollEvent, events uint32, data ...uint64) {
	t.Helper()
	if len(evs) != len(data) {
		t.Fatalf("got %d events %+v, want data %v", len(evs), evs, data)
	}
	for i, d := range data {
		if evs[i].Data != d || evs[i].Events&events == 0 {
			t.Fatalf("event %d = %+v, want data %d with bits %#x", i, evs[i], d, events)
		}
	}
}

// loopbackPair returns a listening socket and a connected client/server
// pair on p's loopback.
func loopbackPair(t *testing.T, p *Process, port uint16) (ls, cli, srv int32) {
	t.Helper()
	addr := SockAddr{Family: linux.AF_INET, Port: port}
	ls, _ = p.SocketSyscall(linux.AF_INET, linux.SOCK_STREAM, 0)
	p.Bind(ls, addr)
	if errno := p.Listen(ls, 4); errno != 0 {
		t.Fatalf("listen: %v", errno)
	}
	cli, _ = p.SocketSyscall(linux.AF_INET, linux.SOCK_STREAM, 0)
	if errno := p.Connect(cli, addr); errno != 0 {
		t.Fatalf("connect: %v", errno)
	}
	srv, _, errno := p.Accept(ls, 0)
	if errno != 0 {
		t.Fatalf("accept: %v", errno)
	}
	return ls, cli, srv
}

// TestEpollSemantics is the behaviour table of the ready-list epoll,
// driven through EpollCtl/EpollWait only.
func TestEpollSemantics(t *testing.T) {
	t.Run("still-ready fd is reported by every wait", func(t *testing.T) {
		x := newEpollFixture(t)
		rfd, wfd, _ := x.p.Pipe2(0)
		x.ctl(linux.EPOLL_CTL_ADD, rfd, linux.EPOLLIN, 1)
		x.p.Write(wfd, []byte("ab"))
		buf := make([]byte, 1)
		for i := 0; i < 2; i++ {
			wantData(t, x.poll(8), linux.EPOLLIN, 1)
			wantData(t, x.poll(8), linux.EPOLLIN, 1)
			x.p.Read(rfd, buf)
		}
		wantData(t, x.poll(8), 0)
	})

	t.Run("fd ready at ADD is reported", func(t *testing.T) {
		x := newEpollFixture(t)
		rfd, wfd, _ := x.p.Pipe2(0)
		x.p.Write(wfd, []byte("a"))
		x.ctl(linux.EPOLL_CTL_ADD, rfd, linux.EPOLLIN, 2)
		wantData(t, x.poll(8), linux.EPOLLIN, 2)
	})

	t.Run("MOD to a ready mask ends a blocked wait", func(t *testing.T) {
		x := newEpollFixture(t)
		_, wfd, _ := x.p.Pipe2(0)
		x.ctl(linux.EPOLL_CTL_ADD, wfd, 0, 3) // writable, but not asked for
		done := x.blockedWait(8, 5*time.Second)
		x.ctl(linux.EPOLL_CTL_MOD, wfd, linux.EPOLLOUT, 33)
		wantData(t, recvEvents(t, done), linux.EPOLLOUT, 33)
	})

	// The registration ends with DEL, close and dup2-over, also under a
	// blocked wait: the old file becoming ready afterwards is not reported.
	for name, end := range map[string]func(x *epollFixture, rfd int32){
		"DEL":   func(x *epollFixture, rfd int32) { x.ctl(linux.EPOLL_CTL_DEL, rfd, 0, 0) },
		"close": func(x *epollFixture, rfd int32) { x.p.Close(rfd) },
		"dup2": func(x *epollFixture, rfd int32) {
			r2, w2, _ := x.p.Pipe2(0)
			x.p.Write(w2, []byte("other"))
			if _, errno := x.p.Dup3(r2, rfd, 0); errno != 0 {
				x.t.Fatalf("dup3: %v", errno)
			}
		},
	} {
		t.Run(name+" during a blocked wait ends the registration", func(t *testing.T) {
			x := newEpollFixture(t)
			rfd, wfd, _ := x.p.Pipe2(0)
			x.ctl(linux.EPOLL_CTL_ADD, rfd, linux.EPOLLIN, 4)
			f, _ := x.p.FDs.Get(rfd)
			wf, _ := x.p.FDs.Get(wfd)
			q := fileQueues(f, nil)[0]
			if q.Armed() != 1 {
				t.Fatalf("pipe queue armed = %d after ADD, want 1", q.Armed())
			}
			done := x.blockedWait(8, 150*time.Millisecond)
			end(x, rfd)
			if q.Armed() != 0 {
				t.Fatalf("pipe queue armed = %d after the registration ended, want 0", q.Armed())
			}
			// The old file turns readable (EPIPE after close, whose own
			// wake of the pipe's queue is the event not to report).
			wf.Write([]byte("late"))
			wantData(t, recvEvents(t, done), 0)
			wantData(t, x.poll(8), 0)
		})
	}

	t.Run("maxEvents 1 over 3 ready fds reports all three in three calls", func(t *testing.T) {
		x := newEpollFixture(t)
		for d := uint64(10); d < 13; d++ {
			rfd, wfd, _ := x.p.Pipe2(0)
			x.ctl(linux.EPOLL_CTL_ADD, rfd, linux.EPOLLIN, d)
			x.p.Write(wfd, []byte("x"))
		}
		seen := map[uint64]bool{}
		for i := 0; i < 3; i++ {
			evs := x.poll(1)
			if len(evs) != 1 {
				t.Fatalf("call %d: %d events, want 1", i, len(evs))
			}
			seen[evs[0].Data] = true
		}
		if len(seen) != 3 {
			t.Fatalf("three calls reported %v, want all of 10, 11, 12", seen)
		}
	})

	t.Run("connect completing under a blocked wait reports EPOLLOUT", func(t *testing.T) {
		x := newEpollFixture(t)
		p := x.p
		addr := SockAddr{Family: linux.AF_INET, Port: 8301}
		ls, _ := p.SocketSyscall(linux.AF_INET, linux.SOCK_STREAM, 0)
		p.Bind(ls, addr)
		p.Listen(ls, 4)
		cli, _ := p.SocketSyscall(linux.AF_INET, linux.SOCK_STREAM|linux.SOCK_NONBLOCK, 0)
		x.ctl(linux.EPOLL_CTL_ADD, cli, linux.EPOLLOUT, 5) // armed on the state queue only
		done := x.blockedWait(8, 5*time.Second)
		if errno := p.Connect(cli, addr); errno != linux.EINPROGRESS {
			t.Fatalf("nonblocking connect: %v, want EINPROGRESS", errno)
		}
		wantData(t, recvEvents(t, done), linux.EPOLLOUT, 5)
		// The registration followed the socket onto the connection's
		// queues: data from the peer, which wakes only those, is seen.
		x.ctl(linux.EPOLL_CTL_MOD, cli, linux.EPOLLIN, 55)
		wantData(t, x.poll(8), 0)
		done = x.blockedWait(8, 5*time.Second)
		srv, _, errno := p.Accept(ls, 0)
		if errno != 0 {
			t.Fatalf("accept: %v", errno)
		}
		p.SendTo(srv, []byte("hi"), 0, nil)
		wantData(t, recvEvents(t, done), linux.EPOLLIN, 55)
	})

	t.Run("listener registered before listen reports a connection", func(t *testing.T) {
		x := newEpollFixture(t)
		p := x.p
		addr := SockAddr{Family: linux.AF_INET, Port: 8302}
		ls, _ := p.SocketSyscall(linux.AF_INET, linux.SOCK_STREAM, 0)
		p.Bind(ls, addr)
		x.ctl(linux.EPOLL_CTL_ADD, ls, linux.EPOLLIN, 6)
		p.Listen(ls, 4)
		done := x.blockedWait(8, 5*time.Second)
		cli, _ := p.SocketSyscall(linux.AF_INET, linux.SOCK_STREAM, 0)
		if errno := p.Connect(cli, addr); errno != 0 {
			t.Fatalf("connect: %v", errno)
		}
		wantData(t, recvEvents(t, done), linux.EPOLLIN, 6)
		wantData(t, x.poll(8), linux.EPOLLIN, 6) // until accepted
		p.Accept(ls, 0)
		wantData(t, x.poll(8), 0)
	})

	t.Run("loopback stream data ends a blocked wait and stays reported until read", func(t *testing.T) {
		x := newEpollFixture(t)
		_, cli, srv := loopbackPair(t, x.p, 8303)
		x.ctl(linux.EPOLL_CTL_ADD, srv, linux.EPOLLIN, 7)
		wantData(t, x.poll(8), 0)
		done := x.blockedWait(8, 5*time.Second)
		x.p.SendTo(cli, []byte("ab"), 0, nil)
		wantData(t, recvEvents(t, done), linux.EPOLLIN, 7)
		buf := make([]byte, 1)
		x.p.RecvFrom(srv, buf, 0)
		wantData(t, x.poll(8), linux.EPOLLIN, 7)
		x.p.RecvFrom(srv, buf, 0)
		wantData(t, x.poll(8), 0)
	})

	t.Run("two threads blocked on one instance both return", func(t *testing.T) {
		x := newEpollFixture(t)
		r1, w1, _ := x.p.Pipe2(0)
		r2, w2, _ := x.p.Pipe2(0)
		x.ctl(linux.EPOLL_CTL_ADD, r1, linux.EPOLLIN, 8)
		x.ctl(linux.EPOLL_CTL_ADD, r2, linux.EPOLLIN, 9)
		a := x.blockedWait(8, 5*time.Second)
		b := x.blockedWait(8, 5*time.Second)
		x.p.Write(w1, []byte("x"))
		x.p.Write(w2, []byte("y"))
		for _, done := range []<-chan []EpollEvent{a, b} {
			if evs := recvEvents(t, done); len(evs) == 0 {
				t.Fatal("a blocked thread returned without an event")
			}
		}
	})

	// Closing the instance, by close(2) or by the exit of the process,
	// leaves no callback entry on any file's queue.
	for name, end := range map[string]func(x *epollFixture){
		"close of the epoll fd": func(x *epollFixture) { x.p.Close(x.ep) },
		"process exit":          func(x *epollFixture) { x.p.Exit(0) },
	} {
		t.Run(name+" disarms every file queue", func(t *testing.T) {
			x := newEpollFixture(t)
			rfd, wfd, _ := x.p.Pipe2(0)
			ls, cli, srv := loopbackPair(t, x.p, 8304)
			var qs []*waitq.Queue
			for i, fd := range []int32{rfd, wfd, ls, cli, srv, 0} {
				x.ctl(linux.EPOLL_CTL_ADD, fd, linux.EPOLLIN, uint64(i))
				f, _ := x.p.FDs.Get(fd)
				qs = fileQueues(f, qs)
			}
			for i, q := range qs {
				if q.Armed() == 0 {
					t.Fatalf("queue %d of %d not armed by its registration", i, len(qs))
				}
			}
			x.poll(8)
			end(x)
			for i, q := range qs {
				if n := q.Armed(); n != 0 {
					t.Errorf("queue %d of %d: armed = %d after %s, want 0", i, len(qs), n, name)
				}
			}
		})
	}
}

// countingFile is a File whose Poll calls are counted; it is ready while
// ready is set and wakes q when that changes.
type countingFile struct {
	regFile
	polls *atomic.Int64
	ready atomic.Bool
	q     waitq.Queue
}

func (f *countingFile) Poll() int16 {
	f.polls.Add(1)
	if f.ready.Load() {
		return linux.POLLIN
	}
	return 0
}

func (f *countingFile) PollQueues(qs []*waitq.Queue) []*waitq.Queue { return append(qs, &f.q) }
func (f *countingFile) Close() linux.Errno                          { return 0 }

// registerCounting registers n idle counting files with a fresh epoll
// instance and drains the listing ADD itself causes.
func registerCounting(tb testing.TB, n int) (p *Process, ep int32, files []*countingFile, polls *atomic.Int64) {
	tb.Helper()
	p = NewKernel().NewProcess("epoll-count", nil, nil)
	p.FDs.SetLimit(n + 16)
	ep, _ = p.EpollCreate(0)
	polls = new(atomic.Int64)
	for i := 0; i < n; i++ {
		f := &countingFile{polls: polls}
		fd, errno := p.FDs.Alloc(f, false, 0)
		if errno != 0 {
			tb.Fatalf("alloc fd %d: %v", i, errno)
		}
		if errno := p.EpollCtl(ep, linux.EPOLL_CTL_ADD, fd, linux.EPOLLIN, uint64(i)); errno != 0 {
			tb.Fatalf("epoll_ctl %d: %v", i, errno)
		}
		files = append(files, f)
	}
	if evs, _ := p.EpollWait(ep, 8, 0); len(evs) != 0 {
		tb.Fatalf("idle files reported %d events", len(evs))
	}
	return p, ep, files, polls
}

// TestEpollWaitPollsReadyOnly is the O(ready) claim as a count: with one
// ready file of 1024 registered, a wait polls that file (and at most one
// more), not the interest list — whether it finds the file ready or
// blocks first.
func TestEpollWaitPollsReadyOnly(t *testing.T) {
	p, ep, files, polls := registerCounting(t, 1024)
	ready := files[777]

	polls.Store(0)
	ready.ready.Store(true)
	ready.q.Wake()
	evs, errno := p.EpollWait(ep, 8, -1)
	if errno != 0 || len(evs) != 1 || evs[0].Data != 777 {
		t.Fatalf("ready wait: %v %+v", errno, evs)
	}
	if n := polls.Load(); n > 2 {
		t.Errorf("a wait over 1 ready of 1024 registered polled %d files, want <= 2", n)
	}

	ready.ready.Store(false)
	p.EpollWait(ep, 8, 0) // level-triggered: drops the no-longer-ready file
	polls.Store(0)
	f, _ := p.FDs.Get(ep)
	go func() {
		for f.(*EpollFile).q.Armed() == 0 {
			time.Sleep(50 * time.Microsecond)
		}
		ready.ready.Store(true)
		ready.q.Wake()
	}()
	evs, errno = p.EpollWait(ep, 8, int64(10*time.Second))
	if errno != 0 || len(evs) != 1 || evs[0].Data != 777 {
		t.Fatalf("blocked wait: %v %+v", errno, evs)
	}
	if n := polls.Load(); n > 2 {
		t.Errorf("a blocked wait over 1 ready of 1024 registered polled %d files, want <= 2", n)
	}
}

// BenchmarkEpollWaitIdleRegistered prices one wait that finds one ready
// file, by the number of idle registrations beside it.
func BenchmarkEpollWaitIdleRegistered(b *testing.B) {
	for _, idle := range []int{4, 64, 1024} {
		b.Run(strconv.Itoa(idle), func(b *testing.B) {
			p, ep, files, _ := registerCounting(b, idle+1)
			files[idle].ready.Store(true)
			files[idle].q.Wake()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if evs, _ := p.EpollWait(ep, 8, -1); len(evs) != 1 {
					b.Fatalf("%d events, want 1", len(evs))
				}
			}
		})
	}
}

// scheduledProc returns a process holding a run slot of a one-worker
// scheduler, the way the engine runs a guest: the park below goes through
// BeginBlock/EndBlock.
func scheduledProc(t *testing.T) *Process {
	t.Helper()
	_, p := newTestProc(t)
	task := sched.New(sched.Config{Workers: 1}).NewTask(nil)
	task.Start()
	t.Cleanup(task.Finish)
	p.SetBlocker(task)
	return p
}

// blockCycleAllocs measures block() — one blocking syscall of a scheduled
// guest — against a peer goroutine that runs wake() once the guest is
// armed on q (so every run takes the slow path: waiter, queues, park).
func blockCycleAllocs(t *testing.T, q *waitq.Queue, block, wake func()) float64 {
	t.Helper()
	kick, stop := make(chan struct{}), make(chan struct{})
	defer close(stop)
	go func() {
		for {
			select {
			case <-kick:
			case <-stop:
				return
			}
			for q.Armed() == 0 {
				time.Sleep(20 * time.Microsecond)
			}
			wake()
		}
	}()
	return testing.AllocsPerRun(200, func() {
		kick <- struct{}{}
		block()
	})
}

// TestBlockedEpollWaitAllocatesNothing: a full blocked epoll_wait → wake
// → return cycle of a scheduled guest costs no allocation in the kernel
// (its waiter, its queue list and its event buffer are the task's own).
func TestBlockedEpollWaitAllocatesNothing(t *testing.T) {
	p := scheduledProc(t)
	ep, _ := p.EpollCreate(0)
	rfd, wfd, _ := p.Pipe2(0)
	p.EpollCtl(ep, linux.EPOLL_CTL_ADD, rfd, linux.EPOLLIN, 1)
	f, _ := p.FDs.Get(ep)
	wf, _ := p.FDs.Get(wfd)
	msg, buf := []byte("x"), make([]byte, 8)
	n := blockCycleAllocs(t, &f.(*EpollFile).q, func() {
		if evs, errno := p.EpollWait(ep, 8, -1); errno != 0 || len(evs) != 1 {
			t.Fatalf("epoll_wait: %v %+v", errno, evs)
		}
		p.Read(rfd, buf)
	}, func() { wf.Write(msg) })
	if n != 0 {
		t.Errorf("%v allocations per blocked epoll_wait cycle, want 0", n)
	}
}

// TestBlockedPipeReadAllocatesNothing is the same guard for a blocking
// read(2), the sleep behind read/write/recvfrom/sendto/accept.
func TestBlockedPipeReadAllocatesNothing(t *testing.T) {
	p := scheduledProc(t)
	rfd, wfd, _ := p.Pipe2(0)
	rf, _ := p.FDs.Get(rfd)
	wf, _ := p.FDs.Get(wfd)
	msg, buf := []byte("x"), make([]byte, 8)
	n := blockCycleAllocs(t, fileQueues(rf, nil)[0], func() {
		if n, errno := p.Read(rfd, buf); errno != 0 || n != 1 {
			t.Fatalf("read: %d %v", n, errno)
		}
	}, func() { wf.Write(msg) })
	if n != 0 {
		t.Errorf("%v allocations per blocked read cycle, want 0", n)
	}
}
