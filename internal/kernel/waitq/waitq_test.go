package waitq

import (
	"sync"
	"testing"
	"time"

	"gowali/internal/linux"
)

func TestWakeBeforeArmIsNotLost(t *testing.T) {
	// The poll protocol: arm, re-check, block. A Wake between the state
	// change and Add is handled by the re-check; a Wake after Add must
	// reach the channel.
	var q Queue
	w := NewWaiter()
	q.Add(w)
	q.Wake()
	select {
	case <-w.C:
	case <-time.After(time.Second):
		t.Fatal("armed waiter missed a wake")
	}
}

func TestWakeCollapses(t *testing.T) {
	var q Queue
	w := NewWaiter()
	q.Add(w)
	q.Wake()
	q.Wake()
	q.Wake()
	<-w.C
	select {
	case <-w.C:
		t.Fatal("wakeups should collapse to one")
	default:
	}
}

func TestRemoveStopsWakeups(t *testing.T) {
	var q Queue
	w := NewWaiter()
	q.Add(w)
	q.Remove(w)
	q.Wake()
	select {
	case <-w.C:
		t.Fatal("removed waiter woke")
	default:
	}
}

// A callback entry is run by every Wake of a queue it is armed on, beside
// the parked waiters, until it is removed.
func TestCallbackRunsOnEveryWake(t *testing.T) {
	var q, other Queue
	calls := 0
	cb, w := NewCallback(func() { calls++; other.Wake() }), NewWaiter()
	q.Add(cb)
	q.Add(w)
	q.Wake()
	q.Wake()
	if calls != 2 || q.Armed() != 2 {
		t.Fatalf("calls = %d, armed = %d after two wakes; want 2 and 2", calls, q.Armed())
	}
	select {
	case <-w.C:
	default:
		t.Fatal("the parked waiter beside a callback missed the wake")
	}
	q.Remove(cb)
	q.Wake()
	if calls != 2 || q.Armed() != 1 {
		t.Fatalf("calls = %d, armed = %d after Remove; want 2 and 1", calls, q.Armed())
	}
}

func TestOneWaiterManyQueues(t *testing.T) {
	var a, b Queue
	w := NewWaiter()
	a.Add(w)
	b.Add(w)
	defer a.Remove(w)
	defer b.Remove(w)
	b.Wake()
	select {
	case <-w.C:
	case <-time.After(time.Second):
		t.Fatal("second queue did not wake the shared waiter")
	}
}

func TestConcurrentArmWake(t *testing.T) {
	// Race Add/Remove against Wake: every armed waiter that observes
	// not-ready must eventually be woken by the Wake that follows the
	// state change.
	var q Queue
	var ready sync.Map
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := NewWaiter()
			for j := 0; j < 200; j++ {
				q.Add(w)
				if _, ok := ready.Load(j); !ok {
					select {
					case <-w.C:
					case <-time.After(5 * time.Second):
						t.Errorf("waiter %d stuck at round %d", i, j)
						q.Remove(w)
						return
					}
				}
				q.Remove(w)
				w.Clear()
			}
		}(i)
	}
	for j := 0; j < 200; j++ {
		ready.Store(j, true)
		q.Wake()
		time.Sleep(50 * time.Microsecond)
		q.Wake() // stragglers that armed after the first wake
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		select {
		case <-done:
			return
		case <-time.After(10 * time.Millisecond):
			q.Wake() // keep nudging until everyone drains
		}
	}
}

// TestSleepWakeBetweenArmAndParkNotLost: a state change (and its Wake)
// that lands after the armed re-attempt said "not ready" but before the
// sleeper parks must still end the sleep.
func TestSleepWakeBetweenArmAndParkNotLost(t *testing.T) {
	var q Queue
	ready, calls := false, 0
	errno := q.Sleep(time.Time{}, func() linux.Errno {
		calls++
		if ready {
			return 0
		}
		if calls == 2 { // armed: the edge arrives right behind this check
			ready = true
			q.Wake()
		}
		return linux.EAGAIN
	})
	if errno != 0 || calls != 3 {
		t.Fatalf("errno=%v after %d attempts, want 0 after 3", errno, calls)
	}
}

// TestSleepEndsOnCloseAndDeadline: a terminal condition (EOF, a closed
// listener) ends a sleep with the attempt's own result; an expired
// deadline ends it with ETIMEDOUT.
func TestSleepEndsOnCloseAndDeadline(t *testing.T) {
	var q Queue
	var mu sync.Mutex
	closed := false
	go func() {
		mu.Lock()
		closed = true
		mu.Unlock()
		q.Wake()
	}()
	errno := q.Sleep(time.Time{}, func() linux.Errno {
		mu.Lock()
		defer mu.Unlock()
		if closed {
			return linux.EPIPE
		}
		return linux.EAGAIN
	})
	if errno != linux.EPIPE {
		t.Fatalf("errno=%v, want the attempt's EPIPE", errno)
	}
	errno = q.Sleep(time.Now().Add(time.Millisecond), func() linux.Errno { return linux.EAGAIN })
	if errno != linux.ETIMEDOUT {
		t.Fatalf("errno=%v, want ETIMEDOUT", errno)
	}
}

// TestSleepPingPong bounces a token between two sleepers 1000 times:
// every hand-off is one state change and one Wake.
func TestSleepPingPong(t *testing.T) {
	const rounds = 1000
	var q [2]Queue
	var mu sync.Mutex
	turn := 0
	play := func(me int) {
		for i := 0; i < rounds; i++ {
			q[me].Sleep(time.Time{}, func() linux.Errno {
				mu.Lock()
				defer mu.Unlock()
				if turn != me {
					return linux.EAGAIN
				}
				return 0
			})
			mu.Lock()
			turn = 1 - me
			mu.Unlock()
			q[1-me].Wake()
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		play(1)
	}()
	play(0)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("ping-pong wedged: a wakeup was lost")
	}
}
