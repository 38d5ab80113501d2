package kernel

import (
	"io"
	"sync"
	"time"

	"gowali/internal/kernel/waitq"
	"gowali/internal/linux"
)

// ConsoleDevice is the controlling terminal: writes accumulate in an
// inspectable buffer, reads consume from an input queue fed by FeedInput.
type ConsoleDevice struct {
	mu  sync.Mutex
	out []byte
	in  []byte
	eof bool
	ws  linux.Winsize
	q   waitq.Queue

	teeMu sync.Mutex // serializes tee writes, outside mu
	tee   io.Writer
}

// NewConsoleDevice returns a console with an 80x24 window.
func NewConsoleDevice() *ConsoleDevice {
	return &ConsoleDevice{ws: linux.Winsize{Row: 24, Col: 80}}
}

// FeedInput appends bytes for subsequent reads.
func (c *ConsoleDevice) FeedInput(b []byte) {
	c.mu.Lock()
	c.in = append(c.in, b...)
	c.mu.Unlock()
	c.q.Wake()
}

// CloseInput marks end-of-input; readers see EOF once drained.
func (c *ConsoleDevice) CloseInput() {
	c.mu.Lock()
	c.eof = true
	c.mu.Unlock()
	c.q.Wake()
}

// PollQueues implements event-driven poll readiness for stdin.
func (c *ConsoleDevice) PollQueues(qs []*waitq.Queue) []*waitq.Queue { return append(qs, &c.q) }

// Output returns everything written so far.
func (c *ConsoleDevice) Output() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]byte(nil), c.out...)
}

// TakeOutput returns and clears the accumulated output.
func (c *ConsoleDevice) TakeOutput() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.out
	c.out = nil
	return out
}

// Read implements vfs.DeviceOps. Guests read with nonblock set and
// sleep in the kernel's primitive; with it unset an empty queue sleeps
// the calling (host-side) goroutine until input or EOF arrives.
func (c *ConsoleDevice) Read(b []byte, nonblock bool) (int, linux.Errno) {
	if nonblock {
		return c.read(b)
	}
	var n int
	errno := c.q.Sleep(time.Time{}, func() (e linux.Errno) {
		n, e = c.read(b)
		return e
	})
	return n, errno
}

func (c *ConsoleDevice) read(b []byte) (int, linux.Errno) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.in) == 0 {
		if c.eof {
			return 0, 0
		}
		return 0, linux.EAGAIN
	}
	n := copy(b, c.in)
	c.in = c.in[n:]
	return n, 0
}

// SetTee streams every subsequent console write to w in addition to the
// inspectable buffer (the embedding API's stdout plumbing). Host write
// errors are ignored: the guest's tty never fails.
func (c *ConsoleDevice) SetTee(w io.Writer) {
	c.mu.Lock()
	c.tee = w
	c.mu.Unlock()
}

// Write implements vfs.DeviceOps. The tee write happens outside c.mu so
// a slow or re-entrant host writer (one that calls Output, say) cannot
// deadlock or stall other console operations; teeMu alone preserves the
// write order host-side.
func (c *ConsoleDevice) Write(b []byte) (int, linux.Errno) {
	c.mu.Lock()
	c.out = append(c.out, b...)
	// Tee from the buffered copy, not b: b aliases guest memory, which
	// sibling guest threads may mutate once mu is released.
	cp := c.out[len(c.out)-len(b):]
	tee := c.tee
	c.mu.Unlock()
	if tee != nil {
		c.teeMu.Lock()
		tee.Write(cp)
		c.teeMu.Unlock()
	}
	return len(b), 0
}

// Poll implements vfs.DeviceOps.
func (c *ConsoleDevice) Poll() int16 {
	c.mu.Lock()
	defer c.mu.Unlock()
	ev := int16(linux.POLLOUT)
	if len(c.in) > 0 || c.eof {
		ev |= linux.POLLIN
	}
	return ev
}

// Ioctl implements terminal controls: window size and a fake termios.
func (c *ConsoleDevice) Ioctl(cmd uint32, arg []byte) (int32, linux.Errno) {
	switch cmd {
	case linux.TIOCGWINSZ:
		c.mu.Lock()
		defer c.mu.Unlock()
		if len(arg) >= 8 {
			putU16 := func(off int, v uint16) { arg[off] = byte(v); arg[off+1] = byte(v >> 8) }
			putU16(0, c.ws.Row)
			putU16(2, c.ws.Col)
			putU16(4, c.ws.XPixel)
			putU16(6, c.ws.YPixel)
		}
		return 0, 0
	case linux.TCGETS, linux.TCSETS:
		return 0, 0 // accepted; termios content is opaque to the sim
	case linux.FIONREAD:
		c.mu.Lock()
		defer c.mu.Unlock()
		return int32(len(c.in)), 0
	}
	return 0, linux.ENOTTY
}

// StreamDevice is a write-only character device forwarding to a host
// io.Writer. The embedding facade installs one per redirected output
// stream (a distinct stderr sink) and rebinds the process descriptor
// onto it. Guest reads see immediate EOF; host write errors are
// invisible to the guest, whose tty never fails. (Host *input* goes
// through the console's FeedInput queue, which has real blocking and
// O_NONBLOCK semantics — a raw host reader cannot honor them.)
type StreamDevice struct {
	mu sync.Mutex
	W  io.Writer
}

// Read implements vfs.DeviceOps: always EOF.
func (d *StreamDevice) Read(b []byte, nonblock bool) (int, linux.Errno) {
	return 0, 0
}

// Write implements vfs.DeviceOps.
func (d *StreamDevice) Write(b []byte) (int, linux.Errno) {
	d.mu.Lock()
	w := d.W
	d.mu.Unlock()
	if w != nil {
		w.Write(b)
	}
	return len(b), 0
}

// Poll implements vfs.DeviceOps: always writable, and readable only in
// the sense that a read returns EOF without blocking.
func (d *StreamDevice) Poll() int16 { return linux.POLLIN | linux.POLLOUT }

// Ioctl implements vfs.DeviceOps.
func (d *StreamDevice) Ioctl(cmd uint32, arg []byte) (int32, linux.Errno) {
	return 0, linux.ENOTTY
}

// nullDevice is /dev/null.
type nullDevice struct{}

func (nullDevice) Read(b []byte, nonblock bool) (int, linux.Errno) { return 0, 0 }
func (nullDevice) Write(b []byte) (int, linux.Errno)               { return len(b), 0 }
func (nullDevice) Poll() int16                                     { return linux.POLLIN | linux.POLLOUT }
func (nullDevice) Ioctl(cmd uint32, arg []byte) (int32, linux.Errno) {
	return 0, linux.ENOTTY
}

// zeroDevice is /dev/zero.
type zeroDevice struct{}

func (zeroDevice) Read(b []byte, nonblock bool) (int, linux.Errno) {
	for i := range b {
		b[i] = 0
	}
	return len(b), 0
}
func (zeroDevice) Write(b []byte) (int, linux.Errno) { return len(b), 0 }
func (zeroDevice) Poll() int16                       { return linux.POLLIN | linux.POLLOUT }
func (zeroDevice) Ioctl(cmd uint32, arg []byte) (int32, linux.Errno) {
	return 0, linux.ENOTTY
}

// randomDevice is /dev/random and /dev/urandom over the kernel pool.
type randomDevice struct{ k *Kernel }

func (d *randomDevice) Read(b []byte, nonblock bool) (int, linux.Errno) {
	return d.k.GetRandom(b), 0
}
func (d *randomDevice) Write(b []byte) (int, linux.Errno) { return len(b), 0 }
func (d *randomDevice) Poll() int16                       { return linux.POLLIN | linux.POLLOUT }
func (d *randomDevice) Ioctl(cmd uint32, arg []byte) (int32, linux.Errno) {
	return 0, linux.ENOTTY
}
