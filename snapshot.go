package gowali

import (
	"context"
	"fmt"
	"io"
	"os"

	"gowali/internal/core"
	"gowali/internal/kernel/snap"
	"gowali/internal/linux"
)

// Snapshot / restore / fork: microsecond cold starts. A warmed guest is
// checkpointed into an Image — linear memory, interpreter resume state at
// a safepoint, kernel tables (descriptors by path+offset, cwd, signal
// dispositions, mmap layout) and overlay filesystem deltas — which
// restores into a fresh process in microseconds. Restored and forked
// children share the image's memory copy-on-write: only the pages a child
// writes are copied (and charged against its tenant budget), so one image
// fans out into a fleet for the cost of the dirtied delta.

// Image is a checkpointed guest: an immutable value that can be restored
// any number of times, forked into whole fleets, and serialized to disk
// with WriteTo / read back with ReadImage.
type Image struct {
	img *snap.Image
	w   *core.WALI // engine that can restore without re-compiling; nil for images read from disk
}

// Snapshot checkpoints a running process (package-level per the facade
// convention: the process carries its runtime). The guest is quiesced at
// its next interpreter safepoint — a blocking syscall in flight returns
// EINTR, exactly as a checkpointing CRIU run is guest-visible — captured,
// and resumed; the image is an independent copy. Only single-threaded
// guests with path-nameable descriptors (no pipes, sockets or epoll
// instances) are snapshottable.
func Snapshot(p *Process) (*Image, error) {
	if p.wp == nil {
		return nil, fmt.Errorf("gowali: Snapshot requires a WALI-backed host")
	}
	img, err := p.wp.W.Snapshot(p.wp)
	if err != nil {
		return nil, err
	}
	return &Image{img: img, w: p.wp.W}, nil
}

// RestoreOption configures one Restore call.
type RestoreOption func(*restoreCfg)

type restoreCfg struct {
	ctx context.Context
}

// RestoreWithContext ties the restored process's lifetime to ctx, exactly
// as Spawn does: cancellation delivers SIGKILL at the next safepoint.
func RestoreWithContext(ctx context.Context) RestoreOption {
	return func(c *restoreCfg) { c.ctx = ctx }
}

// Restore builds a fresh process from an image and resumes it from the
// captured safepoint on its own goroutine. The module is matched against
// the engine's content-hash cache (images restored on the engine that
// snapshotted them never re-compile); linear memory aliases the image
// copy-on-write. WALI-backed hosts only.
func (r *Runtime) Restore(img *Image, opts ...RestoreOption) (*Process, error) {
	if r.wali == nil {
		return nil, fmt.Errorf("gowali: Restore requires a WALI-backed host")
	}
	cfg := restoreCfg{ctx: context.Background()}
	for _, o := range opts {
		o(&cfg)
	}
	wp, err := r.wali.Restore(img.img, r.wali.DefaultTenant)
	if err != nil {
		return nil, err
	}
	img.w = r.wali
	p := &Process{wp: wp}
	if cfg.ctx.Done() != nil {
		kp := wp.KP
		stop := context.AfterFunc(cfg.ctx, func() {
			kp.PostSignal(linux.SIGKILL)
		})
		go func() {
			<-wp.Done()
			stop()
		}()
	}
	wp.ResumeAsync()
	return p, nil
}

// Fork restores n processes from this image at once — the serverless
// fan-out primitive. All children share the image's memory pages
// copy-on-write; sibling writes never leak into each other or back into
// the image. The image must have passed through Snapshot or Restore on a
// runtime first (a freshly deserialized image has no engine yet).
func (img *Image) Fork(n int) ([]*Process, error) {
	if img.w == nil {
		return nil, fmt.Errorf("gowali: Fork: image is not bound to a runtime yet; Restore it once first")
	}
	procs := make([]*Process, 0, n)
	for i := 0; i < n; i++ {
		wp, err := img.w.Restore(img.img, img.w.DefaultTenant)
		if err != nil {
			return procs, err
		}
		p := &Process{wp: wp}
		wp.ResumeAsync()
		procs = append(procs, p)
	}
	return procs, nil
}

// WriteTo serializes the image in the versioned binary format
// (checksummed; refused on version or checksum mismatch at read time).
func (img *Image) WriteTo(w io.Writer) (int64, error) { return img.img.WriteTo(w) }

// ReadImage deserializes an image written by WriteTo.
func ReadImage(r io.Reader) (*Image, error) {
	img := &snap.Image{}
	if _, err := img.ReadFrom(r); err != nil {
		return nil, err
	}
	return &Image{img: img}, nil
}

// WriteImageFile serializes the image to a file (the wali-run -snapshot
// flag's backing helper).
func (img *Image) WriteImageFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := img.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadImageFile reads an image file written by WriteImageFile.
func ReadImageFile(path string) (*Image, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadImage(f)
}

// DirtyPages reports how many 64 KiB pages of its linear memory a process
// holds privately: the pages it has written since it was spawned or
// restored (every start shares its clean pages), or all of them once the
// memory has grown or been shared with a thread. It is the process's true
// memory footprint; the tenant budget charges exactly these.
func (p *Process) DirtyPages() int {
	if p.wp == nil {
		return 0
	}
	return p.wp.Inst.Mem.DirtyPages()
}
