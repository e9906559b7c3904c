package trace

// Streaming replay off a mapped SIGCAP02 capture.
//
// MappedCapture is the lazy residency tier of a persisted capture: opening
// one costs the footer index and statics table (O(statics + frames) bytes),
// and replay decodes one frame at a time into a small per-replay buffer —
// O(FrameRows), not O(trace) — feeding consumers exactly the block
// boundaries and store-ordering that in-memory batch replay produces
// (emitSpans is shared, so the two tiers cannot diverge; the equivalence
// tests assert byte-identical results). The file itself is mapped read-only
// and MAP_SHARED, so N concurrent replays, N sweeping models, or N
// co-located shards all touch one page-cache copy of the cold columns.
//
// Lifecycle: Close marks the handle dead for new replays (ErrMappedClosed,
// a transient error — the file is still on disk, reopening succeeds) but
// the unmap itself is deferred until the last in-flight replay releases its
// reference, so cache eviction can never pull pages out from under a frame
// decode. A file truncated or rewritten in place under a live mapping is
// outside that contract; the frame decode catches the resulting memory
// fault and fails the replay with a *CorruptError instead of the process.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sync"

	"repro/internal/bench"
	"repro/internal/icomp"
	"repro/internal/mem"
)

// ErrMappedClosed reports a replay attempted on a MappedCapture after
// Close (typically: the trace cache evicted the entry). It is transient —
// the capture file is intact on disk and re-opening it succeeds — so
// retry layers treat it like any recoverable fault.
var ErrMappedClosed error = &mappedClosedError{}

type mappedClosedError struct{}

func (*mappedClosedError) Error() string { return "trace: mapped capture closed" }

// Transient marks the error retryable for faultinject.IsTransient.
func (*mappedClosedError) Transient() bool { return true }

// MappedCapture is a SIGCAP02 capture served straight from its file. It
// implements Replayer next to *Capture; replays are independent and may run
// concurrently (each owns its decode buffers). Resident cost is the index,
// the statics table, and per-recoder memos — the columns stay on disk
// until a frame decode touches them.
type MappedCapture struct {
	ix   *capIndex
	f    *os.File
	data []byte // whole-file mapping; nil on the io.ReaderAt fallback
	memo ifbMemo

	mu     sync.Mutex
	refs   int  // in-flight replays
	closed bool // no new replays; unmap when refs drains to 0
}

// OpenMappedCapture maps path (a SIGCAP02 file) for streaming replay,
// validating magic, footer index, and header — but decoding no frames.
// This is the cheap warm-start: a directory of captures can be opened in
// O(index) time and bytes, with column data faulted in on first replay.
// If the platform cannot mmap, the handle transparently falls back to
// positional reads; callers cannot tell apart from Mapped().
func OpenMappedCapture(path string) (*MappedCapture, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	ix, err := openCapIndex(f, fi.Size())
	if err != nil {
		f.Close()
		return nil, err
	}
	mc := &MappedCapture{ix: ix, f: f}
	if mmapSupported {
		if data, err := mmapFile(int(f.Fd()), fi.Size()); err == nil {
			mc.data = data
		}
		// A failed map (exotic filesystem, address-space pressure) is not
		// an error: positional reads serve the same bytes.
	}
	// Backstop for leaked handles; the cache closes explicitly on evict.
	runtime.SetFinalizer(mc, (*MappedCapture).Close)
	return mc, nil
}

// OpenCaptureFor maps b's capture file in dir (CaptureFilePath) and
// checks that it records b. The file names its benchmark, but the caller's
// suite is authoritative: a capture whose name or checksum diverges would
// replay the wrong trace, so it is refused as a *CorruptError. This is the
// one validity check for a trace dir. A missing file reports
// fs.ErrNotExist; any other error means the file is there but unusable,
// and the caller should replace it with a fresh capture.
func OpenCaptureFor(dir string, b bench.Benchmark) (*MappedCapture, error) {
	mc, err := OpenMappedCapture(CaptureFilePath(dir, b.Name))
	if err != nil {
		return nil, err
	}
	if got := mc.Bench(); got.Name != b.Name || got.Checksum != b.Checksum {
		mc.Close()
		return nil, &CorruptError{Format: capMagic, Reason: fmt.Sprintf(
			"records %s (checksum %#08x), want %s (%#08x)", got.Name, got.Checksum, b.Name, b.Checksum)}
	}
	return mc, nil
}

// Bench returns the benchmark the capture recorded.
func (mc *MappedCapture) Bench() bench.Benchmark { return mc.ix.b }

// Len returns the number of recorded instructions.
func (mc *MappedCapture) Len() int { return mc.ix.rows }

// Statics returns the number of distinct instruction words recorded.
func (mc *MappedCapture) Statics() int { return len(mc.ix.statics) }

// Frames returns the number of independently decodable frames.
func (mc *MappedCapture) Frames() int { return len(mc.ix.frames) }

// Mapped reports whether the file is memory-mapped (false on the
// io.ReaderAt fallback).
func (mc *MappedCapture) Mapped() bool { return mc.data != nil }

// SizeBytes estimates the handle's resident memory: footer index, statics
// table, one replay's decode buffers, and the per-recoder memos. Mapped
// column pages are deliberately excluded — they are clean, evictable, and
// shared with every other replayer of the same file — which is what makes
// this tier near-free for a byte-budgeted cache.
func (mc *MappedCapture) SizeBytes() int {
	return mc.ix.indexSizeBytes() + frameDecSizeBytes(len(mc.ix.statics)) +
		mc.memo.sizeBytes(len(mc.ix.statics))
}

// NewMemory rebuilds the benchmark's initial memory image.
func (mc *MappedCapture) NewMemory() (*mem.Memory, error) {
	c, err := mc.ix.b.NewCPU()
	if err != nil {
		return nil, err
	}
	return c.Mem, nil
}

// Close retires the handle: new replays fail with ErrMappedClosed, and the
// mapping and file close once the last in-flight replay finishes (at once
// when idle). Safe to call more than once.
func (mc *MappedCapture) Close() error {
	mc.mu.Lock()
	if mc.closed {
		mc.mu.Unlock()
		return nil
	}
	mc.closed = true
	idle := mc.refs == 0
	mc.mu.Unlock()
	if idle {
		return mc.unmap()
	}
	return nil
}

func (mc *MappedCapture) acquire() error {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	if mc.closed {
		return fmt.Errorf("trace: replaying %s: %w", mc.ix.b.Name, ErrMappedClosed)
	}
	mc.refs++
	return nil
}

func (mc *MappedCapture) release() {
	mc.mu.Lock()
	mc.refs--
	last := mc.closed && mc.refs == 0
	mc.mu.Unlock()
	if last {
		mc.unmap()
	}
}

// unmap releases the mapping and file. Reached exactly once: by Close when
// idle, or by the final release after Close — never while a replay holds a
// reference.
func (mc *MappedCapture) unmap() error {
	runtime.SetFinalizer(mc, nil)
	var err error
	if mc.data != nil {
		err = munmapFile(mc.data)
		mc.data = nil
	}
	if cerr := mc.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// frameDec is one replay's private decode state: six column buffers of
// FrameRows rows, the per-slot predictor scratch, and (fallback only) a
// raw frame byte buffer. Concurrent replays of one MappedCapture never
// share mutable state.
type frameDec struct {
	cols [6][]uint32
	sc   *capScratch
	raw  []byte
}

func newFrameDec(nStatics int) *frameDec {
	d := &frameDec{sc: newCapScratch(nStatics)}
	backing := make([]uint32, 6*FrameRows)
	for i := range d.cols {
		d.cols[i] = backing[i*FrameRows : (i+1)*FrameRows]
	}
	return d
}

// frameDecSizeBytes is the resident estimate of one replay's decode
// buffers, charged by SizeBytes so the cache accounts for a live replay.
func frameDecSizeBytes(nStatics int) int {
	return 6*FrameRows*4 + 4*nStatics*4 + (FrameRows+7)/8
}

// framePayload returns fr's raw bytes: a zero-copy slice of the mapping,
// or a positional read into *raw, grown as needed. A file that has shrunk
// under the handle reads short, which is corruption like any other.
func (mc *MappedCapture) framePayload(fr capFrame, raw *[]byte) ([]byte, error) {
	if mc.data != nil {
		return mc.data[fr.off : fr.off+int64(fr.len)], nil
	}
	if int(fr.len) > cap(*raw) {
		*raw = make([]byte, fr.len)
	}
	b := (*raw)[:fr.len]
	if _, err := mc.f.ReadAt(b, fr.off); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, &CorruptError{Format: capMagic, Reason: fmt.Sprintf("frame at offset %d truncated", fr.off)}
		}
		return nil, err
	}
	return b, nil
}

// replayFrames is the replay engine behind both MappedCapture replay
// flavors: decode frame, CRC-checked, into the replay's buffers, then fan
// it out through the shared emitSpans — one frame is exactly one block,
// so consumers see the same boundaries as Capture.ReplayBlocksOn.
func (mc *MappedCapture) replayFrames(ctx context.Context, m *mem.Memory, rc *icomp.Recoder, sinks []BatchConsumer) error {
	if err := mc.acquire(); err != nil {
		return err
	}
	defer mc.release()
	ifb := mc.memo.tableFor(rc, mc.ix.statics)
	d := newFrameDec(len(mc.ix.statics))
	blk := Block{Statics: mc.ix.statics, IFB: ifb}
	for f := range mc.ix.frames {
		select {
		case <-ctx.Done():
			return fmt.Errorf("trace: replaying %s aborted after %d instructions: %w",
				mc.ix.b.Name, f*FrameRows, ctx.Err())
		default:
		}
		lo, hi := mc.ix.frameSpan(f)
		rows := hi - lo
		if err := mc.decodeFrame(f, d, rows); err != nil {
			return fmt.Errorf("trace: replaying %s frame %d: %w", mc.ix.b.Name, f, err)
		}
		emitSpans(&blk, m, sinks, lo,
			d.cols[0][:rows], d.cols[1][:rows], d.cols[2][:rows],
			d.cols[3][:rows], d.cols[4][:rows], d.cols[5][:rows],
			mc.ix.frameEndNextPC(f))
	}
	return nil
}

// decodeFrame decodes frame f's rows into d's column buffers. Only the
// decode reads the mapped bytes during a replay, so only it runs with
// memory faults turned into panics: a file truncated under the mapping
// raises SIGBUS on the vanished pages, which would otherwise kill the
// process; here it fails the replay with a *CorruptError.
func (mc *MappedCapture) decodeFrame(f int, d *frameDec, rows int) (err error) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer recoverMappedFault(&err)
	payload, err := mc.framePayload(mc.ix.frames[f], &d.raw)
	if err != nil {
		return err
	}
	return decodeFrame(payload, mc.ix.frames[f], uint64(len(mc.ix.statics)),
		d.cols[0][:rows], d.cols[1][:rows], d.cols[2][:rows],
		d.cols[3][:rows], d.cols[4][:rows], d.cols[5][:rows], d.sc)
}

// recoverMappedFault, deferred under debug.SetPanicOnFault(true), turns a
// memory fault on the mapping (a runtime error carrying the faulting
// address) into a *CorruptError in *err. Any other panic propagates.
func recoverMappedFault(err *error) {
	r := recover()
	if r == nil {
		return
	}
	if _, ok := r.(interface{ Addr() uintptr }); !ok {
		panic(r)
	}
	*err = &CorruptError{Format: capMagic, Reason: "fault reading mapped frame"}
}

// ReplayBlocks is batch streaming replay without a memory image.
func (mc *MappedCapture) ReplayBlocks(ctx context.Context, rc *icomp.Recoder, consumers ...Consumer) error {
	return mc.replayFrames(ctx, nil, rc, gatherSinks(consumers))
}

// ReplayBlocksOn is batch streaming replay over a caller memory image; see
// Capture.ReplayBlocksOn for the memory-ordering contract.
func (mc *MappedCapture) ReplayBlocksOn(ctx context.Context, m *mem.Memory, rc *icomp.Recoder, consumers ...Consumer) error {
	return mc.replayFrames(ctx, m, rc, gatherSinks(consumers))
}

// Materialize eagerly decodes the whole capture into a resident *Capture,
// for callers that need the dense tier (e.g. a capture promoted back off
// disk for repeated tight-loop replays). Faults on the mapping surface as
// a *CorruptError, as in replay.
func (mc *MappedCapture) Materialize() (cp *Capture, err error) {
	if err := mc.acquire(); err != nil {
		return nil, err
	}
	defer mc.release()
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer recoverMappedFault(&err)
	var raw []byte
	return mc.ix.decodeAll(func(fr capFrame) ([]byte, error) { return mc.framePayload(fr, &raw) })
}

// Interface conformance for both residency tiers.
var (
	_ Replayer = (*Capture)(nil)
	_ Replayer = (*MappedCapture)(nil)
)
