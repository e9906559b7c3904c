package trace

// SIGCAP02: the persistent form of a Capture, and the only trace format.
//
// The file holds the in-memory columnar Capture — the representation the
// replay engine consumes — delta/varint-coded with per-slot predictors: a
// load in a loop sees its base register step by the stride (tiny signed
// delta) and its packed significance word barely change (XOR ≈ 0), so the
// 24 B/row resident columns shrink to ~1–2 B each. The trace is chopped
// into independently decodable frames of FrameRows rows: every predictor
// (the PC delta chain and the per-slot srcA/srcB/result/sig chains) resets
// to zero at each frame boundary, so any frame decodes from its own bytes
// alone, at the cost of one absolute (rather than delta) varint per live
// slot per frame. The suite-wide budget is ≤ CapFileMaxBytesPerInst,
// enforced by test.
//
// Layout (integers little-endian; "uvarint"/"svarint" are Go's
// binary.{Put,Read}Uvarint with svarint zigzag-mapped first):
//
//	header   magic "SIGCAP02"
//	         name      uvarint length + benchmark name bytes
//	         statics   uvarint count, then one raw u32 word per slot —
//	                   every other Static field is re-derived by
//	                   isa.Decode on load
//	         insts     uvarint row count
//	         lastNext  u32 NextPC of the final instruction
//	         crc       u32 IEEE CRC-32 of every preceding header byte
//	frames   ceil(insts/FrameRows) frames, contiguous, each:
//	         taken     ceil(rows/8) bytes, bit i = branch outcome
//	         slot      rows × uvarint statics index
//	         pc        rows × svarint delta (predictor reset per frame)
//	         srcA/B    rows × svarint per-slot delta (reset per frame)
//	         result    rows × svarint per-slot delta (reset per frame)
//	         sig       rows × uvarint per-slot XOR (reset per frame)
//	footer   one 20-byte entry per frame:
//	         off u64 · len u32 · crc u32 (IEEE, of the frame bytes) ·
//	         firstPC u32 (PC of the frame's first row — frame f's last
//	         row takes its NextPC from frame f+1's firstPC, so no frame
//	         needs its successor decoded)
//	tail     footerCRC u32 · footerOff u64 · magic "SIGCAP02"
//
// A reader checks the leading magic, then validates the file from the tail
// inward (trailing magic → footer index → header) without touching a
// single frame, which is what makes the mapped tier's warm-start lazy:
// OpenMappedCapture (stream.go) costs the index and statics table only;
// frames decode one at a time, CRC-checked, as replay consumes them.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"repro/internal/bench"
	"repro/internal/isa"
)

const capMagic = "SIGCAP02"

// CapFileMaxBytesPerInst is the persistent-format budget: a serialized
// capture must average at or under this many bytes per recorded
// instruction across the standard suite (enforced by test). Half the
// in-memory columnar footprint.
const CapFileMaxBytesPerInst = 12

// CapFileExt is the conventional filename extension for capture files.
const CapFileExt = ".sigcap"

// capFileMaxName bounds the benchmark-name field when decoding.
const capFileMaxName = 256

// capFileMaxStatics bounds the statics table when decoding; real traces
// hold a few hundred distinct words, so anything near this is corruption.
const capFileMaxStatics = 1 << 20

// CorruptError reports a structurally invalid capture file: bad magic,
// truncation, counts that cannot fit the input, CRC mismatch, or a memory
// fault reading a mapped file that shrank under the replay. The trace
// cache treats it like any load failure — degrade to a cache miss and
// re-capture, replacing the file — but the type lets callers distinguish
// a damaged file from an environmental error (permissions, I/O).
type CorruptError struct {
	Format string // "SIGCAP02", or "capture" when the magic is unrecognized
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("trace: corrupt %s capture: %s", e.Format, e.Reason)
}

// zigzag maps a signed 32-bit delta to an unsigned value with small
// magnitudes near zero, the standard varint-friendly encoding.
func zigzag(d int32) uint64 {
	return uint64((uint32(d) << 1) ^ uint32(d>>31))
}

func unzigzag(u uint64) uint32 {
	v := uint32(u)
	return (v >> 1) ^ -(v & 1)
}

// FrameRows is the SIGCAP02 frame granule. It deliberately equals BlockRows:
// one decoded frame feeds BatchConsumers as exactly one block, so streaming
// replay fans out the same block boundaries as in-memory batch replay.
const FrameRows = BlockRows

const (
	capFrameMeta = 20 // footer entry: off u64 + len u32 + crc u32 + firstPC u32
	capTailLen   = 20 // footerCRC u32 + footerOff u64 + trailing magic
)

// capMinRowBytes is the smallest possible encoding of one row (six
// one-byte varints), the lower bound used to reject row counts that cannot
// fit the input before any column is allocated.
const capMinRowBytes = 6

// capFrame is one parsed footer entry.
type capFrame struct {
	off     int64  // file offset of the frame's first byte
	len     uint32 // frame length in bytes
	crc     uint32 // IEEE CRC-32 of the frame bytes
	firstPC uint32 // PC of the frame's first row
}

// capIndex is everything a SIGCAP02 file declares outside its frames: the
// parsed header plus the footer index. It is the whole resident cost of the
// mapped tier — O(statics + frames), not O(rows).
type capIndex struct {
	b          bench.Benchmark
	statics    []Static
	rows       int
	lastNextPC uint32
	frames     []capFrame
}

// frameSpan returns the global row range [lo, hi) frame f covers.
func (ix *capIndex) frameSpan(f int) (lo, hi int) {
	lo = f * FrameRows
	hi = lo + FrameRows
	if hi > ix.rows {
		hi = ix.rows
	}
	return lo, hi
}

// frameEndNextPC returns the NextPC of frame f's final row: the next
// frame's firstPC, or the trace's lastNextPC for the final frame.
func (ix *capIndex) frameEndNextPC(f int) uint32 {
	if f+1 < len(ix.frames) {
		return ix.frames[f+1].firstPC
	}
	return ix.lastNextPC
}

// indexSizeBytes estimates the index's resident footprint: statics table
// (struct + raw→slot map entry, as staticSize) plus the footer entries.
func (ix *capIndex) indexSizeBytes() int {
	return len(ix.statics)*staticSize + len(ix.frames)*capFrameMeta
}

// WriteTo2 serializes the capture as SIGCAP02; concurrent replays are
// fine. Returns the bytes written.
func (cp *Capture) WriteTo2(w io.Writer) (int64, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	var scratch [binary.MaxVarintLen64]byte
	var total int64

	hcrc := crc32.NewIEEE()
	hdr := func(p []byte) {
		bw.Write(p)
		hcrc.Write(p)
		total += int64(len(p))
	}
	hdr([]byte(capMagic))
	n := binary.PutUvarint(scratch[:], uint64(len(cp.bench.Name)))
	hdr(scratch[:n])
	hdr([]byte(cp.bench.Name))
	n = binary.PutUvarint(scratch[:], uint64(len(cp.statics)))
	hdr(scratch[:n])
	for i := range cp.statics {
		binary.LittleEndian.PutUint32(scratch[:4], cp.statics[i].Inst.Raw)
		hdr(scratch[:4])
	}
	rows := len(cp.slot)
	n = binary.PutUvarint(scratch[:], uint64(rows))
	hdr(scratch[:n])
	binary.LittleEndian.PutUint32(scratch[:4], cp.lastNextPC)
	hdr(scratch[:4])
	binary.LittleEndian.PutUint32(scratch[:4], hcrc.Sum32())
	bw.Write(scratch[:4])
	total += 4

	nFrames := (rows + FrameRows - 1) / FrameRows
	footer := make([]byte, 0, nFrames*capFrameMeta)
	var fbuf bytes.Buffer
	sc := newCapScratch(len(cp.statics))
	for f := 0; f < nFrames; f++ {
		lo, hi := f*FrameRows, (f+1)*FrameRows
		if hi > rows {
			hi = rows
		}
		fbuf.Reset()
		cp.encodeFrame(&fbuf, lo, hi, sc)
		payload := fbuf.Bytes()
		var meta [capFrameMeta]byte
		binary.LittleEndian.PutUint64(meta[0:8], uint64(total))
		binary.LittleEndian.PutUint32(meta[8:12], uint32(len(payload)))
		binary.LittleEndian.PutUint32(meta[12:16], crc32.ChecksumIEEE(payload))
		binary.LittleEndian.PutUint32(meta[16:20], cp.pc[lo])
		footer = append(footer, meta[:]...)
		bw.Write(payload)
		total += int64(len(payload))
	}

	footerOff := total
	bw.Write(footer)
	total += int64(len(footer))
	var tail [capTailLen]byte
	binary.LittleEndian.PutUint32(tail[0:4], crc32.ChecksumIEEE(footer))
	binary.LittleEndian.PutUint64(tail[4:12], uint64(footerOff))
	copy(tail[12:20], capMagic)
	bw.Write(tail[:])
	total += capTailLen

	if err := bw.Flush(); err != nil {
		return total, err
	}
	return total, nil
}

// encodeFrame appends the self-contained encoding of rows [lo, hi) to buf.
// All predictors start from zero: the first occurrence of a slot in the
// frame pays an absolute varint instead of a delta.
func (cp *Capture) encodeFrame(buf *bytes.Buffer, lo, hi int, sc *capScratch) {
	var scratch [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) {
		n := binary.PutUvarint(scratch[:], v)
		buf.Write(scratch[:n])
	}
	n := hi - lo
	taken := sc.taken[:(n+7)/8]
	clear(taken)
	for i, sw := range cp.slot[lo:hi] {
		if sw&TakenBit != 0 {
			taken[i>>3] |= 1 << (i & 7)
		}
	}
	buf.Write(taken)
	for _, sw := range cp.slot[lo:hi] {
		putUvarint(uint64(sw & SlotMask))
	}
	var prevPC uint32
	for _, pc := range cp.pc[lo:hi] {
		putUvarint(zigzag(int32(pc - prevPC)))
		prevPC = pc
	}
	for ci, col := range [][]uint32{cp.srcA, cp.srcB, cp.result} {
		prev := sc.prev[ci]
		clear(prev)
		for i := lo; i < hi; i++ {
			s := cp.slot[i] & SlotMask
			putUvarint(zigzag(int32(col[i] - prev[s])))
			prev[s] = col[i]
		}
	}
	prev := sc.prev[3]
	clear(prev)
	for i := lo; i < hi; i++ {
		s := cp.slot[i] & SlotMask
		putUvarint(uint64(cp.sig[i] ^ prev[s]))
		prev[s] = cp.sig[i]
	}
}

// capScratch is the per-slot predictor state reused across frame
// encodes/decodes: four prev arrays (srcA, srcB, result, sig) plus the
// taken-bitmap staging buffer. Frame independence means this is cleared,
// not carried, at every frame boundary.
type capScratch struct {
	prev  [4][]uint32
	taken []byte
}

func newCapScratch(nStatics int) *capScratch {
	sc := &capScratch{taken: make([]byte, (FrameRows+7)/8)}
	for i := range sc.prev {
		sc.prev[i] = make([]uint32, nStatics)
	}
	return sc
}

// decodeFrame decodes one frame payload into the caller's column
// slices (each len == the frame's row count), verifying the footer CRC and
// firstPC first. sc provides the per-slot predictor scratch; it is cleared
// here, never carried between frames. Returns a *CorruptError on any
// structural violation — decode never panics on arbitrary bytes.
func decodeFrame(payload []byte, fr capFrame, nStatics uint64,
	slot, pc, srcA, srcB, result, sig []uint32, sc *capScratch) error {
	corrupt := func(format string, args ...any) error {
		return &CorruptError{Format: capMagic, Reason: fmt.Sprintf(format, args...)}
	}
	if crc32.ChecksumIEEE(payload) != fr.crc {
		return corrupt("frame at offset %d fails CRC", fr.off)
	}
	n := len(slot)
	bm := (n + 7) / 8
	if len(payload) < bm {
		return corrupt("frame at offset %d truncated", fr.off)
	}
	taken := payload[:bm]
	p := payload[bm:]
	next := func() (uint64, error) {
		v, sz := binary.Uvarint(p)
		if sz <= 0 {
			return 0, corrupt("frame at offset %d truncated", fr.off)
		}
		p = p[sz:]
		return v, nil
	}
	for i := 0; i < n; i++ {
		s, err := next()
		if err != nil {
			return err
		}
		if s >= nStatics {
			return corrupt("frame row %d references slot %d of %d", i, s, nStatics)
		}
		sw := uint32(s)
		if taken[i>>3]&(1<<(i&7)) != 0 {
			sw |= TakenBit
		}
		slot[i] = sw
	}
	var prevPC uint32
	for i := range pc {
		d, err := next()
		if err != nil {
			return err
		}
		prevPC += unzigzag(d)
		pc[i] = prevPC
	}
	if n > 0 && pc[0] != fr.firstPC {
		return corrupt("frame at offset %d firstPC %#x disagrees with index %#x", fr.off, pc[0], fr.firstPC)
	}
	for ci, col := range [][]uint32{srcA, srcB, result} {
		prev := sc.prev[ci]
		clear(prev)
		for i := range col {
			d, err := next()
			if err != nil {
				return err
			}
			s := slot[i] & SlotMask
			prev[s] += unzigzag(d)
			col[i] = prev[s]
		}
	}
	prev := sc.prev[3]
	clear(prev)
	for i := range sig {
		d, err := next()
		if err != nil {
			return err
		}
		s := slot[i] & SlotMask
		prev[s] ^= uint32(d)
		sig[i] = prev[s]
	}
	if len(p) != 0 {
		return corrupt("frame at offset %d carries %d trailing bytes", fr.off, len(p))
	}
	return nil
}

// openCapIndex validates a SIGCAP02 file from the tail inward and returns
// its index without decoding any frame: leading magic (any other format is
// refused up front) → trailing magic → footer (CRC,
// contiguity, offsets in bounds) → header (CRC, bench known, statics and
// row counts sized against the actual input before any allocation). This is
// the whole cost of a lazy warm-start.
func openCapIndex(ra io.ReaderAt, size int64) (*capIndex, error) {
	corrupt := func(format string, args ...any) error {
		return &CorruptError{Format: capMagic, Reason: fmt.Sprintf(format, args...)}
	}
	var magic [len(capMagic)]byte
	if size >= int64(len(magic)) {
		if _, err := ra.ReadAt(magic[:], 0); err != nil {
			return nil, fmt.Errorf("trace: reading capture magic: %w", err)
		}
		if string(magic[:]) != capMagic {
			return nil, &CorruptError{Format: "capture", Reason: fmt.Sprintf("bad capture magic %q", magic)}
		}
	}
	minHeader := int64(len(capMagic)) + 1 + 1 + 1 + 4 + 4
	if size < minHeader+capTailLen {
		return nil, corrupt("file truncated (%d bytes)", size)
	}
	var tail [capTailLen]byte
	if _, err := ra.ReadAt(tail[:], size-capTailLen); err != nil {
		return nil, fmt.Errorf("trace: reading capture tail: %w", err)
	}
	if string(tail[12:20]) != capMagic {
		return nil, corrupt("bad trailing magic %q", tail[12:20])
	}
	footerCRC := binary.LittleEndian.Uint32(tail[0:4])
	footerOff := int64(binary.LittleEndian.Uint64(tail[4:12]))
	if footerOff < minHeader || footerOff > size-capTailLen {
		return nil, corrupt("footer offset %d outside file of %d bytes", footerOff, size)
	}
	footerLen := size - capTailLen - footerOff
	if footerLen%capFrameMeta != 0 {
		return nil, corrupt("footer length %d not a multiple of %d", footerLen, capFrameMeta)
	}
	footer := make([]byte, footerLen)
	if _, err := ra.ReadAt(footer, footerOff); err != nil {
		return nil, fmt.Errorf("trace: reading capture footer: %w", err)
	}
	if got := crc32.ChecksumIEEE(footer); got != footerCRC {
		return nil, corrupt("footer CRC mismatch: file %#08x, computed %#08x", footerCRC, got)
	}
	nFrames := int(footerLen / capFrameMeta)
	frames := make([]capFrame, nFrames)
	for f := range frames {
		e := footer[f*capFrameMeta:]
		frames[f] = capFrame{
			off:     int64(binary.LittleEndian.Uint64(e[0:8])),
			len:     binary.LittleEndian.Uint32(e[8:12]),
			crc:     binary.LittleEndian.Uint32(e[12:16]),
			firstPC: binary.LittleEndian.Uint32(e[16:20]),
		}
	}

	// Header: its extent is implied by the first frame offset (or the
	// footer, for an empty trace), so it can be read and CRC-checked whole.
	headerEnd := footerOff
	if nFrames > 0 {
		headerEnd = frames[0].off
	}
	if headerEnd < minHeader || headerEnd > footerOff {
		return nil, corrupt("header extent %d out of bounds", headerEnd)
	}
	hdr := make([]byte, headerEnd)
	if _, err := ra.ReadAt(hdr, 0); err != nil {
		return nil, fmt.Errorf("trace: reading capture header: %w", err)
	}
	if got := crc32.ChecksumIEEE(hdr[:headerEnd-4]); got != binary.LittleEndian.Uint32(hdr[headerEnd-4:]) {
		return nil, corrupt("header CRC mismatch")
	}
	p := hdr[len(capMagic) : headerEnd-4]
	next := func(what string) (uint64, error) {
		v, sz := binary.Uvarint(p)
		if sz <= 0 {
			return 0, corrupt("header %s truncated", what)
		}
		p = p[sz:]
		return v, nil
	}
	nameLen, err := next("name")
	if err != nil {
		return nil, err
	}
	if nameLen > capFileMaxName || nameLen > uint64(len(p)) {
		return nil, corrupt("bench name length %d", nameLen)
	}
	name := string(p[:nameLen])
	p = p[nameLen:]
	b, ok := bench.ByName(name)
	if !ok {
		return nil, corrupt("unknown benchmark %q", name)
	}
	nStatics, err := next("statics count")
	if err != nil {
		return nil, err
	}
	if nStatics > capFileMaxStatics || nStatics*4 > uint64(size) {
		return nil, corrupt("statics count %d exceeds %d-byte input", nStatics, size)
	}
	if nStatics*4 > uint64(len(p)) {
		return nil, corrupt("statics table truncated")
	}
	ix := &capIndex{b: b, frames: frames}
	ix.statics = make([]Static, nStatics)
	for i := range ix.statics {
		ix.statics[i] = staticFor(isa.Decode(binary.LittleEndian.Uint32(p[i*4:])))
	}
	p = p[nStatics*4:]
	rows, err := next("row count")
	if err != nil {
		return nil, err
	}
	if rows > b.MaxInsts {
		return nil, corrupt("rows %d exceed %s's limit %d", rows, b.Name, b.MaxInsts)
	}
	if rows*capMinRowBytes > uint64(size) {
		return nil, corrupt("rows %d cannot fit %d-byte input", rows, size)
	}
	if len(p) != 4 {
		return nil, corrupt("header carries %d trailing bytes", len(p))
	}
	ix.rows = int(rows)
	ix.lastNextPC = binary.LittleEndian.Uint32(p)

	if want := (ix.rows + FrameRows - 1) / FrameRows; nFrames != want {
		return nil, corrupt("%d frames indexed, %d rows imply %d", nFrames, ix.rows, want)
	}
	// Frames must tile [headerEnd, footerOff) exactly; contiguity makes
	// every payload slice of a mapped file safe by construction.
	expect := headerEnd
	for f := range frames {
		if frames[f].off != expect {
			return nil, corrupt("frame %d at offset %d, expected %d", f, frames[f].off, expect)
		}
		expect += int64(frames[f].len)
	}
	if expect != footerOff {
		return nil, corrupt("frames end at %d, footer starts at %d", expect, footerOff)
	}
	return ix, nil
}

// decodeAll eagerly decodes every frame into a fully resident Capture.
// payload returns the raw bytes of one frame.
func (ix *capIndex) decodeAll(payload func(capFrame) ([]byte, error)) (*Capture, error) {
	cp := newCapture(ix.b)
	cp.statics = ix.statics
	for i := range ix.statics {
		cp.slotOf[ix.statics[i].Inst.Raw] = uint32(i)
	}
	cp.lastNextPC = ix.lastNextPC
	n := ix.rows
	cp.slot = make([]uint32, n)
	cp.pc = make([]uint32, n)
	cp.srcA = make([]uint32, n)
	cp.srcB = make([]uint32, n)
	cp.result = make([]uint32, n)
	cp.sig = make([]uint32, n)
	sc := newCapScratch(len(ix.statics))
	for f := range ix.frames {
		lo, hi := ix.frameSpan(f)
		p, err := payload(ix.frames[f])
		if err != nil {
			return nil, err
		}
		if err := decodeFrame(p, ix.frames[f], uint64(len(ix.statics)),
			cp.slot[lo:hi], cp.pc[lo:hi], cp.srcA[lo:hi], cp.srcB[lo:hi],
			cp.result[lo:hi], cp.sig[lo:hi], sc); err != nil {
			return nil, err
		}
	}
	return cp, nil
}

// ReadCaptureFrom decodes a SIGCAP02 stream back into a fully resident,
// replay-ready Capture. The benchmark named in the header must exist in the
// served suite (its memory image is rebuilt from the benchmark, not the
// file). Decoding verifies every CRC; a capture that loads cleanly replays
// bit-identically to the one that was written. Any other magic, and any
// structural damage, surfaces as a *CorruptError; header counts are
// validated against the input size before any column is allocated, so a
// corrupt or adversarial header cannot trigger a huge allocation.
func ReadCaptureFrom(r io.Reader) (*Capture, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("trace: reading capture: %w", err)
	}
	ix, err := openCapIndex(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return nil, err
	}
	return ix.decodeAll(func(fr capFrame) ([]byte, error) {
		return data[fr.off : fr.off+int64(fr.len)], nil
	})
}

// CaptureFilePath is the conventional location for b's persisted capture
// inside dir: <dir>/<bench-name>.sigcap.
func CaptureFilePath(dir, benchName string) string {
	return filepath.Join(dir, benchName+CapFileExt)
}

// WriteCaptureFile persists cp under dir at its conventional path,
// atomically (tmp + rename), so concurrent readers never observe a partial
// file and a process still mapping the file it replaces keeps the old
// inode. It returns the final path.
func WriteCaptureFile(dir string, cp *Capture) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := CaptureFilePath(dir, cp.bench.Name)
	tmp, err := os.CreateTemp(dir, cp.bench.Name+".tmp*")
	if err != nil {
		return "", err
	}
	if _, err := cp.WriteTo2(tmp); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return "", err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return "", err
	}
	// CreateTemp makes 0600 files; captures are shareable artifacts.
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		os.Remove(tmp.Name())
		return "", err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return "", err
	}
	return path, nil
}

// ReadCaptureFile eagerly loads a capture file written by WriteCaptureFile
// into a resident Capture: the file opens like any mapped capture, and
// every frame is decoded. For the lazy O(index) tier use OpenMappedCapture.
func ReadCaptureFile(path string) (*Capture, error) {
	mc, err := OpenMappedCapture(path)
	if err != nil {
		return nil, err
	}
	defer mc.Close()
	return mc.Materialize()
}
