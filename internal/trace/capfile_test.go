package trace_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"flag"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bench"
	"repro/internal/pipeline"
	"repro/internal/trace"
)

var updateGolden = flag.Bool("update", false, "regenerate testdata golden capture")

// goldenCapture is the committed SIGCAP02 image of dijkstra's capture.
var goldenCapture = filepath.Join("testdata", "dijkstra"+trace.CapFileExt+"2")

// replayEvents replays cp under the default recoder and returns the full
// annotated event stream.
func replayEvents(t *testing.T, cp *trace.Capture) []trace.Event {
	t.Helper()
	rec := &eventRecorder{}
	if err := replayWithMemory(context.Background(), cp, defaultRecoder(t), rec); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return rec.events
}

// TestRecordReplayEquivalence is the record-once, study-many workflow
// (sigtrace -record / -replay): a capture persisted to disk and replayed
// from its mapping must reproduce the exact pipeline result of a live run.
func TestRecordReplayEquivalence(t *testing.T) {
	b := mustBench(t, "g711dec")
	rc := defaultRecoder(t)
	live := pipeline.NewByteSerial()
	if _, err := trace.Run(b, rc, live); err != nil {
		t.Fatal(err)
	}
	liveRes := live.Result()

	cp, err := trace.CaptureRun(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	path, err := trace.WriteCaptureFile(t.TempDir(), cp)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := trace.OpenMappedCapture(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	replayed := pipeline.NewByteSerial()
	if err := replayWithMemory(context.Background(), mc, rc, replayed); err != nil {
		t.Fatal(err)
	}
	repRes := replayed.Result()
	if uint64(mc.Len()) != liveRes.Insts || repRes.Insts != liveRes.Insts || repRes.Cycles != liveRes.Cycles {
		t.Fatalf("replay: %d rows, %d insts %d cycles; live: %d insts %d cycles",
			mc.Len(), repRes.Insts, repRes.Cycles, liveRes.Insts, liveRes.Cycles)
	}
}

// TestReaderRejectsBadMagic pins SIGCAP02 as the only capture format: the
// retired SIGTRC01 event trace and SIGCAP01 single-stream capture, any
// other magic, and an empty stream are all refused as *CorruptError.
func TestReaderRejectsBadMagic(t *testing.T) {
	for _, data := range [][]byte{
		[]byte("SIGTRC01" + "................................"),
		[]byte("SIGCAP01" + "\x08dijkstra......................"),
		[]byte("NOTATRACE..."),
		nil,
	} {
		_, err := trace.ReadCaptureFrom(bytes.NewReader(data))
		var ce *trace.CorruptError
		if !errors.As(err, &ce) {
			t.Errorf("%q: %v, want CorruptError", data, err)
		}
	}
}

// TestCaptureFile2RoundTrip serializes each test bench as SIGCAP02,
// decodes it through the io.Reader entry point, and demands a
// bit-identical replay plus a canonical re-encoding.
func TestCaptureFile2RoundTrip(t *testing.T) {
	for _, name := range captureTestBenches {
		cp, err := trace.CaptureRun(context.Background(), mustBench(t, name))
		if err != nil {
			t.Fatalf("%s: CaptureRun: %v", name, err)
		}
		var buf bytes.Buffer
		n, err := cp.WriteTo2(&buf)
		if err != nil {
			t.Fatalf("%s: WriteTo2: %v", name, err)
		}
		if n != int64(buf.Len()) {
			t.Errorf("%s: WriteTo2 reported %d bytes, wrote %d", name, n, buf.Len())
		}
		got, err := trace.ReadCaptureFrom(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: ReadCaptureFrom: %v", name, err)
		}
		if got.Len() != cp.Len() || got.Statics() != cp.Statics() || got.Bench().Name != name {
			t.Fatalf("%s: decoded %d rows/%d statics/%q, want %d/%d/%q",
				name, got.Len(), got.Statics(), got.Bench().Name, cp.Len(), cp.Statics(), name)
		}
		want := replayEvents(t, cp)
		have := replayEvents(t, got)
		if len(want) != len(have) {
			t.Fatalf("%s: decoded capture replays %d events, want %d", name, len(have), len(want))
		}
		for i := range want {
			if want[i] != have[i] {
				t.Fatalf("%s: event %d diverges after round trip\noriginal: %+v\ndecoded:  %+v",
					name, i, want[i], have[i])
			}
		}
		// Round-trip must be byte-stable: the decoded capture re-encodes
		// to exactly the bytes it came from.
		var again bytes.Buffer
		if _, err := got.WriteTo2(&again); err != nil {
			t.Fatalf("%s: re-encode: %v", name, err)
		}
		if !bytes.Equal(buf.Bytes(), again.Bytes()) {
			t.Fatalf("%s: re-encoded SIGCAP02 differs (%d vs %d bytes)", name, buf.Len(), again.Len())
		}
	}
}

// TestCaptureFileBytesPerInst enforces the persistent-format budget over
// the whole standard suite: the serialized size, frame-independence
// overhead (predictor resets + footer index) included, must average at or
// under CapFileMaxBytesPerInst bytes per recorded instruction for every
// benchmark.
func TestCaptureFileBytesPerInst(t *testing.T) {
	if testing.Short() {
		t.Skip("captures the full suite")
	}
	for _, b := range bench.All() {
		cp, err := trace.CaptureRun(context.Background(), b)
		if err != nil {
			t.Fatalf("%s: CaptureRun: %v", b.Name, err)
		}
		var buf bytes.Buffer
		if _, err := cp.WriteTo2(&buf); err != nil {
			t.Fatalf("%s: WriteTo2: %v", b.Name, err)
		}
		perInst := float64(buf.Len()) / float64(cp.Len())
		t.Logf("%s: %d insts, %d bytes (%.2f B/inst)", b.Name, cp.Len(), buf.Len(), perInst)
		if perInst > trace.CapFileMaxBytesPerInst {
			t.Errorf("%s: %.2f B/inst exceeds budget %d", b.Name, perInst, trace.CapFileMaxBytesPerInst)
		}
	}
}

// TestCaptureFile2Corruption damages every structural region of a SIGCAP02
// image — leading magic, trailing magic, footer, header, frame payload,
// truncation — and requires the decoder to reject each with a
// *CorruptError instead of panicking or replaying garbage.
func TestCaptureFile2Corruption(t *testing.T) {
	cp, err := trace.CaptureRun(context.Background(), mustBench(t, captureTestBenches[0]))
	if err != nil {
		t.Fatalf("CaptureRun: %v", err)
	}
	var buf bytes.Buffer
	if _, err := cp.WriteTo2(&buf); err != nil {
		t.Fatalf("WriteTo2: %v", err)
	}
	good := buf.Bytes()

	check := func(label string, bad []byte) {
		t.Helper()
		_, err := trace.ReadCaptureFrom(bytes.NewReader(bad))
		if err == nil {
			t.Errorf("%s accepted", label)
			return
		}
		var ce *trace.CorruptError
		if !errors.As(err, &ce) {
			t.Errorf("%s: error %v, want CorruptError", label, err)
		}
	}

	flip := func(at int) []byte {
		bad := bytes.Clone(good)
		bad[at] ^= 0x10
		return bad
	}
	check("flipped leading magic", flip(0))
	check("flipped trailing magic", flip(len(good)-1))
	check("flipped footer-offset byte", flip(len(good)-14))
	check("flipped header byte", flip(10))
	check("flipped frame payload byte", flip(len(good)/2))
	for _, cut := range []int{4, 40, len(good) / 2, len(good) - 2} {
		check("truncation", good[:cut])
	}
}

// frameless builds a SIGCAP02 image with no frames around a hand-written
// header body (everything after the magic, before the header CRC), every
// CRC and the tail valid — so the decoder must judge the header's claims
// on their own.
func frameless(body []byte) []byte {
	img := append([]byte("SIGCAP02"), body...)
	img = binary.LittleEndian.AppendUint32(img, crc32.ChecksumIEEE(img))
	footerOff := uint64(len(img))
	img = binary.LittleEndian.AppendUint32(img, crc32.ChecksumIEEE(nil))
	img = binary.LittleEndian.AppendUint64(img, footerOff)
	return append(img, "SIGCAP02"...)
}

// TestCaptureFile2AdversarialHeader pins the hardened header handling: a
// header claiming counts that cannot possibly fit the input must be
// rejected (typed) before any column allocation.
func TestCaptureFile2AdversarialHeader(t *testing.T) {
	name := append([]byte{byte(len("dijkstra"))}, "dijkstra"...)
	// A statics count claiming ~1M entries in a few-byte file.
	statics := binary.AppendUvarint(bytes.Clone(name), 1<<19)
	// A tiny but valid statics table, then an enormous row count.
	rows := append(bytes.Clone(name), 1, 0, 0, 0, 0)
	rows = binary.AppendUvarint(rows, 1<<21)
	rows = append(rows, 0, 0, 0, 0) // lastNext
	for label, img := range map[string][]byte{
		"oversized statics claim": frameless(statics),
		"oversized rows claim":    frameless(rows),
	} {
		_, err := trace.ReadCaptureFrom(bytes.NewReader(img))
		var ce *trace.CorruptError
		if !errors.As(err, &ce) {
			t.Errorf("%s: %v, want CorruptError", label, err)
		}
	}
}

// TestOpenMappedCaptureRejectsV1 checks a pre-SIGCAP02 file left in a
// trace dir is refused by both loaders as a *CorruptError — the cue for
// the trace cache to re-capture and replace it.
func TestOpenMappedCaptureRejectsV1(t *testing.T) {
	path := trace.CaptureFilePath(t.TempDir(), "dijkstra")
	v1 := append([]byte("SIGCAP01\x08dijkstra"), bytes.Repeat([]byte{0}, 64)...)
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	var ce *trace.CorruptError
	if _, err := trace.OpenMappedCapture(path); !errors.As(err, &ce) {
		t.Errorf("OpenMappedCapture on SIGCAP01: %v, want CorruptError", err)
	}
	if _, err := trace.ReadCaptureFile(path); !errors.As(err, &ce) {
		t.Errorf("ReadCaptureFile on SIGCAP01: %v, want CorruptError", err)
	}
}

// TestCaptureFileDir exercises the directory helpers: write-then-read at
// the conventional path, atomic overwrite, and a decodable result.
func TestCaptureFileDir(t *testing.T) {
	dir := t.TempDir()
	cp, err := trace.CaptureRun(context.Background(), mustBench(t, captureTestBenches[0]))
	if err != nil {
		t.Fatalf("CaptureRun: %v", err)
	}
	path, err := trace.WriteCaptureFile(dir, cp)
	if err != nil {
		t.Fatalf("WriteCaptureFile: %v", err)
	}
	if want := trace.CaptureFilePath(dir, captureTestBenches[0]); path != want {
		t.Errorf("wrote to %q, conventional path is %q", path, want)
	}
	// Overwrite must go through the tmp+rename path and leave no droppings.
	if _, err := trace.WriteCaptureFile(dir, cp); err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory holds %d entries after rewrite, want 1", len(entries))
	}
	got, err := trace.ReadCaptureFile(path)
	if err != nil {
		t.Fatalf("ReadCaptureFile: %v", err)
	}
	if got.Len() != cp.Len() {
		t.Errorf("loaded %d rows, want %d", got.Len(), cp.Len())
	}
}

// TestOpenCaptureFor pins the trace-dir validity check: a file that
// records the requested benchmark maps; a missing one reports
// fs.ErrNotExist; a file that records a different benchmark under b's
// name is refused as a *CorruptError.
func TestOpenCaptureFor(t *testing.T) {
	dir := t.TempDir()
	b := mustBench(t, captureTestBenches[0])
	if _, err := trace.OpenCaptureFor(dir, b); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("empty dir: %v, want ErrNotExist", err)
	}
	cp, err := trace.CaptureRun(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	path, err := trace.WriteCaptureFile(dir, cp)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := trace.OpenCaptureFor(dir, b)
	if err != nil {
		t.Fatalf("valid file: %v", err)
	}
	mc.Close()
	other := mustBench(t, captureTestBenches[1])
	if err := os.Rename(path, trace.CaptureFilePath(dir, other.Name)); err != nil {
		t.Fatal(err)
	}
	var ce *trace.CorruptError
	if _, err := trace.OpenCaptureFor(dir, other); !errors.As(err, &ce) {
		t.Fatalf("file recording %s under %s's name: %v, want CorruptError", b.Name, other.Name, err)
	}
}

// TestCaptureFileGolden pins the on-disk format: the committed golden file
// must keep decoding to a capture that replays bit-identically to a fresh
// capture of the same benchmark. Any layout change breaks this test — bump
// the magic and regenerate with -update.
func TestCaptureFileGolden(t *testing.T) {
	fresh, err := trace.CaptureRun(context.Background(), mustBench(t, "dijkstra"))
	if err != nil {
		t.Fatalf("CaptureRun: %v", err)
	}
	if *updateGolden {
		var buf bytes.Buffer
		if _, err := fresh.WriteTo2(&buf); err != nil {
			t.Fatalf("regenerating golden: %v", err)
		}
		if err := os.WriteFile(goldenCapture, buf.Bytes(), 0o644); err != nil {
			t.Fatalf("regenerating golden: %v", err)
		}
		t.Logf("regenerated %s", goldenCapture)
	}
	got, err := trace.ReadCaptureFile(goldenCapture)
	if err != nil {
		t.Fatalf("golden unreadable (regenerate with -update after a format change): %v", err)
	}
	want := replayEvents(t, fresh)
	have := replayEvents(t, got)
	if len(want) != len(have) {
		t.Fatalf("golden replays %d events, fresh capture %d", len(have), len(want))
	}
	for i := range want {
		if want[i] != have[i] {
			t.Fatalf("golden event %d diverges from fresh capture\nfresh:  %+v\ngolden: %+v",
				i, want[i], have[i])
		}
	}
}
