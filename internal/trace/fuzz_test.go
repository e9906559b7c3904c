package trace_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/icomp"
	"repro/internal/trace"
)

// FuzzReaderNoPanic throws arbitrary bytes at the mapped reader: the bytes
// become a capture file, and whatever OpenMappedCapture accepts is
// replayed over a memory image. Bad magic, truncation and garbage frames
// must all surface as errors — the replay of an accepted file included —
// never as a panic.
func FuzzReaderNoPanic(f *testing.F) {
	golden, err := os.ReadFile(goldenCapture)
	if err != nil {
		f.Fatalf("seed %s: %v", goldenCapture, err)
	}
	f.Add(golden)
	f.Add(golden[:len(golden)/2])
	flipped := bytes.Clone(golden)
	flipped[len(flipped)/2] ^= 0x04 // inside a frame: open succeeds, replay must not
	f.Add(flipped)
	f.Add(bytes.Repeat([]byte{0xa5}, 100))
	rc := icomp.MustNewRecoder(icomp.DefaultTopFuncts())
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "dijkstra"+trace.CapFileExt)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		mc, err := trace.OpenMappedCapture(path)
		if err != nil {
			return
		}
		defer mc.Close()
		replayWithMemory(context.Background(), mc, rc, trace.ConsumerFunc(func(trace.Event) {}))
	})
}

// FuzzReadCapture throws arbitrary bytes at the capture decoder: decode
// must never panic, and any input it accepts must re-encode to a canonical
// fixed point — enc(dec(input)) decoded and encoded again is
// byte-identical. (The input itself need not re-encode identically:
// non-canonical varints decode fine but are written back in canonical
// form.) Seeded with the committed golden capture and damaged variants of
// it, so the corpus starts from a valid file and its error paths.
func FuzzReadCapture(f *testing.F) {
	golden, err := os.ReadFile(goldenCapture)
	if err != nil {
		f.Fatalf("seed %s: %v", goldenCapture, err)
	}
	f.Add(golden)
	// Truncated and bit-flipped variants steer early coverage toward the
	// error paths: a frame cut, a lost tail, a damaged footer, and the
	// retired SIGCAP01 magic over an otherwise valid body.
	f.Add(golden[:len(golden)/3])
	flipped := bytes.Clone(golden)
	flipped[len(flipped)/2] ^= 0x04
	f.Add(flipped)
	f.Add(golden[:len(golden)-20])
	footer := bytes.Clone(golden)
	footer[len(footer)-30] ^= 0x04
	f.Add(footer)
	f.Add(append([]byte("SIGCAP01"), golden[8:]...))
	f.Add([]byte("SIGCAP01"))
	f.Add([]byte("SIGCAP02"))
	f.Add([]byte("SIGCAP02........SIGCAP02"))
	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := trace.ReadCaptureFrom(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if _, err := cp.WriteTo2(&first); err != nil {
			t.Fatalf("re-encoding accepted capture: %v", err)
		}
		cp2, err := trace.ReadCaptureFrom(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("decoding own encoding: %v", err)
		}
		var second bytes.Buffer
		if _, err := cp2.WriteTo2(&second); err != nil {
			t.Fatalf("re-encoding second pass: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("encode/decode not a fixed point: %d vs %d bytes", first.Len(), second.Len())
		}
	})
}
