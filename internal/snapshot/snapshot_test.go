package snapshot

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/body"
	"repro/internal/ic"
)

func TestRoundTrip(t *testing.T) {
	s := ic.Plummer(333, 7)
	var buf bytes.Buffer
	if err := Write(&buf, Snapshot{Time: 1.25, System: s}); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Time != 1.25 {
		t.Errorf("time = %g", got.Time)
	}
	if got.System.N() != s.N() {
		t.Fatalf("N = %d", got.System.N())
	}
	for i := 0; i < s.N(); i++ {
		if got.System.Pos[i] != s.Pos[i] || got.System.Vel[i] != s.Vel[i] ||
			got.System.Mass[i] != s.Mass[i] {
			t.Fatalf("body %d not preserved", i)
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.nbsnap")
	s := ic.UniformCube(100, 2, 1)
	if err := Save(path, Snapshot{Time: 0.5, System: s}); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Time != 0.5 || got.System.N() != 100 {
		t.Errorf("loaded time=%g N=%d", got.Time, got.System.N())
	}
	// No leftover temp files from the atomic write.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory has %d entries after Save", len(entries))
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	s := ic.Plummer(64, 2)
	var buf bytes.Buffer
	if err := Write(&buf, Snapshot{System: s}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[len(data)/2] ^= 0x40 // flip a payload bit
	if _, err := Read(bytes.NewReader(data)); err == nil ||
		!strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corruption not detected: %v", err)
	}
}

func TestBadMagic(t *testing.T) {
	if _, err := Read(strings.NewReader("NOTASNAPXXXXXXXXXXXX")); err == nil ||
		!strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic accepted: %v", err)
	}
}

func TestTruncatedFile(t *testing.T) {
	s := ic.Plummer(64, 3)
	var buf bytes.Buffer
	if err := Write(&buf, Snapshot{System: s}); err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{4, 12, 20, buf.Len() - 2} {
		if _, err := Read(bytes.NewReader(buf.Bytes()[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestRejectsInvalidSystems(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, Snapshot{System: nil}); err == nil {
		t.Error("nil system accepted")
	}
	bad := body.NewSystem(2) // zero masses are invalid
	if err := Write(&buf, Snapshot{System: bad}); err == nil {
		t.Error("invalid system accepted")
	}
}

func TestImplausibleCountRejected(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(magic[:])
	// 2^40 bodies.
	buf.Write([]byte{0, 0, 0, 0, 0, 1, 0, 0})
	if _, err := Read(&buf); err == nil ||
		!strings.Contains(err.Error(), "implausible") {
		t.Fatalf("huge count accepted: %v", err)
	}
}

// TestLyingHeaderAllocatesLittle reads a header that claims 2^20 bodies
// and holds none: Read must fail with a snapshot error, allocating for the
// bytes it read rather than for the count.
func TestLyingHeaderAllocatesLittle(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(magic[:])
	binary.Write(&buf, binary.LittleEndian, uint64(1<<20))
	binary.Write(&buf, binary.LittleEndian, 0.5)
	data := buf.Bytes()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Read(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.HasPrefix(err.Error(), "snapshot: ") {
		t.Errorf("lying header: error %v, want a snapshot: error", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Errorf("lying header allocated %d bytes, want under 1 MiB", alloc)
	}
}

// TestTruncationErrorsNameSnapshot cuts a snapshot inside every section:
// each error says it is a snapshot's.
func TestTruncationErrorsNameSnapshot(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, Snapshot{System: ic.Plummer(8, 1)}); err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < buf.Len(); cut++ {
		_, err := Read(bytes.NewReader(buf.Bytes()[:cut]))
		if err == nil || !strings.HasPrefix(err.Error(), "snapshot: ") {
			t.Fatalf("cut at %d: error %v, want a snapshot: error", cut, err)
		}
	}
}

// FuzzSnapshotRead checks that Read never panics, that an accepted
// snapshot writes back to the bytes it was read from, and that every
// truncation and every single-bit flip of that encoding is rejected (large
// encodings are sampled).
func FuzzSnapshotRead(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, snap); err != nil {
			t.Fatalf("accepted snapshot does not write: %v", err)
		}
		enc := buf.Bytes()
		if !bytes.HasPrefix(data, enc) {
			t.Fatalf("accepted snapshot of %d bodies writes back other bytes", snap.System.N())
		}
		for cut := 0; cut < len(enc); cut += 1 + len(enc)/256 {
			if _, err := Read(bytes.NewReader(enc[:cut])); err == nil {
				t.Fatalf("snapshot cut to %d of %d bytes accepted", cut, len(enc))
			}
		}
		flipped := bytes.Clone(enc)
		for bit := 0; bit < 8*len(enc); bit += 1 + len(enc)/256 {
			flipped[bit/8] ^= 1 << (bit % 8)
			if _, err := Read(bytes.NewReader(flipped)); err == nil {
				t.Fatalf("snapshot with bit %d flipped accepted", bit)
			}
			flipped[bit/8] ^= 1 << (bit % 8)
		}
	})
}

func TestDirOf(t *testing.T) {
	if dirOf("a/b/c.snap") != "a/b" {
		t.Errorf("dirOf nested = %q", dirOf("a/b/c.snap"))
	}
	if dirOf("plain.snap") != "." {
		t.Errorf("dirOf bare = %q", dirOf("plain.snap"))
	}
}

func TestSaveFailsOnBadDirectory(t *testing.T) {
	s := ic.Plummer(8, 1)
	if err := Save("/nonexistent-dir-xyz/state.snap", Snapshot{System: s}); err == nil {
		t.Error("Save into missing directory succeeded")
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load("/nonexistent-file.snap"); err == nil {
		t.Error("Load of missing file succeeded")
	}
}
