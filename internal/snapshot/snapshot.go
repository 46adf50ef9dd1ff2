// Package snapshot serialises body systems to a small self-describing
// binary format, so long simulations can be checkpointed and restarted and
// example outputs can be inspected offline.
//
// Format (little-endian):
//
//	magic   [8]byte  "NBSNAP1\n"
//	n       uint64   body count
//	time    float64  simulation time
//	pos     n x 3 float32
//	vel     n x 3 float32
//	mass    n x float32
//	crc     uint32   IEEE CRC-32 of everything above
package snapshot

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"os"

	"repro/internal/body"
	"repro/internal/vec"
)

var magic = [8]byte{'N', 'B', 'S', 'N', 'A', 'P', '1', '\n'}

// Snapshot couples a system with its simulation time.
type Snapshot struct {
	Time   float64
	System *body.System
}

// Write serialises the snapshot to w.
func Write(w io.Writer, snap Snapshot) error {
	if snap.System == nil {
		return fmt.Errorf("snapshot: nil system")
	}
	if err := snap.System.Validate(); err != nil {
		return fmt.Errorf("snapshot: refusing to write invalid system: %w", err)
	}
	crc := crc32.NewIEEE()
	out := io.MultiWriter(w, crc)

	if _, err := out.Write(magic[:]); err != nil {
		return err
	}
	s := snap.System
	n := uint64(s.N())
	if err := binary.Write(out, binary.LittleEndian, n); err != nil {
		return err
	}
	if err := binary.Write(out, binary.LittleEndian, snap.Time); err != nil {
		return err
	}
	writeV3s := func(vs []vec.V3) error {
		buf := make([]float32, 3*len(vs))
		for i, v := range vs {
			buf[3*i+0] = v.X
			buf[3*i+1] = v.Y
			buf[3*i+2] = v.Z
		}
		return binary.Write(out, binary.LittleEndian, buf)
	}
	if err := writeV3s(s.Pos); err != nil {
		return err
	}
	if err := writeV3s(s.Vel); err != nil {
		return err
	}
	if err := binary.Write(out, binary.LittleEndian, s.Mass); err != nil {
		return err
	}
	// The checksum is written to w only (it covers everything above).
	return binary.Write(w, binary.LittleEndian, crc.Sum32())
}

// Read deserialises a snapshot from r, verifying the checksum. It decodes
// the bodies in chunks of readChunk, so the memory it holds grows with the
// bytes actually read, not with the body count the header claims.
func Read(r io.Reader) (Snapshot, error) {
	crc := crc32.NewIEEE()
	in := io.TeeReader(r, crc)

	var gotMagic [8]byte
	if _, err := io.ReadFull(in, gotMagic[:]); err != nil {
		return Snapshot{}, fmt.Errorf("snapshot: reading magic: %w", err)
	}
	if gotMagic != magic {
		return Snapshot{}, fmt.Errorf("snapshot: bad magic %q", gotMagic)
	}
	var n uint64
	if err := binary.Read(in, binary.LittleEndian, &n); err != nil {
		return Snapshot{}, fmt.Errorf("snapshot: reading body count: %w", err)
	}
	// Bound what a corrupt or malicious header can ask for (~1.8 GiB of
	// body state at the cap, allocated only as its bytes arrive).
	const maxBodies = 1 << 26
	if n > maxBodies {
		return Snapshot{}, fmt.Errorf("snapshot: implausible body count %d", n)
	}
	var tm float64
	if err := binary.Read(in, binary.LittleEndian, &tm); err != nil {
		return Snapshot{}, fmt.Errorf("snapshot: reading time: %w", err)
	}
	buf := make([]byte, 12*readChunk)
	v3 := func(b []byte) vec.V3 {
		return vec.V3{X: f32(b[0:]), Y: f32(b[4:]), Z: f32(b[8:])}
	}
	pos, err := readRecords(in, int(n), 12, buf, v3)
	if err != nil {
		return Snapshot{}, fmt.Errorf("snapshot: reading positions: %w", err)
	}
	vel, err := readRecords(in, int(n), 12, buf, v3)
	if err != nil {
		return Snapshot{}, fmt.Errorf("snapshot: reading velocities: %w", err)
	}
	mass, err := readRecords(in, int(n), 4, buf, f32)
	if err != nil {
		return Snapshot{}, fmt.Errorf("snapshot: reading masses: %w", err)
	}
	s := &body.System{Pos: pos, Vel: vel, Acc: make([]vec.V3, n), Mass: mass}
	want := crc.Sum32()
	var got uint32
	if err := binary.Read(r, binary.LittleEndian, &got); err != nil {
		return Snapshot{}, fmt.Errorf("snapshot: reading checksum: %w", err)
	}
	if got != want {
		return Snapshot{}, fmt.Errorf("snapshot: checksum mismatch (file %#x, computed %#x)", got, want)
	}
	if err := s.Validate(); err != nil {
		return Snapshot{}, fmt.Errorf("snapshot: file contains invalid system: %w", err)
	}
	return Snapshot{Time: tm, System: s}, nil
}

// readChunk is how many records Read decodes per read.
const readChunk = 1 << 12

// readRecords decodes n records of size bytes each from in, at most
// len(buf)/size per read through buf. Its result at most doubles per read,
// up to exactly n records, so a truncated input costs about as much memory
// as it holds.
func readRecords[T any](in io.Reader, n, size int, buf []byte, decode func([]byte) T) ([]T, error) {
	per := len(buf) / size
	out := make([]T, 0, min(n, per))
	for len(out) < n {
		k := min(n-len(out), per)
		if cap(out)-len(out) < k {
			grown := make([]T, len(out), min(n, max(2*cap(out), len(out)+k)))
			copy(grown, out)
			out = grown
		}
		b := buf[:k*size]
		if _, err := io.ReadFull(in, b); err != nil {
			return nil, err
		}
		for ; len(b) > 0; b = b[size:] {
			out = append(out, decode(b))
		}
	}
	return out, nil
}

// f32 decodes a little-endian float32.
func f32(b []byte) float32 { return math.Float32frombits(binary.LittleEndian.Uint32(b)) }

// Save writes a snapshot to a file (atomically: write to a temp file in the
// same directory, then rename).
func Save(path string, snap Snapshot) error {
	tmp, err := os.CreateTemp(dirOf(path), ".nbsnap-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	bw := bufio.NewWriter(tmp)
	if err := Write(bw, snap); err != nil {
		tmp.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// Load reads a snapshot from a file.
func Load(path string) (Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return Snapshot{}, err
	}
	defer f.Close()
	return Read(bufio.NewReader(f))
}

func dirOf(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[:i]
		}
	}
	return "."
}

var _ hash.Hash32 = crc32.NewIEEE() // interface lock: format relies on IEEE CRC-32
