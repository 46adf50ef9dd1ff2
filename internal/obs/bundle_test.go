package obs

import (
	"archive/tar"
	"compress/gzip"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func testBundleStore(t *testing.T, dir string, maxBundles int, minInterval time.Duration) (*BundleStore, *sloClock) {
	t.Helper()
	clk := &sloClock{t: time.Unix(1_700_000_000, 0)}
	s, err := NewBundleStore(dir, BundleOptions{
		MaxBundles:  maxBundles,
		MinInterval: minInterval,
		CPUProfile:  -1, // keep tests fast; the CPU profile path is covered once below
		Now:         clk.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, clk
}

// readBundle extracts the archive members of a bundle.
func readBundle(t *testing.T, s *BundleStore, id string) map[string][]byte {
	t.Helper()
	rc, _, err := s.Open(id)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	gz, err := gzip.NewReader(rc)
	if err != nil {
		t.Fatal(err)
	}
	tr := tar.NewReader(gz)
	out := map[string][]byte{}
	for {
		hdr, err := tr.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(tr)
		if err != nil {
			t.Fatal(err)
		}
		out[hdr.Name] = data
	}
	return out
}

func TestBundleCaptureContents(t *testing.T) {
	s, _ := testBundleStore(t, t.TempDir(), 4, time.Second)
	info, err := s.Capture("watchdog-halt", "job-1", "aaaa", map[string][]byte{
		"flight.json": []byte(`{"trace_id":"aaaa"}`),
		"trace.json":  []byte(`[]`),
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.Reason != "watchdog-halt" || info.JobID != "job-1" || info.TraceID != "aaaa" {
		t.Fatalf("bad info: %+v", info)
	}
	if info.SizeBytes <= 0 {
		t.Fatalf("size not recorded: %+v", info)
	}
	members := readBundle(t, s, info.ID)
	for _, want := range []string{"meta.json", "flight.json", "trace.json", "heap.pprof", "goroutines.txt"} {
		if _, ok := members[want]; !ok {
			t.Errorf("bundle missing %s (have %v)", want, info.Files)
		}
	}
	var meta BundleInfo
	if err := json.Unmarshal(members["meta.json"], &meta); err != nil {
		t.Fatal(err)
	}
	if meta.TraceID != "aaaa" || meta.Reason != "watchdog-halt" {
		t.Fatalf("meta.json does not carry the trigger: %+v", meta)
	}
}

func TestBundleCaptureCPUProfile(t *testing.T) {
	s, err := NewBundleStore(t.TempDir(), BundleOptions{CPUProfile: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	info, err := s.Capture("forced", "", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	members := readBundle(t, s, info.ID)
	if len(members["cpu.pprof"]) == 0 {
		t.Fatal("cpu.pprof missing or empty")
	}
}

func TestBundleRateLimitAndEviction(t *testing.T) {
	dir := t.TempDir()
	s, clk := testBundleStore(t, dir, 2, 10*time.Second)
	first, err := s.Capture("slo-burn:job_latency", "job-1", "t1", nil)
	if err != nil {
		t.Fatal(err)
	}
	// Within the interval: rate-limited, nothing written.
	clk.advance(time.Second)
	if _, err := s.Capture("slo-burn:job_latency", "job-2", "t2", nil); !errors.Is(err, ErrBundleRateLimited) {
		t.Fatalf("want ErrBundleRateLimited, got %v", err)
	}
	if n := len(s.List()); n != 1 {
		t.Fatalf("rate-limited capture changed the store: %d bundles", n)
	}
	// Past the interval: two more captures evict the first (MaxBundles 2).
	clk.advance(time.Minute)
	second, err := s.Capture("quarantine", "job-3", "t3", nil)
	if err != nil {
		t.Fatal(err)
	}
	clk.advance(time.Minute)
	third, err := s.Capture("quarantine", "job-4", "t4", nil)
	if err != nil {
		t.Fatal(err)
	}
	list := s.List()
	if len(list) != 2 || list[0].ID != third.ID || list[1].ID != second.ID {
		t.Fatalf("want newest-first [%s %s], got %+v", third.ID, second.ID, list)
	}
	if _, _, err := s.Open(first.ID); !errors.Is(err, ErrBundleNotFound) {
		t.Fatalf("evicted bundle still opens: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, first.ID+".tar.gz")); !os.IsNotExist(err) {
		t.Fatalf("evicted archive still on disk: %v", err)
	}

	// A fresh store over the same dir re-indexes the survivors.
	s2, _ := testBundleStore(t, dir, 2, time.Second)
	list2 := s2.List()
	if len(list2) != 2 || list2[0].ID != third.ID {
		t.Fatalf("restart lost the index: %+v", list2)
	}
	if members := readBundle(t, s2, second.ID); len(members["meta.json"]) == 0 {
		t.Fatal("re-indexed bundle unreadable")
	}
}

func TestBundleNilStore(t *testing.T) {
	var s *BundleStore
	if _, err := s.Capture("x", "", "", nil); err == nil {
		t.Fatal("nil store must refuse captures")
	}
	if s.List() != nil {
		t.Fatal("nil store must be inert")
	}
	if _, _, err := s.Open("x"); !errors.Is(err, ErrBundleNotFound) {
		t.Fatal("nil store Open must be not-found")
	}
}
