package obs

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"
)

// BundleStore captures anomaly-triggered debug bundles: when something goes
// wrong (an SLO burns, a watchdog halts a run, an engine is quarantined),
// one tar.gz lands on disk holding everything needed to answer "what was the
// process doing" after the fact — pprof CPU and heap profiles, a goroutine
// dump, and whatever caller-supplied evidence (merged Chrome trace, flight
// ring, perf attribution) belongs to the triggering job.
//
// The store is bounded in both directions: captures are rate-limited (an
// anomaly storm must not turn the daemon into a profiler) and old bundles
// are LRU-evicted past MaxBundles. A nil *BundleStore discards every
// capture, matching the package's disabled-telemetry convention.
type BundleStore struct {
	dir  string
	opts BundleOptions

	mu          sync.Mutex
	lastCapture time.Time
	seq         int
	bundles     []BundleInfo // sorted by CreatedAtMS ascending

	mCaptured    *Counter
	mRateLimited *Counter
	mEvicted     *Counter
}

// BundleOptions sizes a BundleStore.
type BundleOptions struct {
	// MaxBundles bounds how many bundles are kept on disk; the oldest is
	// evicted when a capture would exceed it. Default 8.
	MaxBundles int
	// MinInterval is the capture rate limit: a capture within MinInterval
	// of the previous one returns ErrBundleRateLimited. Default 30s.
	MinInterval time.Duration
	// CPUProfile is how long the capture samples the CPU profiler (the
	// capture call blocks for this long). Zero uses 200ms; negative skips
	// the CPU profile entirely.
	CPUProfile time.Duration
	// Obs, when non-nil, receives the store's counters
	// (obs.bundles.captured / rate_limited / evicted).
	Obs *Obs
	// Now replaces the clock for tests; time.Now when nil.
	Now func() time.Time
}

// ErrBundleRateLimited reports a capture suppressed by the rate limit.
var ErrBundleRateLimited = errors.New("obs: bundle capture rate-limited")

// BundleInfo describes one captured bundle.
type BundleInfo struct {
	ID string `json:"id"`
	// Reason is the anomaly that triggered the capture (slo-burn:<obj>,
	// watchdog-halt, quarantine, forced, ...).
	Reason string `json:"reason"`
	// JobID/TraceID tie the bundle to the job whose anomaly triggered it.
	JobID       string `json:"job_id,omitempty"`
	TraceID     string `json:"trace_id,omitempty"`
	CreatedAtMS int64  `json:"created_at_ms"`
	SizeBytes   int64  `json:"size_bytes"`
	// Files lists the archive members.
	Files []string `json:"files"`
}

// NewBundleStore opens (creating if needed) a bundle directory and indexes
// any bundles a previous process left behind, so eviction accounting
// survives restarts.
func NewBundleStore(dir string, opts BundleOptions) (*BundleStore, error) {
	if opts.MaxBundles <= 0 {
		opts.MaxBundles = 8
	}
	if opts.MinInterval == 0 {
		opts.MinInterval = 30 * time.Second
	}
	if opts.CPUProfile == 0 {
		opts.CPUProfile = 200 * time.Millisecond
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("obs: bundle dir: %w", err)
	}
	s := &BundleStore{
		dir:          dir,
		opts:         opts,
		mCaptured:    opts.Obs.Counter("obs.bundles.captured"),
		mRateLimited: opts.Obs.Counter("obs.bundles.rate_limited"),
		mEvicted:     opts.Obs.Counter("obs.bundles.evicted"),
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			continue
		}
		var info BundleInfo
		if json.Unmarshal(data, &info) != nil || info.ID == "" {
			continue
		}
		if _, err := os.Stat(s.archivePath(info.ID)); err != nil {
			continue // sidecar without archive: ignore the husk
		}
		s.bundles = append(s.bundles, info)
	}
	sort.Slice(s.bundles, func(i, j int) bool { return s.bundles[i].CreatedAtMS < s.bundles[j].CreatedAtMS })
	return s, nil
}

func (s *BundleStore) now() time.Time {
	if s.opts.Now != nil {
		return s.opts.Now()
	}
	return time.Now()
}

func (s *BundleStore) archivePath(id string) string { return filepath.Join(s.dir, id+".tar.gz") }
func (s *BundleStore) sidecarPath(id string) string { return filepath.Join(s.dir, id+".json") }

// Capture gathers the process's profiles plus the caller's files into one
// tar.gz and indexes it. files maps archive member name to content; the
// store adds meta.json, heap.pprof, goroutines.txt, and (unless disabled)
// cpu.pprof — the call blocks for opts.CPUProfile while sampling. A capture
// arriving within MinInterval of the previous one returns
// ErrBundleRateLimited without touching the disk.
func (s *BundleStore) Capture(reason, jobID, traceID string, files map[string][]byte) (BundleInfo, error) {
	if s == nil {
		return BundleInfo{}, errors.New("obs: nil bundle store")
	}
	// Reserve the rate-limit slot before the (slow) profile sampling so two
	// concurrent anomalies cannot both pass the check.
	s.mu.Lock()
	now := s.now()
	if !s.lastCapture.IsZero() && now.Sub(s.lastCapture) < s.opts.MinInterval {
		s.mu.Unlock()
		s.mRateLimited.Inc()
		return BundleInfo{}, ErrBundleRateLimited
	}
	s.lastCapture = now
	s.seq++
	id := fmt.Sprintf("bundle-%d-%03d", now.UnixMilli(), s.seq)
	s.mu.Unlock()

	members := make(map[string][]byte, len(files)+4)
	for name, data := range files {
		members[name] = data
	}
	if heap := captureHeapProfile(); heap != nil {
		members["heap.pprof"] = heap
	}
	members["goroutines.txt"] = captureGoroutines()
	if s.opts.CPUProfile > 0 {
		if cpu, err := captureCPUProfile(s.opts.CPUProfile); err == nil {
			members["cpu.pprof"] = cpu
		}
	}

	info := BundleInfo{
		ID:          id,
		Reason:      reason,
		JobID:       jobID,
		TraceID:     traceID,
		CreatedAtMS: now.UnixMilli(),
	}
	for name := range members {
		info.Files = append(info.Files, name)
	}
	info.Files = append(info.Files, "meta.json")
	sort.Strings(info.Files)

	meta, err := json.MarshalIndent(info, "", "  ")
	if err != nil {
		return BundleInfo{}, err
	}
	members["meta.json"] = meta

	size, err := writeTarGz(s.archivePath(id), members)
	if err != nil {
		return BundleInfo{}, err
	}
	info.SizeBytes = size
	sidecar, _ := json.MarshalIndent(info, "", "  ")
	if err := os.WriteFile(s.sidecarPath(id), sidecar, 0o644); err != nil {
		os.Remove(s.archivePath(id))
		return BundleInfo{}, err
	}

	s.mu.Lock()
	s.bundles = append(s.bundles, info)
	var evict []BundleInfo
	for len(s.bundles) > s.opts.MaxBundles {
		evict = append(evict, s.bundles[0])
		s.bundles = s.bundles[1:]
	}
	s.mu.Unlock()
	for _, old := range evict {
		os.Remove(s.archivePath(old.ID))
		os.Remove(s.sidecarPath(old.ID))
		s.mEvicted.Inc()
	}
	s.mCaptured.Inc()
	return info, nil
}

// List returns the retained bundles, newest first. Nil-safe (returns nil).
func (s *BundleStore) List() []BundleInfo {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]BundleInfo, len(s.bundles))
	for i, b := range s.bundles {
		out[len(s.bundles)-1-i] = b
	}
	return out
}

// ErrBundleNotFound reports an unknown bundle id.
var ErrBundleNotFound = errors.New("obs: no such bundle")

// Open returns the bundle's archive for streaming (caller closes) plus its
// info. Ids are validated against the index, never used as raw paths.
func (s *BundleStore) Open(id string) (io.ReadCloser, BundleInfo, error) {
	if s == nil {
		return nil, BundleInfo{}, ErrBundleNotFound
	}
	s.mu.Lock()
	var info BundleInfo
	found := false
	for _, b := range s.bundles {
		if b.ID == id {
			info, found = b, true
			break
		}
	}
	s.mu.Unlock()
	if !found {
		return nil, BundleInfo{}, ErrBundleNotFound
	}
	f, err := os.Open(s.archivePath(id))
	if err != nil {
		return nil, BundleInfo{}, err
	}
	return f, info, nil
}

// writeTarGz writes the members (sorted by name, for determinism) into a
// gzipped tar at path and returns the archive size.
func writeTarGz(path string, members map[string][]byte) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	gz := gzip.NewWriter(f)
	tw := tar.NewWriter(gz)
	names := make([]string, 0, len(members))
	for name := range members {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		data := members[name]
		hdr := &tar.Header{Name: name, Mode: 0o644, Size: int64(len(data))}
		if err := tw.WriteHeader(hdr); err != nil {
			return 0, err
		}
		if _, err := tw.Write(data); err != nil {
			return 0, err
		}
	}
	if err := tw.Close(); err != nil {
		return 0, err
	}
	if err := gz.Close(); err != nil {
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// captureHeapProfile returns the heap profile, nil on failure.
func captureHeapProfile() []byte {
	var buf bytes.Buffer
	runtime.GC() // repocheck:allow stoptheworld -- an up-to-date heap profile is the point of the capture, which an anomaly triggers at most once per interval
	if err := pprof.WriteHeapProfile(&buf); err != nil {
		return nil
	}
	return buf.Bytes()
}

// captureGoroutines returns the full goroutine dump.
func captureGoroutines() []byte {
	var buf bytes.Buffer
	pprof.Lookup("goroutine").WriteTo(&buf, 1) // repocheck:allow stoptheworld -- the goroutine dump is what a debug bundle is for, and an anomaly triggers it at most once per interval
	return buf.Bytes()
}

// captureCPUProfile samples the CPU profiler for d. It fails when another
// CPU profile is already running (only one can), which the capture treats
// as "skip the file", not an error.
func captureCPUProfile(d time.Duration) ([]byte, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	time.Sleep(d)
	pprof.StopCPUProfile()
	return buf.Bytes(), nil
}
