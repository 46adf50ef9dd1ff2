package bh

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/body"
	"repro/internal/ic"
	"repro/internal/vec"
)

// builderICs returns the input regimes the builder tests sweep: realistic
// clustered and uniform sets, tiny systems, and the degenerate geometries
// (coincident, collinear, planar) that stress depth capping.
func builderICs() map[string]*body.System {
	coincident := body.NewSystem(50)
	for i := range coincident.Pos {
		coincident.Pos[i] = vec.V3{X: 1, Y: 1, Z: 1}
		coincident.Mass[i] = 1
	}
	mixed := ic.Plummer(300, 9)
	for i := 0; i < 40; i++ {
		mixed.Pos[i] = vec.V3{X: 0.25, Y: -0.125, Z: 0.5}
	}
	collinear := body.NewSystem(257)
	for i := range collinear.Pos {
		collinear.Pos[i] = vec.V3{X: float32(i) * 0.01}
		collinear.Mass[i] = 1 + float32(i%3)
	}
	planar := body.NewSystem(400)
	{
		src := ic.UniformCube(400, 2, 11)
		copy(planar.Pos, src.Pos)
		copy(planar.Mass, src.Mass)
		for i := range planar.Pos {
			planar.Pos[i].Z = 0
		}
	}
	return map[string]*body.System{
		"plummer-1k":  ic.Plummer(1000, 1),
		"cube-500":    ic.UniformCube(500, 2, 2),
		"single":      ic.Plummer(1, 3),
		"two":         ic.Plummer(2, 4),
		"leafcap+1":   ic.Plummer(17, 5),
		"coincident":  coincident,
		"mixed-coinc": mixed,
		"collinear":   collinear,
		"planar":      planar,
	}
}

func builderOpts() map[string]Options {
	return map[string]Options{
		"default":            DefaultOptions(),
		"tight-theta":        {Theta: 0.3, LeafCap: 8, Eps: 0.05},
		"loose-theta-leaf1":  {Theta: 1.0, LeafCap: 1, Eps: 0.05},
		"shallow":            {Theta: 0.6, LeafCap: 16, MaxDepth: 4, Eps: 0.05},
		"deep-small-buckets": {Theta: 0.6, LeafCap: 4, MaxDepth: 60, Eps: 0.05},
	}
}

// requireTreesEqual asserts bitwise equality of the two trees: node array
// (every field, float bits included), and Index permutation.
func requireTreesEqual(t *testing.T, want, got *Tree) {
	t.Helper()
	if !slices.Equal(want.Index, got.Index) {
		t.Fatalf("Index differs: want %v, got %v", want.Index, got.Index)
	}
	if len(want.Nodes) != len(got.Nodes) {
		t.Fatalf("node count differs: want %d, got %d", len(want.Nodes), len(got.Nodes))
	}
	for i := range want.Nodes {
		if want.Nodes[i] != got.Nodes[i] {
			t.Fatalf("node %d differs:\nwant %+v\ngot  %+v", i, want.Nodes[i], got.Nodes[i])
		}
	}
}

// requireWalksEqual asserts bitwise equality of the two walk sets: headers,
// bounds and both interaction lists of every walk.
func requireWalksEqual(t *testing.T, want, got *WalkSet) {
	t.Helper()
	if len(want.Walks) != len(got.Walks) {
		t.Fatalf("walk count differs: want %d, got %d", len(want.Walks), len(got.Walks))
	}
	for i := range want.Walks {
		a, b := &want.Walks[i], &got.Walks[i]
		if a.First != b.First || a.Count != b.Count || a.Bounds != b.Bounds {
			t.Fatalf("walk %d header differs: want %+v, got %+v", i, a, b)
		}
		if !slices.Equal(a.NodeList, b.NodeList) {
			t.Fatalf("walk %d NodeList differs: want %v, got %v", i, a.NodeList, b.NodeList)
		}
		if !slices.Equal(a.DirectList, b.DirectList) {
			t.Fatalf("walk %d DirectList differs: want %v, got %v", i, a.DirectList, b.DirectList)
		}
	}
}

// treeHash is the FNV-1a 64 hash of a built tree and its walks: the Index
// permutation; every node's Center, Half, COM, Mass and Bounds as float bits
// plus First, Count, Children and Leaf; and every walk's First, Count and
// Bounds and the length and entries of both interaction lists.
func treeHash(tree *Tree, walks *WalkSet) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	put := func(v uint32) {
		binary.LittleEndian.PutUint32(buf[:], v)
		h.Write(buf[:])
	}
	putInts := func(vs []int32) {
		put(uint32(len(vs)))
		for _, v := range vs {
			put(uint32(v))
		}
	}
	putVec := func(v vec.V3) {
		put(math.Float32bits(v.X))
		put(math.Float32bits(v.Y))
		put(math.Float32bits(v.Z))
	}
	putBox := func(b vec.AABB) {
		putVec(b.Min)
		putVec(b.Max)
	}
	putInts(tree.Index)
	put(uint32(len(tree.Nodes)))
	for i := range tree.Nodes {
		nd := &tree.Nodes[i]
		putVec(nd.Center)
		put(math.Float32bits(nd.Half))
		putVec(nd.COM)
		put(math.Float32bits(nd.Mass))
		putBox(nd.Bounds)
		put(uint32(nd.First))
		put(uint32(nd.Count))
		putInts(nd.Children[:])
		if nd.Leaf {
			put(1)
		} else {
			put(0)
		}
	}
	put(uint32(len(walks.Walks)))
	for i := range walks.Walks {
		w := &walks.Walks[i]
		put(uint32(w.First))
		put(uint32(w.Count))
		putBox(w.Bounds)
		putInts(w.NodeList)
		putInts(w.DirectList)
	}
	return h.Sum64()
}

// frozenTreeHashes pins treeHash at GroupCap 24 for every pair of
// builderICs() x builderOpts(), keyed "ic/options". A change to the node
// layout, the Index order, any summary float or any interaction list moves
// a value here.
var frozenTreeHashes = map[string]uint64{
	"coincident/deep-small-buckets":  0x4eccd568f5f195a8,
	"coincident/default":             0x0131e522c21b6fb2,
	"coincident/loose-theta-leaf1":   0x0131e522c21b6fb2,
	"coincident/shallow":             0x078d9103194eb89c,
	"coincident/tight-theta":         0x0131e522c21b6fb2,
	"collinear/deep-small-buckets":   0xa78dc94fc07b756c,
	"collinear/default":              0x79e3080dcba6ea84,
	"collinear/loose-theta-leaf1":    0x3466fc93ade6e041,
	"collinear/shallow":              0x7007a2ada8a25f10,
	"collinear/tight-theta":          0xf8066e016619d374,
	"cube-500/deep-small-buckets":    0xfb97e882a4a760f3,
	"cube-500/default":               0xe544ee91d7b9f1d9,
	"cube-500/loose-theta-leaf1":     0x8a07effa94122843,
	"cube-500/shallow":               0xe544ee91d7b9f1d9,
	"cube-500/tight-theta":           0x030682b8985dab1b,
	"leafcap+1/deep-small-buckets":   0x86c2aba0c45698cf,
	"leafcap+1/default":              0xd13662de49b12e26,
	"leafcap+1/loose-theta-leaf1":    0xf6545188157339d5,
	"leafcap+1/shallow":              0xd13662de49b12e26,
	"leafcap+1/tight-theta":          0xd13662de49b12e26,
	"mixed-coinc/deep-small-buckets": 0x80d362ee47327288,
	"mixed-coinc/default":            0x940ab46283c8b5ed,
	"mixed-coinc/loose-theta-leaf1":  0x12430d37dacd10b9,
	"mixed-coinc/shallow":            0x8e2449321e607de1,
	"mixed-coinc/tight-theta":        0x7783070f5bb72eb4,
	"planar/deep-small-buckets":      0x93d9c0a4cd808a01,
	"planar/default":                 0xeab66c2e508b7fb6,
	"planar/loose-theta-leaf1":       0x61a7b6ca28710a9a,
	"planar/shallow":                 0xeab66c2e508b7fb6,
	"planar/tight-theta":             0x0b7ec12fdec9db24,
	"plummer-1k/deep-small-buckets":  0x43503fb5190f12a0,
	"plummer-1k/default":             0x9a8de05daccfa4aa,
	"plummer-1k/loose-theta-leaf1":   0x31d196d1ef0f53fc,
	"plummer-1k/shallow":             0x7e4b6623cf7eee36,
	"plummer-1k/tight-theta":         0x3270a1b2c5f47ccd,
	"single/deep-small-buckets":      0xb9ca3c14e4ce21cc,
	"single/default":                 0xb9ca3c14e4ce21cc,
	"single/loose-theta-leaf1":       0xb9ca3c14e4ce21cc,
	"single/shallow":                 0xb9ca3c14e4ce21cc,
	"single/tight-theta":             0xb9ca3c14e4ce21cc,
	"two/deep-small-buckets":         0x48db9a9664a2cbb4,
	"two/default":                    0x48db9a9664a2cbb4,
	"two/loose-theta-leaf1":          0x8a1d53a7112234a8,
	"two/shallow":                    0x48db9a9664a2cbb4,
	"two/tight-theta":                0x48db9a9664a2cbb4,
}

// TestBuilderMatchesFrozen is the golden gate of the tree builder: across
// ICs x options x worker counts, two rounds through one builder must
// reproduce the frozen hash of the tree and its walks bit for bit.
func TestBuilderMatchesFrozen(t *testing.T) {
	for icName, s := range builderICs() {
		for optName, opt := range builderOpts() {
			key := icName + "/" + optName
			want, ok := frozenTreeHashes[key]
			for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
				b := &Builder{Workers: workers}
				// The second round exercises arena reuse over dirty pooled
				// state.
				for round := 0; round < 2; round++ {
					name := fmt.Sprintf("%s/workers=%d/round=%d", key, workers, round)
					tree, err := b.BuildInto(s, opt)
					if err != nil {
						t.Fatalf("%s: BuildInto: %v", name, err)
					}
					walks, err := b.BuildWalksInto(tree, 24)
					if err != nil {
						t.Fatalf("%s: BuildWalksInto: %v", name, err)
					}
					if err := tree.Validate(); err != nil {
						t.Fatalf("%s: Validate: %v", name, err)
					}
					if err := walks.Validate(); err != nil {
						t.Fatalf("%s: walks.Validate: %v", name, err)
					}
					if got := treeHash(tree, walks); !ok || got != want {
						t.Errorf("%s: hash %#016x, frozen %#016x\n\t%q: %#016x,", name, got, want, key, got)
					}
				}
			}
		}
	}
}

// TestBuilderReuseAcrossSystems drives one pooled builder through systems of
// varying size — grow, shrink, grow — checking equivalence each time, the
// pattern a long-lived engine pool sees across jobs.
func TestBuilderReuseAcrossSystems(t *testing.T) {
	b := &Builder{Workers: runtime.GOMAXPROCS(0)}
	for _, n := range []int{2000, 100, 1, 700, 3000} {
		s := ic.Plummer(n, uint64(n))
		want, err := Build(s, DefaultOptions())
		if err != nil {
			t.Fatalf("n=%d: Build: %v", n, err)
		}
		got, err := b.BuildInto(s, DefaultOptions())
		if err != nil {
			t.Fatalf("n=%d: BuildInto: %v", n, err)
		}
		requireTreesEqual(t, want, got)
		wantW, err := want.BuildWalks(64)
		if err != nil {
			t.Fatalf("n=%d: BuildWalks: %v", n, err)
		}
		gotW, err := b.BuildWalksInto(got, 64)
		if err != nil {
			t.Fatalf("n=%d: BuildWalksInto: %v", n, err)
		}
		requireWalksEqual(t, wantW, gotW)
	}
}

func TestBuilderRejectsEmpty(t *testing.T) {
	var b Builder
	if _, err := b.BuildInto(body.NewSystem(0), DefaultOptions()); err == nil {
		t.Fatal("empty system accepted")
	}
}

func TestBuilderReset(t *testing.T) {
	b := &Builder{Workers: 2}
	s := ic.Plummer(500, 7)
	if _, err := b.BuildInto(s, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	b.Reset()
	tree, err := b.BuildInto(s, DefaultOptions())
	if err != nil {
		t.Fatalf("BuildInto after Reset: %v", err)
	}
	want, err := Build(s, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	requireTreesEqual(t, want, tree)
}

// TestBuilderParallelRace exercises the builder under the race detector:
// several goroutines each drive their own builder (builders are independent;
// sharing one is not supported) over the same shared read-only system, with
// each builder's walk-construction workers racing internally.
func TestBuilderParallelRace(t *testing.T) {
	s := ic.Plummer(4000, 13)
	want, err := Build(s, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b := &Builder{Workers: runtime.GOMAXPROCS(0)}
			for round := 0; round < 3; round++ {
				tree, err := b.BuildInto(s, DefaultOptions())
				if err != nil {
					t.Errorf("BuildInto: %v", err)
					return
				}
				if len(tree.Nodes) != len(want.Nodes) {
					t.Errorf("node count %d, want %d", len(tree.Nodes), len(want.Nodes))
					return
				}
				if _, err := b.BuildWalksInto(tree, 24); err != nil {
					t.Errorf("BuildWalksInto: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestBuilderZeroAllocSteadyState pins the headline property: after warmup,
// a serial (Workers=1) build + walk construction over a pooled builder
// performs zero heap allocations per step. This is the CI allocs/op gate.
func TestBuilderZeroAllocSteadyState(t *testing.T) {
	s := ic.Plummer(4096, 17)
	b := &Builder{Workers: 1}
	step := func() {
		tree, err := b.BuildInto(s, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.BuildWalksInto(tree, 64); err != nil {
			t.Fatal(err)
		}
	}
	step() // warm the arenas
	if allocs := testing.AllocsPerRun(10, step); allocs != 0 {
		t.Fatalf("steady-state build+walks allocates %.1f objects/step, want 0", allocs)
	}
}

// TestWalkSetValidateZeroAlloc is the regression gate for the pooled covered
// bitmap: repeated Validate calls on one walk set must not allocate.
func TestWalkSetValidateZeroAlloc(t *testing.T) {
	s := ic.Plummer(2048, 19)
	var b Builder
	tree, err := b.BuildInto(s, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ws, err := b.BuildWalksInto(tree, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := ws.Validate(); err != nil { // first call may size the bitmap
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := ws.Validate(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Validate allocates %.1f objects/call after warmup, want 0", allocs)
	}
}

// TestParallelBuildBeatsSerial is the CI speedup gate (HOSTPATH_GATE=1): at
// N=32768 the host step — BuildInto plus BuildWalksInto at GroupCap 64 —
// must be faster with walk construction spread over every CPU than with
// Workers=1. The tree build is serial either way, so the gate measures the
// parallel walk construction inside the step the plans run. Guarded by an
// env var because timing assertions are only meaningful on a quiet
// multi-core machine (the dedicated CI job provides one).
func TestParallelBuildBeatsSerial(t *testing.T) {
	if os.Getenv("HOSTPATH_GATE") == "" {
		t.Skip("set HOSTPATH_GATE=1 to run the parallel host-step speedup gate")
	}
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs >= 2 CPUs")
	}
	const n = 32768
	s := ic.Plummer(n, 23)
	measure := func(workers int) time.Duration {
		b := &Builder{Workers: workers}
		step := func() {
			tree, err := b.BuildInto(s, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := b.BuildWalksInto(tree, 64); err != nil {
				t.Fatal(err)
			}
		}
		step() // warm arenas
		best := time.Duration(1<<63 - 1)
		for rep := 0; rep < 5; rep++ {
			start := time.Now()
			step()
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	serial := measure(1)
	parallel := measure(runtime.GOMAXPROCS(0))
	t.Logf("N=%d: serial %v, parallel %v (%.2fx, %d workers)",
		n, serial, parallel, float64(serial)/float64(parallel), runtime.GOMAXPROCS(0))
	if parallel >= serial {
		t.Fatalf("parallel host step (%v) not faster than serial (%v) at N=%d", parallel, serial, n)
	}
}
