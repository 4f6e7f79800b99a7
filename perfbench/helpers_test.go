package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"os"
	"sync"
	"testing"
	"time"

	"textjoin/internal/ingest"
	"textjoin/internal/texservice"
	"textjoin/internal/textidx"
	"textjoin/internal/workload"
)

func TestPercentileNearestRank(t *testing.T) {
	var s []float64
	for i := 100; i >= 1; i-- {
		s = append(s, float64(i))
	}
	for _, c := range []struct {
		p      float64
		value  float64
		beyond int
	}{{50, 50, 50}, {99, 99, 1}, {100, 100, 0}, {1, 1, 99}} {
		got := percentile(s, c.p)
		if got.value != c.value || got.n != 100 || got.beyond != c.beyond {
			t.Errorf("p%v = %+v, want value %v n 100 beyond %d", c.p, got, c.value, c.beyond)
		}
	}
	if s[0] != 100 {
		t.Fatal("percentile reordered its input")
	}
	// Failures are +Inf samples: they count as missing the limit.
	withFail := []float64{1, 2, 3, math.Inf(1)}
	if got := percentile(withFail, 50); got.value != 2 || got.beyond != 2 {
		t.Errorf("p50 with a failure = %+v", got)
	}
	if got := percentile(withFail, 99); !math.IsInf(got.value, 1) || got.beyond != 0 || got.n != 4 {
		t.Errorf("p99 with a failure = %+v", got)
	}
	// Ties: nothing equal to the percentile counts as beyond it.
	if got := percentile([]float64{5, 5, 5, 7}, 50); got.value != 5 || got.beyond != 1 {
		t.Errorf("p50 with ties = %+v", got)
	}
	if got := percentile(nil, 50); !math.IsNaN(got.value) || got.n != 0 {
		t.Errorf("p50 of nothing = %+v", got)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	parent := interval{0, 100}
	// Two overlapping scatter legs and a hedge attempt that outlives the
	// parent: covered are [10,40) and [90,100), 40 in all.
	kids := []interval{{10, 30}, {20, 40}, {90, 120}}
	if got := selfTime(parent, kids); got != 60 {
		t.Fatalf("self time %d, want 60 (the sum of children would give 30)", got)
	}
	if got := unionLen([]interval{{0, 10}, {10, 20}, {30, 35}}); got != 25 {
		t.Fatalf("union %d, want 25", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Fatalf("self time without children %d", got)
	}
	if got := selfTime(parent, []interval{{-5, 200}}); got != 0 {
		t.Fatalf("self time under a covering child %d", got)
	}
}

var sink [][]byte

func TestProcessReaders(t *testing.T) {
	cpu0 := cpuTime()
	deadline := time.Now().Add(50 * time.Millisecond)
	x := 0
	for time.Now().Before(deadline) {
		x++
	}
	if d := cpuTime() - cpu0; d < 20*time.Millisecond {
		t.Errorf("getrusage saw %v of CPU for a 50ms busy loop (%d)", d, x)
	}

	a0 := allocBytes()
	for i := 0; i < 16; i++ {
		sink = append(sink, make([]byte, 64<<10)) // large objects: counted at allocation
	}
	if d := allocBytes() - a0; d < 1<<20 {
		t.Errorf("allocation counter grew %d bytes for 1 MiB allocated", d)
	}

	sink = nil
	base := liveHeapBytes()
	sink = append(sink, make([]byte, 32<<20))
	held := liveHeapBytes()
	if held < base+30<<20 {
		t.Errorf("live heap %d with 32 MiB held, %d without", held, base)
	}
	sink = nil
	if after := liveHeapBytes(); after > held-30<<20 {
		t.Errorf("live heap %d after release, %d while held", after, held)
	}
	if c, _ := gcStats(); c == 0 {
		t.Error("no GC cycles counted after forced collections")
	}
}

// fixedSeq replays a fixed op pattern forever.
type fixedSeq struct {
	kinds []int
	i     int
}

func (s *fixedSeq) next() op {
	k := s.kinds[s.i%len(s.kinds)]
	s.i++
	return op{kind: k, q: -1}
}

// barrierProbe is an executor that checks the write barrier as ops run.
type barrierProbe struct {
	mu       sync.Mutex
	queries  int // queries running
	writing  bool
	overlaps int
	starts   map[int]time.Time
	ends     map[int]time.Time
	rng      *rand.Rand
}

func (b *barrierProbe) run(_ context.Context, i int, o op) outcome {
	b.mu.Lock()
	if b.writing || (o.kind != opQuery && b.queries > 0) {
		b.overlaps++
	}
	if o.kind == opQuery {
		b.queries++
	} else {
		b.writing = true
	}
	b.starts[i] = time.Now()
	pause := time.Duration(b.rng.Intn(300)) * time.Microsecond
	b.mu.Unlock()
	time.Sleep(pause)
	b.mu.Lock()
	if o.kind == opQuery {
		b.queries--
	} else {
		b.writing = false
	}
	b.ends[i] = time.Now()
	b.mu.Unlock()
	return outcome{probes: -1}
}

func TestWriteBarrierKeepsWritesFromOverlappingQueries(t *testing.T) {
	kinds := []int{opIngest, opQuery, opQuery, opQuery, opIngest, opQuery, opCompact, opQuery, opQuery}
	seq := &fixedSeq{kinds: kinds}
	probe := &barrierProbe{starts: map[int]time.Time{}, ends: map[int]time.Time{}, rng: rand.New(rand.NewSource(1))}
	const n = 400
	p := runLoop("barrier", probe, seq, time.Minute, n, 0, true, nil)
	if len(p.ops) != n {
		t.Fatalf("ran %d ops, want %d", len(p.ops), n)
	}
	if probe.overlaps > 0 {
		t.Fatalf("%d ops overlapped a write", probe.overlaps)
	}
	for i := 0; i < n; i++ {
		excl := kinds[i%len(kinds)] != opQuery
		for j := 0; j < i; j++ {
			jExcl := kinds[j%len(kinds)] != opQuery
			if (excl || jExcl) && probe.starts[i].Before(probe.ends[j]) {
				t.Fatalf("op %d started before earlier op %d ended (exclusive %v/%v)", i, j, excl, jExcl)
			}
		}
	}
	// Queries between two writes do run concurrently.
	concurrent := false
	for i := 1; i < n && !concurrent; i++ {
		if kinds[i%len(kinds)] == opQuery && kinds[(i-1)%len(kinds)] == opQuery &&
			probe.starts[i].Before(probe.ends[i-1]) {
			concurrent = true
		}
	}
	if !concurrent {
		t.Error("no two queries ever overlapped: the barrier serializes reads")
	}
}

// TestWrapperForwardsCapabilities checks the timing wrapper over a live
// store (which has all six capabilities) and a frozen one (which has
// neither write nor snapshot capabilities), and the parenting of nested
// wrapper spans.
func TestWrapperForwardsCapabilities(t *testing.T) {
	c := workload.NewCorpus(workload.CorpusConfig{Docs: 50, Seed: 1})
	store, err := ingest.Open(c.Index, ingest.Options{CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	rec := newRecorder()
	live := ingest.NewLive(store, ingest.WithShortFields(shortFields...))
	inner := &timed{inner: live, rec: rec, layer: "inner"}
	outer := &timed{inner: inner, rec: rec, layer: "outer"}
	ctx := rec.queryContext(context.Background(), 7)

	e := textidx.Term{Field: "author", Word: c.Authors[0]}
	if res, _, err := texservice.SearchBatch(ctx, outer, []textidx.Expr{e, e}, texservice.FormShort); err != nil || len(res) != 2 {
		t.Fatalf("batched search through the wrapper: %v", err)
	}
	if n, err := outer.TermDocFrequency(ctx, "author", c.Authors[0]); err != nil || n == 0 {
		t.Fatalf("statistics through the wrapper: %d, %v", n, err)
	}
	pinned := texservice.PinSnapshot(ctx, outer)
	ack, err := texservice.IngestInto(ctx, outer, []texservice.IngestOp{{Kind: texservice.IngestPut, ExtID: "NEW-1",
		Fields: map[string]string{"title": "fresh", "author": c.Authors[0]}}})
	if err != nil {
		t.Fatalf("ingest through the wrapper: %v", err)
	}
	if v, err := outer.IndexVersion(ctx); err != nil || v != ack.Version {
		t.Fatalf("index version %d, %v; ack %d", v, err, ack.Version)
	}
	if !texservice.SnapshotPinned(pinned, outer) {
		t.Fatal("a pin taken before the write does not report itself behind")
	}
	res, err := outer.Search(pinned, e, texservice.FormShort)
	if err != nil {
		t.Fatal(err)
	}
	now, err := outer.Search(ctx, e, texservice.FormShort)
	if err != nil || len(now.Hits) != len(res.Hits)+1 {
		t.Fatalf("pinned view %d hits, current %d: the pin was not forwarded", len(res.Hits), len(now.Hits))
	}

	local, err := texservice.NewLocal(c.Index)
	if err != nil {
		t.Fatal(err)
	}
	frozen := &timed{inner: local, rec: rec, layer: "frozen"}
	if _, err := texservice.IngestInto(ctx, frozen, []texservice.IngestOp{{Kind: texservice.IngestDelete, ExtID: "x"}}); !errors.Is(err, texservice.ErrNoIngest) {
		t.Fatalf("ingest into a frozen backend: %v, want ErrNoIngest", err)
	}
	if texservice.SnapshotPinned(texservice.PinSnapshot(ctx, frozen), frozen) {
		t.Fatal("a frozen backend reports a pinned view")
	}

	ids := map[int64]span{}
	for _, s := range rec.spans() {
		ids[s.ID] = s
	}
	nested := 0
	for _, s := range rec.spans() {
		if s.Layer != "inner" {
			continue
		}
		p, ok := ids[s.Parent]
		if !ok || p.Layer != "outer" || s.Query != 7 || s.Start < p.Start || s.End > p.End {
			t.Fatalf("inner span %+v not nested in an outer span (%+v)", s, p)
		}
		nested++
	}
	if nested == 0 {
		t.Fatal("no inner spans recorded")
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json's workloads and
// metric lists in step with what the benchmark prints.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal("reading BENCHMARK.json:", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(b.Workloads), len(workloadNames))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: %q vs %q", i, w.Name, workloadNames[i])
		}
	}
	for _, c := range []struct {
		json []struct{ Name, Unit string }
		code []metricDef
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.json) != len(c.code) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the code %d", len(c.json), len(c.code))
		}
		for i, m := range c.json {
			if m.Name != c.code[i].name || m.Unit != c.code[i].unit {
				t.Errorf("metric %d: %s %s vs %s %s", i, m.Name, m.Unit, c.code[i].name, c.code[i].unit)
			}
		}
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "nope", "--seconds", "1"}, &out, &errOut); code == 0 {
		t.Fatal("an unknown workload exited 0")
	}
	if out.Len() != 0 {
		t.Fatalf("printed a result for an unknown workload: %q", out.String())
	}
}

func TestTraceFlagRejectsOtherValues(t *testing.T) {
	for _, v := range []string{"2", "-1", "true"} {
		var out, errOut bytes.Buffer
		if code := run([]string{"--workload", planWarm, "--seconds", "1", "--trace", v}, &out, &errOut); code != 2 {
			t.Errorf("--trace %s exited %d, want 2", v, code)
		}
		if out.Len() != 0 {
			t.Errorf("--trace %s printed a result: %q", v, out.String())
		}
	}
}

// TestInterludesRunWithNothingInFlight checks that the closed loop pauses
// for each interlude with no op running, that every interlude runs, and
// that their time is left out of the phase's elapsed time.
func TestInterludesRunWithNothingInFlight(t *testing.T) {
	kinds := []int{opQuery, opQuery, opIngest, opQuery}
	probe := &barrierProbe{starts: map[int]time.Time{}, ends: map[int]time.Time{}, rng: rand.New(rand.NewSource(2))}
	const gap = 50 * time.Millisecond
	ran, busy := 0, 0
	il := &interludes{n: 4, run: func() error {
		probe.mu.Lock()
		if probe.queries > 0 || probe.writing {
			busy++
		}
		probe.mu.Unlock()
		ran++
		time.Sleep(gap)
		return nil
	}}
	start := time.Now()
	p := runLoop("pauses", probe, &fixedSeq{kinds: kinds}, 250*time.Millisecond, 0, 0, false, il)
	wall := time.Since(start)
	if ran != il.n || busy > 0 {
		t.Fatalf("ran %d of %d interludes, %d with ops in flight", ran, il.n, busy)
	}
	if probe.overlaps > 0 {
		t.Fatalf("%d ops overlapped a write", probe.overlaps)
	}
	if p.elapsed > wall-time.Duration(il.n)*gap {
		t.Fatalf("elapsed %v includes the interludes (wall %v)", p.elapsed, wall)
	}
	if p.queries == 0 {
		t.Fatal("no queries ran")
	}
}

func TestInterludeErrorStopsTheLoop(t *testing.T) {
	probe := &barrierProbe{starts: map[int]time.Time{}, ends: map[int]time.Time{}, rng: rand.New(rand.NewSource(3))}
	boom := errors.New("set-up failed")
	start := time.Now()
	p := runLoop("pauses", probe, &fixedSeq{kinds: []int{opQuery}}, 10*time.Second, 0, 0, false,
		&interludes{n: 9, run: func() error { return boom }})
	if !errors.Is(p.interludeErr, boom) {
		t.Fatalf("interludeErr = %v", p.interludeErr)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("the loop ran on for %v after a failed interlude", d)
	}
}
