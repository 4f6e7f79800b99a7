// Command perfbench is the repository's benchmark: it runs one named
// workload against the federated text-join service, checks every answer,
// and prints each end-to-end metric (or, with --trace 1, each per-layer
// metric) by name and unit. The last line of its output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	go run . --workload plan_warm --seed 1 --seconds 20 --trace 0
//
// The system under test is queryd's surface — gateway.Handler's /query
// and /ingest — over loopback HTTP, driven by a closed loop of two
// clients in this process. NOTES.md records why each workload exists,
// its sizes, and which metric each layer should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are one invocation's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	small    bool // reduced sizes (tests)
}

// setups is how many set-ups an end-to-end run times, the first before
// the timed loop and the rest during its pauses; setup_s is their median.
const setups = 11

// spanDir is where a traced run writes its spans, inside the checkout.
var spanDir = filepath.Join(".bench_build", "spans")

// result is the last line of the output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: plan_warm, fleet_probe or ingest_mix")
	fs.Int64Var(&o.seed, "seed", 1, "input generation seed")
	fs.Float64Var(&o.seconds, "seconds", 20, "measured seconds (a traced run splits them over three phases)")
	fs.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, not %d\n", trace)
		return 2
	}
	o.trace = trace == 1
	res, err := bench(o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// bench runs one invocation and returns its result.
func bench(o options, out io.Writer) (*result, error) {
	known := false
	for _, w := range workloadNames {
		known = known || w == o.workload
	}
	if !known {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	if o.trace {
		return traced(o, out)
	}
	return untraced(o, out)
}

func (o options) phaseDur(phases int) time.Duration {
	return time.Duration(o.seconds / float64(phases) * float64(time.Second))
}

// newSeq starts d's op sequence from its first op.
func newSeq(d *data, seed int64) sequence {
	if d.name == ingestMix {
		return newMixSeq(seed, d)
	}
	return newCycleSeq(seed, d.queries)
}

// setup generates the inputs, builds the stack and warms it; the
// returned duration is what setup_s measures.
func setup(o options, traced bool) (*stack, time.Duration, error) {
	runtime.GC() // start from a collected heap, so earlier set-ups' garbage is not charged here
	start := time.Now()
	d, err := genData(o.workload, o.seed, o.small)
	if err != nil {
		return nil, 0, err
	}
	st, err := buildStack(d, o.seed, traced)
	if err != nil {
		return nil, 0, err
	}
	ex := newHTTPExec(st, nil)
	defer ex.close()
	for _, q := range d.queries {
		if out := ex.run(bgCtx, -1, op{kind: opQuery, q: -1, sql: q}); out.err != nil {
			st.close()
			return nil, 0, fmt.Errorf("warm-up: %w", out.err)
		}
	}
	return st, time.Since(start), nil
}

// reference computes the oracle digests (exec.NaiveQuery on the
// unpartitioned index) and, through the stack, the reference simulated
// cost of each distinct query; any answer differing from the oracle is
// returned as an error. ingest_mix has no distinct queries: its reads
// are checked against the sequence's read-your-writes model instead.
func reference(st *stack) (*refs, error) {
	if st.d.name == ingestMix {
		return nil, nil
	}
	r := &refs{}
	var err error
	if r.digest, err = oracle(st); err != nil {
		return nil, err
	}
	ex := newHTTPExec(st, r)
	defer ex.close()
	cost := make([]float64, len(st.d.queries))
	for i, q := range st.d.queries {
		out := ex.run(bgCtx, -1, op{kind: opQuery, q: i, sql: q})
		if out.err != nil {
			return nil, fmt.Errorf("reference pass: %w", out.err)
		}
		if out.bad != nil {
			return nil, fmt.Errorf("query %d disagrees with the oracle: %v\n  %s", i, out.bad, q)
		}
		cost[i] = out.cost
	}
	r.cost = cost
	return r, nil
}

// windowOf is the length of d's deterministic window.
func windowOf(d *data) int {
	if d.name == ingestMix {
		return mixWindowOps()
	}
	return 2 * len(d.queries)
}

// untraced is the end-to-end run: set up, then one timed closed loop
// over HTTP, paused at evenly spaced points for the further set-ups that
// setup_s takes its median over. Spread over the run, the set-ups sample
// the machine's speed across the same minute as the timed metrics.
func untraced(o options, out io.Writer) (*result, error) {
	st, took, err := setup(o, false)
	if err != nil {
		return nil, err
	}
	defer st.close()
	setupTimes := []float64{took.Seconds()}
	r, err := reference(st)
	if err != nil {
		return nil, err
	}
	resetup := &interludes{n: setups - 1, run: func() error {
		extra, took, err := setup(o, false)
		if err != nil {
			return err
		}
		extra.close()
		runtime.GC() // collect the extra stack here, not in the timed loop
		setupTimes = append(setupTimes, took.Seconds())
		return nil
	}}
	window := windowOf(st.d)
	ex := newHTTPExec(st, r)
	p := runLoop("http", ex, newSeq(st.d, o.seed), o.phaseDur(1), 0, window, false, resetup)
	ex.close()
	if p.interludeErr != nil {
		return nil, p.interludeErr
	}
	live := liveHeapBytes()

	res := &result{Correct: true, Attempted: p.queries + p.writes, Failed: p.failed(), Metrics: map[string]metric{}}
	check(res, p, out)
	ops := float64(p.completedOps())
	p50, p99 := percentile(p.lat, 50), percentile(p.lat, 99)
	set := func(name string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unitOf(endToEnd, name)} }
	set("setup_s", median(setupTimes))
	set("qps", p.qps())
	set("query_p50_ms", p50.value)
	set("query_p99_ms", p99.value)
	set("sim_cost_ms", p.simCostMs())
	set("cpu_ms_per_op", ms(p.use.cpu)/ops)
	set("alloc_kb_per_op", float64(p.use.alloc)/1024/ops)
	set("live_heap_mb", float64(live)/(1<<20))

	fmt.Fprintf(out, "workload %s seed %d: %d queries + %d writes in %.2fs (2 closed-loop clients over loopback HTTP)\n",
		o.workload, o.seed, p.queries, p.writes, p.elapsed.Seconds())
	fmt.Fprintf(out, "setup_s runs: %v\n", setupTimes)
	fmt.Fprintf(out, "query latency: p50 %.3f ms (n=%d, %d beyond), p99 %.3f ms (n=%d, %d beyond)\n",
		p50.value, p50.n, p50.beyond, p99.value, p99.n, p99.beyond)
	if len(p.ack) > 0 {
		a50, a99 := percentile(p.ack, 50), percentile(p.ack, 99)
		fmt.Fprintf(out, "ingest ack: p50 %.3f ms (n=%d, %d beyond), p99 %.3f ms (n=%d, %d beyond)\n",
			a50.value, a50.n, a50.beyond, a99.value, a99.n, a99.beyond)
	}
	fmt.Fprintf(out, "sim_cost_ms over the first %d ops; window digest %016x\n", window, windowDigest(p))
	printMetrics(out, endToEnd, res.Metrics)
	return res, nil
}

// check folds a phase's failures into the result.
func check(res *result, p *phase, out io.Writer) {
	if !p.windowComplete() {
		res.Correct = false
		fmt.Fprintf(out, "FAIL %s: the deterministic window of %d ops did not complete\n", p.mode, len(p.win))
	}
	if len(p.bad) > 0 || p.failed() > 0 {
		res.Correct = false
	}
	for _, b := range p.bad {
		fmt.Fprintf(out, "FAIL %s: %s\n", p.mode, b)
	}
}

// windowDigest combines the window's reply digests, in op order, with
// its per-epoch simulated costs.
func windowDigest(p *phase) uint64 {
	var rows [][]string
	for i, w := range p.win {
		rows = append(rows, []string{fmt.Sprintf("op %08d %016x", i, w.digest)})
	}
	for i, c := range p.epochCosts() {
		rows = append(rows, []string{fmt.Sprintf("epoch %08d %d", i, c)})
	}
	return rowsDigest(rows)
}

// metricDef declares one metric of BENCHMARK.json.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"qps", "1/s"},
	{"query_p50_ms", "ms"},
	{"query_p99_ms", "ms"},
	{"sim_cost_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_kb_per_op", "KiB"},
	{"live_heap_mb", "MiB"},
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	panic("undeclared metric " + name)
}

func printMetrics(out io.Writer, defs []metricDef, m map[string]metric) {
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok {
			fmt.Fprintf(out, "%-32s missing\n", d.name)
			continue
		}
		fmt.Fprintf(out, "%-32s %14.6g %s\n", d.name, v.Value, v.Unit)
	}
}

// finite maps NaN and infinities (no samples) to 0 for the JSON line.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
