package main

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"sync"
	"time"

	"textjoin/internal/exec"
	"textjoin/internal/replica"
	"textjoin/internal/sqlparse"
	"textjoin/internal/texservice"
	"textjoin/internal/textidx"
)

var bgCtx = context.Background()

// perLayer are the metrics of a traced run. NOTES.md names the
// end-to-end metric and workload each should move.
var perLayer = []metricDef{
	{"gateway.queue_wait_ms", "ms"},
	{"gateway.http_ms", "ms"},
	{"sqlparse.parse_analyze_us", "us"},
	{"optimizer.prepare_ms", "ms"},
	{"stats.sample_calls_per_query", "count"},
	{"exec.run_ms", "ms"},
	{"exec.self_ms", "ms"},
	{"exec.text_wait_ms", "ms"},
	{"join.probes_per_query", "count"},
	{"join.batch_rounds_per_query", "count"},
	{"exec.batches_per_query", "count"},
	{"cache.hit_ratio", "ratio"},
	{"probecache.hit_ratio", "ratio"},
	{"cache.invalidations", "count"},
	{"wire.call_us", "us"},
	{"wire.calls_per_query", "count"},
	{"textidx.eval_us", "us"},
	{"texservice.local_search_us", "us"},
	{"textidx.hits_per_call", "count"},
	{"shard.search_us", "us"},
	{"shard.overhead_us", "us"},
	{"replica.hedges_per_kcall", "count"},
	{"replica.hedge_win_ratio", "ratio"},
	{"replica.failovers", "count"},
	{"ingest.apply_us", "us"},
	{"ingest.compact_ms", "ms"},
	{"ingest.delta_len", "count"},
	{"replica.write_pending", "count"},
	{"ingest.ack_p50_ms", "ms"},
	{"ingest.ack_p99_ms", "ms"},
	{"telemetry.records", "count"},
	{"obs.traces_retained", "count"},
	{"gc.cycles_per_kop", "count"},
	{"gc.pause_ms", "ms"},
	{"trace.untraced_qps", "1/s"},
	{"trace.traced_qps", "1/s"},
	{"trace.overhead_pct", "%"},
}

// traced is the per-layer run, in three phases of equal length, each on
// a freshly built and warmed stack:
//
//	H  the served path (HTTP), untraced: gateway, ingest-ack, telemetry
//	   and Go runtime metrics;
//	U  the benchmark's direct calls into the layers, untraced stack;
//	T  the same direct calls with timing wrappers between the text
//	   layers: every other per-layer metric.
//
// U and T replay one op sequence, so the tracing overhead is T's qps
// against U's, and T must reproduce U's simulated cost, probe counts and
// result digests op for op.
func traced(o options, out io.Writer) (*result, error) {
	res := &result{Correct: true, Metrics: map[string]metric{}}
	dur := o.phaseDur(3)

	st, _, err := setup(o, false)
	if err != nil {
		return nil, err
	}
	r, err := reference(st)
	if err != nil {
		st.close()
		return nil, err
	}
	window := windowOf(st.d)
	exH := newHTTPExec(st, r)
	h := runLoop("http", exH, newSeq(st.d, o.seed), dur, 0, window, false, nil)
	exH.close()
	var records, retained int
	if st.sink != nil {
		records = int(st.sink.Stats().Appended)
	}
	if st.traces != nil {
		retained = st.traces.Stats().Retained
	}
	st.close()

	stU, _, err := setup(o, false)
	if err != nil {
		return nil, err
	}
	u := runLoop("direct", &directExec{st: stU, refs: r}, newSeq(stU.d, o.seed), dur, 0, window, false, nil)
	stU.close()

	stT, _, err := setup(o, true)
	if err != nil {
		return nil, err
	}
	defer stT.close()
	stT.rec.reset()
	stT.exprs.reset()
	cacheBefore := stT.cacheStats()
	fleetBefore := stT.fleetStats()
	t := runLoop("traced", &directExec{st: stT, refs: r}, newSeq(stT.d, o.seed), dur, 0, window, false, nil)
	cacheAfter := stT.cacheStats()
	fleetAfter := stT.fleetStats()

	for _, p := range []*phase{h, u, t} {
		check(res, p, out)
		res.Attempted += p.queries + p.writes
		res.Failed += p.failed()
	}
	for _, msg := range fidelity(h, u, t) {
		res.Correct = false
		fmt.Fprintln(out, "FAIL fidelity:", msg)
	}

	set := func(name string, v float64) {
		res.Metrics[name] = metric{Value: finite(v), Unit: unitOf(perLayer, name)}
	}
	set("gateway.queue_wait_ms", mean(h.queuedMs))
	set("gateway.http_ms", mean(h.httpMs))
	a50, a99 := percentile(h.ack, 50), percentile(h.ack, 99)
	set("ingest.ack_p50_ms", a50.value)
	set("ingest.ack_p99_ms", a99.value)
	set("replica.write_pending", mean(h.writePending))
	set("telemetry.records", float64(records))
	set("obs.traces_retained", float64(retained))
	set("gc.cycles_per_kop", 1000*float64(h.use.gcs)/float64(h.completedOps()))
	set("gc.pause_ms", ms(h.use.gcPause)/float64(h.use.gcs))

	nq := float64(t.directOK)
	set("sqlparse.parse_analyze_us", mean(t.parseUs))
	set("optimizer.prepare_ms", mean(t.prepMs))
	set("exec.run_ms", mean(t.runMs))
	set("join.probes_per_query", float64(t.probes)/nq)
	set("join.batch_rounds_per_query", float64(t.rounds)/nq)
	set("exec.batches_per_query", float64(t.batches)/nq)
	set("ingest.compact_ms", mean(t.compactMs))
	set("ingest.delta_len", float64(stT.deltaLen()))
	sm := spanMetrics(stT)
	set("stats.sample_calls_per_query", float64(sm.sampleCalls)/nq)
	set("exec.self_ms", mean(sm.selfMs))
	set("exec.text_wait_ms", mean(sm.waitMs))
	set("wire.call_us", mean(sm.wireUs))
	set("wire.calls_per_query", float64(sm.wireQueryCalls)/nq)
	set("shard.search_us", mean(sm.shardUs))
	set("shard.overhead_us", mean(sm.shardOverUs))
	set("textidx.hits_per_call", float64(sm.leafHits)/float64(sm.leafCalls))
	set("ingest.apply_us", mean(sm.applyUs))
	evalUs, searchUs, replayed := replay(stT)
	set("textidx.eval_us", evalUs)
	set("texservice.local_search_us", searchUs)

	dc := cacheStats{hits: cacheAfter.hits - cacheBefore.hits, misses: cacheAfter.misses - cacheBefore.misses,
		phits: cacheAfter.phits - cacheBefore.phits, pmisses: cacheAfter.pmisses - cacheBefore.pmisses,
		invals: cacheAfter.invals - cacheBefore.invals}
	set("cache.hit_ratio", float64(dc.hits)/float64(dc.hits+dc.misses))
	set("probecache.hit_ratio", float64(dc.phits)/float64(dc.phits+dc.pmisses))
	set("cache.invalidations", float64(dc.invals))
	hedges := float64(fleetAfter.Hedges - fleetBefore.Hedges)
	set("replica.hedges_per_kcall", 1000*hedges/float64(sm.replicaCalls))
	set("replica.hedge_win_ratio", float64(fleetAfter.HedgeWins-fleetBefore.HedgeWins)/hedges)
	set("replica.failovers", float64(fleetAfter.Failovers-fleetBefore.Failovers))

	set("trace.untraced_qps", u.qps())
	set("trace.traced_qps", t.qps())
	set("trace.overhead_pct", 100*(u.qps()-t.qps())/u.qps())

	path := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	if err := stT.rec.writeFile(path); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(out, "spans: %s\n", path)
	fmt.Fprintf(out, "workload %s seed %d, traced run: phases of %.2fs — http %d ops, direct %d ops, traced %d ops\n",
		o.workload, o.seed, dur.Seconds(), h.queries+h.writes, u.queries+u.writes, t.queries+t.writes)
	fmt.Fprintf(out, "tracing overhead: traced %.1f qps vs untraced %.1f qps (direct calls, same op sequence)\n", t.qps(), u.qps())
	fmt.Fprintf(out, "sim_cost_ms over the first %d ops: http %.6g, direct %.6g, traced %.6g; textidx replay of %d expressions\n",
		window, h.simCostMs(), u.simCostMs(), t.simCostMs(), replayed)
	printMetrics(out, perLayer, res.Metrics)
	return res, nil
}

// fidelity compares the window of the three phases: the traced run must
// reproduce the untraced direct run's probe counts and result digests op
// for op, the direct path the served path's digests, and all three the
// same simulated cost per epoch (see epochCosts).
func fidelity(h, u, t *phase) []string {
	var msgs []string
	for i := range u.win {
		a, b, c := h.win[i], u.win[i], t.win[i]
		if b.digest != c.digest || b.probes != c.probes {
			msgs = append(msgs, fmt.Sprintf("op %d: traced probes %d digest %016x, untraced probes %d digest %016x",
				i, c.probes, c.digest, b.probes, b.digest))
		}
		if a.digest != b.digest {
			msgs = append(msgs, fmt.Sprintf("op %d: direct digest %016x, served digest %016x", i, b.digest, a.digest))
		}
		if len(msgs) >= 8 {
			return msgs
		}
	}
	eh, eu, et := h.epochCosts(), u.epochCosts(), t.epochCosts()
	for i := range eu {
		if eh[i] != eu[i] || eu[i] != et[i] {
			msgs = append(msgs, fmt.Sprintf("epoch %d: simulated cost served %dns, direct %dns, traced %dns", i, eh[i], eu[i], et[i]))
		}
	}
	return msgs
}

func (st *stack) fleetStats() replica.Stats {
	if st.fleet == nil {
		return replica.Stats{}
	}
	return st.fleet.Stats()
}

// spanStats aggregates the traced phase's spans per layer.
type spanStats struct {
	sampleCalls, wireQueryCalls, replicaCalls, leafHits, leafCalls int
	selfMs, waitMs, wireUs, shardUs, shardOverUs, applyUs          []float64
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// spanMetrics derives the span-based per-layer metrics. A query's exec
// self time is its run span minus the union of its text calls (children
// overlap when probes run concurrently), and its text wait is that
// union. Spans without a benchmark parent — the estimator's context-free
// sampling calls, and server-side calls behind the wire — are aggregated
// per layer.
func spanMetrics(st *stack) spanStats {
	all := st.rec.spans()
	kids := map[int64][]span{}
	for _, s := range all {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	var ss spanStats
	for _, s := range all {
		switch s.Layer {
		case "exec":
			parent := interval{s.Start, s.End}
			var ivs []interval
			for _, c := range kids[s.ID] {
				ivs = append(ivs, interval{c.Start, c.End})
			}
			self := selfTime(parent, ivs)
			ss.selfMs = append(ss.selfMs, ms(time.Duration(self)))
			ss.waitMs = append(ss.waitMs, ms(time.Duration(parent.end-parent.start-self)))
			continue
		case layerWire:
			ss.wireUs = append(ss.wireUs, us(s.dur()))
			if s.Query >= 0 {
				ss.wireQueryCalls++
			}
		case layerShard:
			if s.Op == "search" || s.Op == "batch" {
				ss.shardUs = append(ss.shardUs, us(s.dur()))
				var slowest time.Duration
				for _, c := range kids[s.ID] {
					if c.dur() > slowest {
						slowest = c.dur()
					}
				}
				if slowest > 0 {
					ss.shardOverUs = append(ss.shardOverUs, us(s.dur()-slowest))
				}
			}
		case layerReplica:
			if s.Op == "search" || s.Op == "batch" || s.Op == "retrieve" {
				ss.replicaCalls++
			}
		case layerLocal, layerLive:
			switch s.Op {
			case "search", "batch":
				ss.leafCalls++
				ss.leafHits += s.Hits
			case "ingest":
				ss.applyUs = append(ss.applyUs, us(s.dur()))
			}
		}
		if s.Layer == st.top && s.Parent == 0 && s.Query < 0 && s.Op != "ingest" {
			ss.sampleCalls++
		}
	}
	return ss
}

// replay re-evaluates up to 2000 of the expressions the leaves searched,
// timing textidx.Index.Eval and texservice.Local.Search on the leaf's
// index; the difference is hit materialization.
func replay(st *stack) (evalUs, searchUs float64, n int) {
	exprs := st.exprs.exprs()
	if len(exprs) > 2000 {
		exprs = exprs[:2000]
	}
	if len(exprs) == 0 {
		return 0, 0, 0
	}
	locals := map[int]*texservice.Local{}
	var evalT, searchT time.Duration
	for _, le := range exprs {
		ix := st.leaves[le.leaf]
		loc := locals[le.leaf]
		if loc == nil {
			var err error
			if loc, err = texservice.NewLocal(ix, texservice.WithShortFields(shortFields...)); err != nil {
				continue
			}
			locals[le.leaf] = loc
		}
		start := time.Now()
		_, _ = ix.Eval(le.e) // errors are the search's own; only the time is wanted
		mid := time.Now()
		_, _ = loc.Search(bgCtx, le.e, le.form)
		evalT += mid.Sub(start)
		searchT += time.Since(mid)
		n++
	}
	return us(evalT) / float64(n), us(searchT) / float64(n), n
}

// oracle digests each distinct query's answer from exec.NaiveQuery over
// the unpartitioned index, two queries at a time.
func oracle(st *stack) ([]uint64, error) {
	qs := st.d.queries
	cat := st.eng.Catalog()
	out := make([]uint64, len(qs))
	errs := make([]error, len(qs))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i], errs[i] = naiveDigest(qs[i], cat, st.d.corpus.Index)
			}
		}()
	}
	for i := range qs {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("oracle for query %d: %w", i, err)
		}
	}
	return out, nil
}

func naiveDigest(sql string, cat *sqlparse.Catalog, ix *textidx.Index) (uint64, error) {
	q, err := sqlparse.Parse(sql)
	if err != nil {
		return 0, err
	}
	a, err := sqlparse.Analyze(q, cat)
	if err != nil {
		return 0, err
	}
	tbl, err := exec.NaiveQuery(a, cat, ix)
	if err != nil {
		return 0, err
	}
	rows := make([][]string, len(tbl.Rows))
	for i, row := range tbl.Rows {
		r := make([]string, len(row))
		for j, v := range row {
			r[j] = v.Text()
		}
		rows[i] = r
	}
	return rowsDigest(rows), nil
}
