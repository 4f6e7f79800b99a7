package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"textjoin/internal/gateway"
	"textjoin/internal/sqlparse"
	"textjoin/internal/texservice"
)

// clients is the closed loop's concurrency: each client sends its next
// operation only after the previous one's reply.
const clients = 2

// barrier hands out a sequence's ops in index order and orders them: an
// exclusive op (ingest, compaction) starts only after every earlier op
// has completed, and a query starts only after every earlier exclusive
// op has completed. Queries between two writes run concurrently.
type barrier struct {
	mu       sync.Mutex
	cond     *sync.Cond
	seq      sequence
	next     int
	limit    int // ops to hand out at most, 0 = unbounded
	stopped  bool
	held     bool // paused: hand out nothing until resume
	prefix   int  // every op below prefix has completed
	done     map[int]bool
	lastExcl int // latest exclusive op handed out, -1 if none
}

func newBarrier(seq sequence, limit int) *barrier {
	b := &barrier{seq: seq, limit: limit, done: map[int]bool{}, lastExcl: -1}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// take returns the next op once it may start; ok is false after stop or
// once the limit is reached.
func (b *barrier) take() (i int, o op, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for b.held && !b.stopped {
		b.cond.Wait()
	}
	if b.stopped || (b.limit > 0 && b.next >= b.limit) {
		return -1, op{}, false
	}
	i = b.next
	b.next++
	o = b.seq.next()
	if o.kind != opQuery {
		b.lastExcl = i
		for b.prefix < i {
			b.cond.Wait()
		}
		return i, o, true
	}
	for w := b.lastExcl; w >= 0 && b.prefix <= w; {
		b.cond.Wait()
	}
	return i, o, true
}

// finish marks op i complete.
func (b *barrier) finish(i int) {
	b.mu.Lock()
	b.done[i] = true
	for b.done[b.prefix] {
		delete(b.done, b.prefix)
		b.prefix++
	}
	b.mu.Unlock()
	b.cond.Broadcast()
}

// stop hands out no more ops; those already handed out still complete.
func (b *barrier) stop() {
	b.mu.Lock()
	b.stopped = true
	b.mu.Unlock()
	b.cond.Broadcast()
}

// pause hands out no more ops until resume, and returns once every op
// handed out has completed.
func (b *barrier) pause() {
	b.mu.Lock()
	b.held = true
	for b.prefix < b.next {
		b.cond.Wait()
	}
	b.mu.Unlock()
}

func (b *barrier) resume() {
	b.mu.Lock()
	b.held = false
	b.mu.Unlock()
	b.cond.Broadcast()
}

// outcome is what one op produced.
type outcome struct {
	err    error   // the op failed (transport, status or execution)
	bad    error   // the op answered wrongly
	lat    float64 // ms, client send to reply
	cost   float64 // Usage.CritCost of a query, simulated seconds
	digest uint64
	probes int // -1 when the path does not report it

	// HTTP replies only.
	queuedMs, elapsedMs float64
	// Direct path only, per layer.
	parseUs, prepMs, runMs float64
	rounds, batches        int
	// Ingest only: replica broadcasts still draining at the ack.
	pending int
}

// executor runs one op on one path (HTTP or direct).
type executor interface {
	run(ctx context.Context, i int, o op) outcome
}

// winRec is one op of the deterministic window.
type winRec struct {
	done   bool
	query  bool
	cost   int64 // simulated nanoseconds (simNs)
	digest uint64
	probes int
}

// simNs quantizes a simulated cost to whole nanoseconds, so sums of
// costs do not depend on the order they are added in.
func simNs(seconds float64) int64 { return int64(math.Round(seconds * 1e9)) }

// epochCosts sums the window's query costs between exclusive ops. With
// version-keyed caches, which of two concurrent queries pays a shared
// miss depends on timing, but what an epoch pays in all does not.
func (p *phase) epochCosts() []int64 {
	sums := []int64{0}
	for _, w := range p.win {
		if !w.query {
			sums = append(sums, 0)
			continue
		}
		sums[len(sums)-1] += w.cost
	}
	return sums
}

// phase is one timed closed-loop run over a fresh stack.
type phase struct {
	mode    string
	elapsed time.Duration
	use     usage

	queries, queriesOK, writes, writesOK int
	bad                                  []string
	lat, ack                             []float64 // ms; failures as +Inf
	queuedMs, httpMs                     []float64
	parseUs, prepMs, runMs               []float64
	probes, rounds, batches, directOK    int
	compactMs, writePending              []float64
	win                                  []winRec
	ops                                  []string // op sequence, when recorded
	interludeErr                         error
}

func (p *phase) failed() int {
	return (p.queries - p.queriesOK) + (p.writes - p.writesOK)
}

func (p *phase) completedOps() int { return p.queriesOK + p.writesOK }

// qps is successful queries per second of the timed phase.
func (p *phase) qps() float64 { return float64(p.queriesOK) / p.elapsed.Seconds() }

// simCostMs is the mean Usage.CritCost of the window's queries, in ms.
func (p *phase) simCostMs() float64 {
	var sum int64
	n := 0
	for _, w := range p.win {
		if w.query {
			sum += w.cost
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / 1e6 / float64(n)
}

// windowComplete reports whether every op of the window completed.
func (p *phase) windowComplete() bool {
	for _, w := range p.win {
		if !w.done {
			return false
		}
	}
	return true
}

// interludes is work run at evenly spaced points of a timed phase while
// the closed loop is paused: no op is in flight while one runs, and its
// wall time and resource use are left out of the phase's.
type interludes struct {
	n   int
	run func() error
}

// runLoop drives ex with clients closed-loop clients over seq for dur of
// loop time (or maxOps ops), pausing for each of il's interludes (il may
// be nil), and records the first window ops for the determinism metrics.
// Writes and compactions are ordered by the barrier.
func runLoop(mode string, ex executor, seq sequence, dur time.Duration, maxOps, window int, recordOps bool, il *interludes) *phase {
	p := &phase{mode: mode, win: make([]winRec, window)}
	b := newBarrier(seq, maxOps)
	var mu sync.Mutex
	ctx := context.Background()
	before := readUsage()
	start := time.Now()
	var paused time.Duration
	var pausedUse usage
	clientsDone, ctrlDone := make(chan struct{}), make(chan struct{})
	go func() { // the controller: interludes, then the end of the phase
		defer close(ctrlDone)
		n := 0
		if il != nil {
			n = il.n
		}
		for k := 0; ; k++ {
			t := time.NewTimer(dur / time.Duration(n+1))
			select {
			case <-clientsDone:
				t.Stop()
				return
			case <-t.C:
			}
			if k == n {
				b.stop()
				return
			}
			b.pause()
			t0, u0 := time.Now(), readUsage()
			err := il.run()
			paused += time.Since(t0)
			pausedUse = pausedUse.add(readUsage().sub(u0))
			b.resume()
			if err != nil {
				p.interludeErr = err
				b.stop()
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, o, ok := b.take()
				if !ok {
					return
				}
				out := ex.run(ctx, i, o)
				b.finish(i)
				mu.Lock()
				p.record(i, o, out, recordOps)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	close(clientsDone)
	<-ctrlDone
	p.elapsed = time.Since(start) - paused
	p.use = readUsage().sub(before).sub(pausedUse)
	if recordOps {
		sort.Slice(p.ops, func(a, b int) bool { return p.ops[a] < p.ops[b] })
	}
	return p
}

func (p *phase) record(i int, o op, out outcome, recordOps bool) {
	if recordOps {
		p.ops = append(p.ops, fmt.Sprintf("%08d %s", i, o))
	}
	if out.bad != nil && len(p.bad) < 8 {
		p.bad = append(p.bad, fmt.Sprintf("op %d (%s): %v", i, o, out.bad))
	}
	lat := out.lat
	if out.err != nil {
		lat = math.Inf(1)
		if len(p.bad) < 8 {
			p.bad = append(p.bad, fmt.Sprintf("op %d failed: %v", i, out.err))
		}
	}
	switch o.kind {
	case opCompact:
		if out.err == nil {
			p.compactMs = append(p.compactMs, out.lat)
		}
	case opIngest:
		p.writes++
		p.ack = append(p.ack, lat)
		if out.err == nil {
			p.writesOK++
			p.writePending = append(p.writePending, float64(out.pending))
		}
	default:
		p.queries++
		p.lat = append(p.lat, lat)
		if out.err != nil {
			break
		}
		p.queriesOK++
		if out.probes >= 0 {
			p.directOK++
			p.probes += out.probes
			p.rounds += out.rounds
			p.batches += out.batches
			p.parseUs = append(p.parseUs, out.parseUs)
			p.prepMs = append(p.prepMs, out.prepMs)
			p.runMs = append(p.runMs, out.runMs)
		} else {
			p.queuedMs = append(p.queuedMs, out.queuedMs)
			p.httpMs = append(p.httpMs, out.lat-out.queuedMs-out.elapsedMs)
		}
	}
	if i < len(p.win) && out.err == nil {
		p.win[i] = winRec{done: true, query: o.kind == opQuery, cost: simNs(out.cost), digest: out.digest, probes: out.probes}
	}
}

// rowsDigest is an order-insensitive digest of result rows.
func rowsDigest(rows [][]string) uint64 {
	lines := make([]string, len(rows))
	for i, r := range rows {
		lines[i] = strings.Join(r, "\x1f")
	}
	sort.Strings(lines)
	h := fnv.New64a()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

// refs are the expected answers of a workload's distinct queries.
type refs struct {
	digest []uint64  // from exec.NaiveQuery on the unpartitioned index
	cost   []float64 // CritCost of the reference pass after warm-up
}

// verify checks one query's answer: against the oracle digest and the
// reference cost for a distinct query, against the read-your-writes
// expectation for an ingest_mix query.
func verify(r *refs, o op, rows [][]string, digest uint64, cost float64) error {
	if o.q >= 0 && r != nil {
		if digest != r.digest[o.q] {
			return fmt.Errorf("result digest %016x, oracle %016x (%d rows)", digest, r.digest[o.q], len(rows))
		}
		if r.cost != nil && simNs(cost) != simNs(r.cost[o.q]) {
			return fmt.Errorf("simulated cost %.6gs, reference %.6gs", cost, r.cost[o.q])
		}
	}
	if c := o.check; c != nil {
		seen := map[string]bool{}
		for _, row := range rows {
			seen[row[len(row)-1]] = true
		}
		for _, id := range c.present {
			if !seen[id] {
				return fmt.Errorf("acked put %s missing", id)
			}
		}
		for _, id := range c.absent {
			if seen[id] {
				return fmt.Errorf("acked delete %s still visible", id)
			}
		}
		if c.exact && len(seen) != len(c.present) {
			return fmt.Errorf("read-back returned %d docs, want %d", len(seen), len(c.present))
		}
	}
	return nil
}

// httpExec drives queryd's surface: POST /query and POST /ingest.
type httpExec struct {
	st   *stack
	refs *refs
	c    *http.Client
}

func newHTTPExec(st *stack, r *refs) *httpExec {
	return &httpExec{st: st, refs: r, c: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: clients * 2, DisableCompression: true}}}
}

func (h *httpExec) close() { h.c.CloseIdleConnections() }

// queryReply is the part of gateway.Response the benchmark reads.
type queryReply struct {
	Rows    [][]string       `json:"rows"`
	Usage   texservice.Usage `json:"usage"`
	Queued  int64            `json:"queued_ns"`
	Elapsed int64            `json:"elapsed_ns"`
}

func (h *httpExec) post(path string, body []byte, v interface{}) error {
	resp, err := h.c.Post(h.st.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return json.Unmarshal(b, v)
}

func (h *httpExec) run(ctx context.Context, i int, o op) outcome {
	start := time.Now()
	switch o.kind {
	case opCompact:
		err := h.st.compact(ctx)
		return outcome{err: err, lat: ms(time.Since(start)), probes: -1}
	case opIngest:
		body, err := json.Marshal(gateway.IngestRequest{Source: "mercury", Ops: o.ingest})
		if err != nil {
			return outcome{err: err, probes: -1}
		}
		var ack gateway.IngestResponse
		err = h.post("/ingest", body, &ack)
		return outcome{err: err, lat: ms(time.Since(start)), probes: -1, pending: h.st.writePending()}
	}
	var r queryReply
	if err := h.post("/query", []byte(o.sql), &r); err != nil {
		return outcome{err: err, probes: -1}
	}
	out := outcome{lat: ms(time.Since(start)), cost: r.Usage.CritCost, digest: rowsDigest(r.Rows), probes: -1,
		queuedMs: float64(r.Queued) / 1e6, elapsedMs: float64(r.Elapsed) / 1e6}
	out.bad = verify(h.refs, o, r.Rows, out.digest, out.cost)
	return out
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// directExec calls the layers' public functions itself — sqlparse,
// Engine.PrepareContext, Prepared.RunContext, the ingest entry point the
// gateway uses — timing each call; on a traced stack the text calls
// beneath are timed by the wrappers.
type directExec struct {
	st   *stack
	refs *refs
}

func (x *directExec) run(ctx context.Context, i int, o op) outcome {
	st := x.st
	start := time.Now()
	switch o.kind {
	case opCompact:
		err := st.compact(ctx)
		return outcome{err: err, lat: ms(time.Since(start)), probes: -1}
	case opIngest:
		_, err := texservice.IngestInto(ctx, st.eng.TextService("mercury"), o.ingest)
		return outcome{err: err, lat: ms(time.Since(start)), probes: -1, pending: st.writePending()}
	}
	q, err := sqlparse.Parse(o.sql)
	if err == nil {
		_, err = sqlparse.Analyze(q, st.eng.Catalog())
	}
	if err != nil {
		return outcome{err: err, probes: -1}
	}
	parsed := time.Now()
	prep, err := st.eng.PrepareContext(ctx, o.sql)
	if err != nil {
		return outcome{err: err, probes: -1}
	}
	prepared := time.Now()
	// The per-query meter, as the gateway installs it.
	rctx := texservice.WithQueryMeter(ctx, texservice.NewMeter(texservice.DefaultCosts()))
	var sp *span
	if st.rec != nil {
		rctx, sp = st.rec.begin(st.rec.queryContext(rctx, int64(i)), "exec", "run")
	}
	res, err := prep.RunContext(rctx)
	if sp != nil {
		st.rec.end(sp)
	}
	if err != nil {
		return outcome{err: err, probes: -1}
	}
	done := time.Now()
	rows := make([][]string, len(res.Table.Rows))
	for r, row := range res.Table.Rows {
		out := make([]string, len(row))
		for j, v := range row {
			out[j] = v.Text()
		}
		rows[r] = out
	}
	parseDur := parsed.Sub(start)
	out := outcome{
		lat:     ms(done.Sub(start)),
		cost:    res.Usage.CritCost,
		digest:  rowsDigest(rows),
		probes:  res.Probes,
		rounds:  res.BatchRounds,
		batches: res.Batches,
		parseUs: float64(parseDur) / 1e3,
		// PrepareContext parses and analyzes again; its optimizer share
		// is the call minus the separately timed parse+analyze.
		prepMs: ms(prepared.Sub(parsed) - parseDur),
		runMs:  ms(done.Sub(prepared)),
	}
	out.bad = verify(x.refs, o, rows, out.digest, out.cost)
	return out
}
