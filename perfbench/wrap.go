package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"textjoin/internal/texservice"
	"textjoin/internal/textidx"
)

// The traced run's spans. The benchmark records a span around each call
// it makes into a layer's public functions (a query's parse, prepare and
// run) and around each call that crosses one of its timing wrappers
// (texservice.Service decorators placed between the layers of the text
// stack). No tracing is added inside the program. Spans stay in memory
// and are written out when the run ends.

// span is one timed call.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 when the call carried no benchmark span
	Query  int64  `json:"query"`  // op index, -1 when not attributable to a query
	Layer  string `json:"layer"`
	Op     string `json:"op"`
	Start  int64  `json:"start_ns"` // since the recorder's base
	End    int64  `json:"end_ns"`
	Hits   int    `json:"hits,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder collects spans. Safe for concurrent use.
type recorder struct {
	base time.Time
	ids  atomic.Int64
	mu   sync.Mutex
	all  []span
}

func newRecorder() *recorder { return &recorder{base: time.Now(), all: make([]span, 0, 1<<16)} }

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.all = append(r.all, s)
	r.mu.Unlock()
}

func (r *recorder) spans() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.all...)
}

// writeFile writes every span as one JSON line.
func (r *recorder) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanKey carries the enclosing benchmark span through a context.
type spanKey struct{}

type spanRef struct {
	rec   *recorder
	id    int64
	query int64
}

// begin opens a span under ctx's enclosing span (if any) and returns the
// context its callees should see.
func (r *recorder) begin(ctx context.Context, layer, op string) (context.Context, *span) {
	s := &span{ID: r.ids.Add(1), Query: -1, Layer: layer, Op: op}
	if ref, ok := ctx.Value(spanKey{}).(spanRef); ok && ref.rec == r {
		s.Parent, s.Query = ref.id, ref.query
	}
	s.Start = r.now()
	return context.WithValue(ctx, spanKey{}, spanRef{rec: r, id: s.ID, query: s.Query}), s
}

// queryContext roots the spans of op index q.
func (r *recorder) queryContext(ctx context.Context, q int64) context.Context {
	return context.WithValue(ctx, spanKey{}, spanRef{rec: r, id: 0, query: q})
}

func (r *recorder) end(s *span) {
	s.End = r.now()
	r.add(*s)
}

// timed decorates a texservice.Service with spans. It forwards the
// Service methods and all six optional capabilities (BatchSearcher,
// StatsProvider, Ingestor, Versioned, SnapshotPinner, PinProber): a
// capability it dropped would silently change plans, which the traced
// run's equality check against the untraced run would report.
type timed struct {
	inner texservice.Service
	rec   *recorder
	layer string
	// capture, when set, receives each searched expression (leaves only:
	// the textidx replay re-evaluates them).
	capture func(e textidx.Expr, form texservice.Form)
}

var (
	errNoBatch = errors.New("perfbench: wrapped service does not support batched invocation")
	errNoStats = errors.New("perfbench: wrapped service does not export statistics")
)

func (t *timed) Search(ctx context.Context, e textidx.Expr, form texservice.Form) (*texservice.Result, error) {
	if t.capture != nil {
		t.capture(e, form)
	}
	ctx, s := t.rec.begin(ctx, t.layer, "search")
	res, err := t.inner.Search(ctx, e, form)
	if res != nil {
		s.Hits = len(res.Hits)
	}
	t.rec.end(s)
	return res, err
}

func (t *timed) Retrieve(ctx context.Context, id textidx.DocID) (textidx.Document, error) {
	ctx, s := t.rec.begin(ctx, t.layer, "retrieve")
	doc, err := t.inner.Retrieve(ctx, id)
	t.rec.end(s)
	return doc, err
}

func (t *timed) BatchSearch(ctx context.Context, exprs []textidx.Expr, form texservice.Form) ([]*texservice.Result, error) {
	b, ok := t.inner.(texservice.BatchSearcher)
	if !ok {
		return nil, errNoBatch
	}
	if t.capture != nil {
		for _, e := range exprs {
			t.capture(e, form)
		}
	}
	ctx, s := t.rec.begin(ctx, t.layer, "batch")
	res, err := b.BatchSearch(ctx, exprs, form)
	for _, r := range res {
		if r != nil {
			s.Hits += len(r.Hits)
		}
	}
	t.rec.end(s)
	return res, err
}

func (t *timed) TermDocFrequency(ctx context.Context, field, term string) (int, error) {
	p, ok := t.inner.(texservice.StatsProvider)
	if !ok {
		return 0, errNoStats
	}
	ctx, s := t.rec.begin(ctx, t.layer, "stats")
	n, err := p.TermDocFrequency(ctx, field, term)
	t.rec.end(s)
	return n, err
}

func (t *timed) Ingest(ctx context.Context, ops []texservice.IngestOp) (*texservice.IngestResult, error) {
	ctx, s := t.rec.begin(ctx, t.layer, "ingest")
	res, err := texservice.IngestInto(ctx, t.inner, ops)
	t.rec.end(s)
	return res, err
}

func (t *timed) IndexVersion(ctx context.Context) (uint64, error) {
	v, ok := t.inner.(texservice.Versioned)
	if !ok {
		return 0, texservice.ErrNoIngest
	}
	return v.IndexVersion(ctx)
}

func (t *timed) PinSnapshot(ctx context.Context) context.Context {
	return texservice.PinSnapshot(ctx, t.inner)
}

func (t *timed) SnapshotPinned(ctx context.Context) bool {
	return texservice.SnapshotPinned(ctx, t.inner)
}

func (t *timed) NumDocs() (int, error)      { return t.inner.NumDocs() }
func (t *timed) MaxTerms() int              { return t.inner.MaxTerms() }
func (t *timed) ShortFields() []string      { return t.inner.ShortFields() }
func (t *timed) Meter() *texservice.Meter   { return t.inner.Meter() }
func (t *timed) Unwrap() texservice.Service { return t.inner }

var (
	_ texservice.Service        = (*timed)(nil)
	_ texservice.BatchSearcher  = (*timed)(nil)
	_ texservice.StatsProvider  = (*timed)(nil)
	_ texservice.Ingestor       = (*timed)(nil)
	_ texservice.Versioned      = (*timed)(nil)
	_ texservice.SnapshotPinner = (*timed)(nil)
	_ texservice.PinProber      = (*timed)(nil)
)

// exprLog keeps the first max expressions the leaves searched, with the
// leaf that searched them, for the textidx replay.
type exprLog struct {
	max int
	mu  sync.Mutex
	all []loggedExpr
}

type loggedExpr struct {
	leaf int
	e    textidx.Expr
	form texservice.Form
}

func (l *exprLog) hook(leaf int) func(textidx.Expr, texservice.Form) {
	return func(e textidx.Expr, form texservice.Form) {
		l.mu.Lock()
		if len(l.all) < l.max {
			l.all = append(l.all, loggedExpr{leaf: leaf, e: e, form: form})
		}
		l.mu.Unlock()
	}
}

func (l *exprLog) exprs() []loggedExpr {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]loggedExpr(nil), l.all...)
}

// reset drops every span recorded so far (the warm-up's).
func (r *recorder) reset() {
	r.mu.Lock()
	r.all = r.all[:0]
	r.mu.Unlock()
}

// reset drops the expressions logged so far.
func (l *exprLog) reset() {
	l.mu.Lock()
	l.all = nil
	l.mu.Unlock()
}
