package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"textjoin/internal/core"
	"textjoin/internal/gateway"
	"textjoin/internal/ingest"
	"textjoin/internal/obs"
	"textjoin/internal/replica"
	"textjoin/internal/shard"
	"textjoin/internal/telemetry"
	"textjoin/internal/texservice"
	"textjoin/internal/textidx"
)

// stack is one workload's system under test, assembled from public
// constructors the way cmd/queryd (through internal/appcfg) assembles
// it, and served over loopback HTTP by gateway.Handler.
type stack struct {
	d      *data
	eng    *core.Engine
	url    string
	fleet  *replica.Fleet
	stores []*ingest.Store
	leaves []*textidx.Index // the index each leaf serves, by leaf number
	sink   *telemetry.Sink
	traces *obs.TraceStore

	// Traced stacks only: the span recorder, the top layer's name and
	// the expressions the leaves searched.
	rec   *recorder
	top   string
	exprs *exprLog

	closers []func()
}

// Layer names of the timing wrappers.
const (
	layerLocal   = "texservice.local"
	layerLive    = "ingest.live"
	layerWire    = "wire"
	layerReplica = "replica"
	layerShard   = "shard"
)

var shortFields = []string{"title", "author", "year"}

// wrap decorates svc with a timing wrapper on a traced stack.
func (st *stack) wrap(svc texservice.Service, layer string) texservice.Service {
	if st.rec == nil {
		return svc
	}
	return &timed{inner: svc, rec: st.rec, layer: layer}
}

// wrapLeaf is wrap for a backend that evaluates searches itself; its
// expressions are kept for the textidx replay.
func (st *stack) wrapLeaf(svc texservice.Service, layer string, ix *textidx.Index) texservice.Service {
	st.leaves = append(st.leaves, ix)
	if st.rec == nil {
		return svc
	}
	return &timed{inner: svc, rec: st.rec, layer: layer, capture: st.exprs.hook(len(st.leaves) - 1)}
}

// buildStack assembles the stack for d. With traced set, timing wrappers
// sit between the text layers.
func buildStack(d *data, seed int64, traced bool) (st *stack, err error) {
	st = &stack{d: d}
	if traced {
		st.rec = newRecorder()
		st.exprs = &exprLog{max: 4000}
	}
	defer func() {
		if err != nil {
			st.close()
			st = nil
		}
	}()
	opts := core.DefaultOptions()
	opts.Seed = seed
	gcfg := gateway.Config{Workers: 8, QueueTimeout: time.Second, QueryTimeout: 30 * time.Second}
	var svc texservice.Service
	switch d.name {
	case planWarm:
		local, err := texservice.NewLocal(d.corpus.Index, texservice.WithShortFields(shortFields...))
		if err != nil {
			return nil, err
		}
		svc = st.wrapLeaf(local, layerLocal, d.corpus.Index)
		st.top = layerLocal
		// Caches far above the distinct searches of the mix: after the
		// warm-up nothing is evicted.
		opts.SearchCache, opts.ProbeCache = 1<<15, 1<<15
	case fleetProbe:
		svc, err = st.buildFleet(d, seed, false)
		if err != nil {
			return nil, err
		}
		opts.Optimizer.BatchProbe = true
		st.traces = obs.NewTraceStore(512, 10, 250*time.Millisecond)
		st.sink = telemetry.NewSink(256)
		gcfg.TraceStore, gcfg.Telemetry = st.traces, st.sink
		gcfg.ReplicaStats = st.fleet.Stats
	case ingestMix:
		svc, err = st.buildFleet(d, seed, true)
		if err != nil {
			return nil, err
		}
		// Version-keyed caches sized above one epoch's distinct
		// searches, so no entry is evicted between two writes.
		opts.SearchCache, opts.ProbeCache = 1<<13, 1<<13
		gcfg.ReplicaStats = st.fleet.Stats
	}

	st.eng = core.NewEngineWith(opts)
	for _, t := range d.tables {
		if err := st.eng.RegisterTable(t); err != nil {
			return nil, err
		}
	}
	if err := st.eng.RegisterTextSource("mercury", svc, d.corpus.Fields()...); err != nil {
		return nil, err
	}
	gw := gateway.New(st.eng, gcfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: gw.Handler()}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.Serve(ln) // returns ErrServerClosed after Shutdown
	}()
	st.closers = append(st.closers, func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		<-served
	})
	st.url = "http://" + ln.Addr().String()
	return st, nil
}

// buildFleet assembles 2 partitions × 2 replicas. Read-only fleets serve
// each replica from a texservice.Server on loopback, reached through a
// Remote (Remote → replica.Set → shard.Sharded, as appcfg.DialText
// wires pipe-grouped endpoints). Live fleets are in-process ingest.Live
// stores (memory-only, no WAL, compaction only when the sequence calls
// it), composed as appcfg's -live -replicas -partitions path does.
func (st *stack) buildFleet(d *data, seed int64, live bool) (texservice.Service, error) {
	const partitions, replicas = 2, 2
	parts, err := d.corpus.Index.Partition(partitions)
	if err != nil {
		return nil, err
	}
	groups := make([][]texservice.Service, partitions)
	for p, part := range parts {
		for r := 0; r < replicas; r++ {
			if live {
				store, err := ingest.Open(part, ingest.Options{ShardIndex: p, ShardCount: partitions, CompactThreshold: -1})
				if err != nil {
					return nil, err
				}
				st.stores = append(st.stores, store)
				st.closers = append(st.closers, func() { _ = store.Close() })
				leaf := st.wrapLeaf(ingest.NewLive(store, ingest.WithShortFields(shortFields...)), layerLive, part)
				groups[p] = append(groups[p], leaf)
				continue
			}
			local, err := texservice.NewLocal(part, texservice.WithShortFields(shortFields...))
			if err != nil {
				return nil, err
			}
			srv := texservice.NewServer(st.wrapLeaf(local, layerLocal, part))
			srv.Logf = func(string, ...interface{}) {}
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			st.closers = append(st.closers, func() { _ = srv.Close() })
			remote, err := texservice.Dial(addr, nil, texservice.WithPoolSize(texservice.DefaultPoolSize))
			if err != nil {
				return nil, fmt.Errorf("dialing replica %d of partition %d: %w", r, p, err)
			}
			st.closers = append(st.closers, func() { _ = remote.Close() })
			groups[p] = append(groups[p], st.wrap(remote, layerWire))
		}
	}
	fleet, err := replica.NewFleet(groups, replica.WithSeed(seed))
	if err != nil {
		return nil, err
	}
	st.fleet = fleet
	legs := make([]texservice.Service, partitions)
	for p, set := range fleet.Services() {
		legs[p] = st.wrap(set, layerReplica)
	}
	sh, err := shard.New(legs)
	if err != nil {
		return nil, err
	}
	st.top = layerShard
	return st.wrap(sh, layerShard), nil
}

// close stops the HTTP server, then the text stack, in reverse order of
// construction.
func (st *stack) close() {
	for i := len(st.closers) - 1; i >= 0; i-- {
		st.closers[i]()
	}
	st.closers = nil
}

// caches finds the engine's search and probe caches, if configured.
func (st *stack) caches() (*texservice.Cached, *texservice.ProbeCache) {
	var c *texservice.Cached
	var p *texservice.ProbeCache
	svc := st.eng.TextService("mercury")
	for svc != nil {
		switch s := svc.(type) {
		case *texservice.ProbeCache:
			p = s
			svc = s.Unwrap()
		case *texservice.Cached:
			c = s
			svc = s.Unwrap()
		default:
			svc = nil
		}
	}
	return c, p
}

// cacheStats sums hits, misses and invalidations of both caches.
type cacheStats struct {
	hits, misses, phits, pmisses, invals int
}

func (st *stack) cacheStats() cacheStats {
	var cs cacheStats
	c, p := st.caches()
	if c != nil {
		cs.hits, cs.misses = c.Stats()
		cs.invals += c.Invalidations()
	}
	if p != nil {
		cs.phits, cs.pmisses = p.Stats()
		cs.invals += p.Invalidations()
	}
	return cs
}

// compact folds every store's delta into its base, store by store.
func (st *stack) compact(ctx context.Context) error {
	for i, s := range st.stores {
		if err := s.Compact(ctx); err != nil {
			return fmt.Errorf("compacting store %d: %w", i, err)
		}
	}
	return nil
}

func (st *stack) deltaLen() int {
	n := 0
	for _, s := range st.stores {
		n += s.DeltaLen()
	}
	return n
}

// writePending is the fleet's count of broadcast writes still draining
// to replicas after their quorum ack.
func (st *stack) writePending() int {
	if st.fleet == nil {
		return 0
	}
	return st.fleet.Stats().WritePending
}
