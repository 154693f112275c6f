package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/drdp/drdp/internal/cluster"
	"github.com/drdp/drdp/internal/dpprior"
)

const (
	// uploadShare of prior-refresh ops are uploads: they move the shard
	// versions, so warm refreshes mix not-modified, delta and full. Each
	// upload sets off a rebuild on two replicas; the share is small so
	// that rebuilds stay off the cores the read path runs on. At 2% or
	// 0.5% they took a third or more of the CPU, and refresh p99 rested
	// on refreshes that waited behind a rebuild, which swung between runs
	// with the host's load.
	uploadShare = 0.0005
	// coldShare of refreshes come from a cold client (a rebooted device).
	coldShare = 0.1
)

// refresh is the prior-refresh workload: two readers in closed loops,
// each op a merged-prior refresh from a warm client with hedged reads.
type refresh struct {
	e       *env
	readers []*reader
}

type reader struct {
	id  int
	sc  *cluster.ShardedClient
	rng *rand.Rand
	n   int
}

func (f *refresh) hedged(seed int64) *cluster.ShardedClient {
	sc := f.e.t.client(seed)
	sc.SetHedge(cluster.HedgeConfig{}) // adaptive delay
	return sc
}

func newRefresh(e *env) (*refresh, error) {
	f := &refresh{e: e}
	for i := 0; i < 2; i++ {
		f.readers = append(f.readers, &reader{
			id:  i,
			sc:  f.hedged(e.cfg.seed + 500 + int64(i)),
			rng: rand.New(rand.NewSource(e.cfg.seed*1000 + 600 + int64(i))),
		})
	}
	return f, nil
}

func (f *refresh) close() {
	for _, r := range f.readers {
		r.sc.Close()
	}
}

func (f *refresh) warm() error {
	for _, r := range f.readers {
		for i := 0; i < 5; i++ {
			if err := f.op(r, false); err != nil {
				return err
			}
		}
	}
	return nil
}

func (f *refresh) measure(window time.Duration) {
	deadline := time.Now().Add(window)
	var wg sync.WaitGroup
	for _, r := range f.readers {
		wg.Add(1)
		go func(r *reader) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				f.op(r, true)
			}
		}(r)
	}
	wg.Wait()
}

func (f *refresh) op(r *reader, record bool) error {
	e := f.e
	r.n++
	u := r.rng.Float64()
	if u < uploadShare {
		e.mu.Lock()
		task := e.gen.next()
		e.mu.Unlock()
		root := e.startRoot("report")
		r.sc.SetTraceParent(root)
		v, err := r.sc.ReportTask(task)
		at := time.Now()
		r.sc.SetTraceParent(nil)
		root.EndErr(err)
		if record {
			e.side(err)
		}
		if err != nil {
			e.unknownUpload(task)
			return fmt.Errorf("reader %d upload: %w", r.id, err)
		}
		if record && root != nil {
			e.wire.sample(nil, 0, []dpprior.TaskPosterior{task}, false)
		}
		shard, err := shardOf(r.sc, task)
		if err != nil {
			return err
		}
		e.ackedUpload(task)
		e.fresh.acked(shard, v, at, 1)
		return nil
	}
	sc := r.sc
	cold := u < uploadShare+coldShare
	root := e.startRoot("refresh")
	start := time.Now()
	if cold {
		sc = f.hedged(e.cfg.seed*1000 + 700 + int64(r.n*2+r.id))
		defer sc.Close()
	}
	sc.SetTraceParent(root)
	p, err := sc.FetchMergedPrior(e.shape.dim())
	lat := time.Since(start)
	sc.SetTraceParent(nil)
	root.EndErr(err)
	if record {
		e.ops.record(lat, root != nil, err)
	}
	if err != nil {
		return fmt.Errorf("reader %d refresh: %w", r.id, err)
	}
	e.observe(sc)
	if record && root != nil {
		e.wire.sample(p, 0, nil, false)
	}
	return nil
}

func (f *refresh) report(lat samples, elapsed float64) {
	res := f.e.res
	res.set("refresh_p50_ms", lat.quantile(0.5))
	res.set("refresh_p99_ms", lat.quantile(0.99))
	res.set("throughput_per_s", float64(len(lat))/elapsed)
}

// check: after the final quiesce, a warm reader's delta-maintained
// merged prior equals a cold client's merged prior at the same shard
// versions, byte for byte.
func (f *refresh) check() []error {
	e := f.e
	warm := f.readers[0].sc
	pw, err := warm.FetchMergedPrior(e.shape.dim())
	if err != nil {
		return []error{fmt.Errorf("warm merged prior: %w", err)}
	}
	cold := e.t.client(e.cfg.seed + 800)
	defer cold.Close()
	pc, err := cold.FetchMergedPrior(e.shape.dim())
	if err != nil {
		return []error{fmt.Errorf("cold merged prior: %w", err)}
	}
	wv, cv := warm.Applied(), cold.Applied()
	if fmt.Sprint(wv) != fmt.Sprint(cv) {
		return []error{fmt.Errorf("warm client at versions %v, cold client at %v after quiesce", wv, cv)}
	}
	if err := samePrior(pw, pc); err != nil {
		return []error{fmt.Errorf("delta-maintained merged prior differs from a cold fetch at versions %v: %w", wv, err)}
	}
	return nil
}

// samePrior reports whether two priors encode to identical bytes.
func samePrior(a, b *dpprior.Prior) error {
	var ba, bb bytes.Buffer
	if err := a.Encode(&ba); err != nil {
		return err
	}
	if err := b.Encode(&bb); err != nil {
		return err
	}
	if !bytes.Equal(ba.Bytes(), bb.Bytes()) {
		return fmt.Errorf("prior bytes differ (%d vs %d bytes)", ba.Len(), bb.Len())
	}
	return nil
}
