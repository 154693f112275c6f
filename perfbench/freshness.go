package main

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// freshness pairs upload acks with the first time any client of the run
// held that shard's prior at a version covering the upload.
type freshness struct {
	counting atomic.Bool // acks count only inside the measured window

	mu    sync.Mutex
	acks  [][]stamp // per shard, in ack order
	seen  [][]stamp // per shard, strictly increasing versions
	maxOK []uint64  // per shard: highest acked version
}

type stamp struct {
	v  uint64
	at time.Time
	n  int // uploads this ack covers
}

func newFreshness(shards int) *freshness {
	return &freshness{
		acks:  make([][]stamp, shards),
		seen:  make([][]stamp, shards),
		maxOK: make([]uint64, shards),
	}
}

// acked records n uploads acked together at version v on shard s.
func (f *freshness) acked(s int, v uint64, at time.Time, n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if v > f.maxOK[s] {
		f.maxOK[s] = v
	}
	if f.counting.Load() {
		f.acks[s] = append(f.acks[s], stamp{v, at, n})
	}
}

// observe records the per-shard versions a client holds at time at.
func (f *freshness) observe(applied []uint64, at time.Time) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for s, v := range applied {
		if s >= len(f.seen) {
			break
		}
		if n := len(f.seen[s]); n == 0 || v > f.seen[s][n-1].v {
			f.seen[s] = append(f.seen[s], stamp{v: v, at: at})
		}
	}
}

// covered reports whether every shard's highest acked version was seen.
func (f *freshness) covered() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	for s, want := range f.maxOK {
		n := len(f.seen[s])
		if want > 0 && (n == 0 || f.seen[s][n-1].v < want) {
			return false
		}
	}
	return true
}

// delays returns each counted upload's freshness delay in ms; an upload
// already served when its ack returned counts 0.
func (f *freshness) delays() samples {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out samples
	for s, acks := range f.acks {
		seen := f.seen[s]
		for _, a := range acks {
			i := sort.Search(len(seen), func(i int) bool { return seen[i].v >= a.v })
			if i == len(seen) {
				continue // never served: the drain reports it
			}
			d := max(0, ms(seen[i].at.Sub(a.at)))
			for k := 0; k < a.n; k++ {
				out.add(d)
			}
		}
	}
	return out
}

func (f *freshness) quantiles() (p50, p99 float64, n int) {
	d := f.delays()
	return d.quantile(0.5), d.quantile(0.99), len(d)
}

// drainFreshness polls every shard with a fresh client until each
// shard's newest acked upload is in a served prior.
func (e *env) drainFreshness(timeout time.Duration) error {
	sc := e.t.client(e.cfg.seed + 31)
	defer sc.Close()
	deadline := time.Now().Add(timeout)
	for !e.fresh.covered() {
		if time.Now().After(deadline) {
			return fmt.Errorf("acked uploads not in a served prior after %v", timeout)
		}
		for s := 0; s < e.shape.shards; s++ {
			if _, _, err := sc.ShardPrior(s, e.shape.dim()); err != nil {
				return fmt.Errorf("drain shard %d: %w", s, err)
			}
		}
		e.observe(sc)
		time.Sleep(time.Millisecond)
	}
	return nil
}
