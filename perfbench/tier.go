package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/drdp/drdp/internal/cluster"
	"github.com/drdp/drdp/internal/data"
	"github.com/drdp/drdp/internal/dpprior"
	"github.com/drdp/drdp/internal/edge"
	"github.com/drdp/drdp/internal/mat"
	"github.com/drdp/drdp/internal/store"
	"github.com/drdp/drdp/internal/telemetry"
)

// shape sizes one workload's tier and inputs.
type shape struct {
	shards, replicas int
	features         int // logistic input dim; task posteriors have features+1 params
	clusters         int
	preload          int  // resident tasks uploaded during set-up
	quarantine       bool // admission judge on
	setups           int  // set-ups per run; setup_s is their median
}

func (s shape) dim() int { return s.features + 1 }

// shapes are the full-size workloads; small() shrinks them for tests.
var shapes = map[string]shape{
	wRounds:  {shards: 1, replicas: 2, features: 10, clusters: 3, preload: 36, setups: 21},
	wIngest:  {shards: 3, replicas: 2, features: 10, clusters: 4, preload: 2000, quarantine: true, setups: 11},
	wRefresh: {shards: 3, replicas: 2, features: 40, clusters: 8, preload: 240, setups: 15},
}

func (s shape) small() shape {
	s.preload = s.preload / 10
	if s.preload < 12 {
		s.preload = 12
	}
	s.setups = 1
	return s
}

// posteriors draws seeded task posteriors around tasks of one family:
// the means are the tasks' true logistic parameters plus noise, the
// covariances isotropic at the scale a ~100-sample fit gives.
type posteriors struct {
	family *data.TaskFamily
	rng    *rand.Rand
	dim    int
	n      int
}

func newPosteriors(seed int64, s shape) (*posteriors, error) {
	rng := rand.New(rand.NewSource(seed))
	if s.clusters > s.features {
		return nil, fmt.Errorf("task family: %d clusters need at least as many features, got %d", s.clusters, s.features)
	}
	fam := &data.TaskFamily{Within: 0.3, Flip: 0.05}
	// Orthogonal cluster centers of one norm: every seed gives the same
	// geometry up to a rotation, so fit and build costs do not depend on
	// how close two random centers happened to fall.
	for len(fam.Centers) < s.clusters {
		v := make(mat.Vec, s.features)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		for _, c := range fam.Centers {
			mat.Axpy(-mat.Dot(v, c)/mat.Dot(c, c), c, v)
		}
		if n := mat.Norm2(v); n > 1e-6 {
			mat.Scale(centerNorm/n, v)
			fam.Centers = append(fam.Centers, v)
		}
	}
	return &posteriors{family: fam, rng: rng, dim: s.dim()}, nil
}

// centerNorm is the norm of every cluster's true weight vector: large
// enough that the clusters separate into one prior component each.
const centerNorm = 6

// next cycles through the clusters, so every seed gives the same
// cluster sizes and the built priors the same shape.
func (p *posteriors) next() dpprior.TaskPosterior {
	task := p.family.SampleTask(p.rng, p.n%len(p.family.Centers))
	p.n++
	mu := task.Params()
	for i := range mu {
		mu[i] += 0.1 * p.rng.NormFloat64()
	}
	sigma := mat.Eye(p.dim)
	sigma.ScaleBy(0.03 + 0.04*p.rng.Float64())
	return dpprior.TaskPosterior{Mu: mu, Sigma: sigma, N: 50 + p.rng.Intn(150)}
}

func (p *posteriors) batch(n int) []dpprior.TaskPosterior {
	out := make([]dpprior.TaskPosterior, n)
	for i := range out {
		out[i] = p.next()
	}
	return out
}

// countFS is a pass-through store.FS that counts what a node's store
// does to disk: Sync calls, bytes written and snapshot install time
// (temp-file create to rename). Installed only on traced runs.
type countFS struct {
	base   store.FS
	c      *diskCounters
	mu     sync.Mutex
	snapAt map[string]time.Time
}

type diskCounters struct {
	syncs, writeBytes, snapshots, snapNanos atomic.Int64
}

func (f *countFS) MkdirAll(path string, perm os.FileMode) error { return f.base.MkdirAll(path, perm) }
func (f *countFS) Remove(name string) error                     { return f.base.Remove(name) }

func (f *countFS) OpenFile(name string, flag int, perm os.FileMode) (store.File, error) {
	file, err := f.base.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return countFile{file, f.c}, nil
}

func (f *countFS) CreateTemp(dir, pattern string) (store.File, error) {
	file, err := f.base.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	f.snapAt[file.Name()] = time.Now()
	f.mu.Unlock()
	return countFile{file, f.c}, nil
}

func (f *countFS) Rename(oldpath, newpath string) error {
	err := f.base.Rename(oldpath, newpath)
	f.mu.Lock()
	start, ok := f.snapAt[oldpath]
	delete(f.snapAt, oldpath)
	f.mu.Unlock()
	if ok && err == nil {
		f.c.snapshots.Add(1)
		f.c.snapNanos.Add(int64(time.Since(start)))
	}
	return err
}

type countFile struct {
	store.File
	c *diskCounters
}

func (f countFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.c.writeBytes.Add(int64(n))
	return n, err
}

func (f countFile) Sync() error {
	f.c.syncs.Add(1)
	return f.File.Sync()
}

// tier is one running cluster plus what the run needs to check it.
type tier struct {
	cl    *cluster.Cluster
	dir   string
	shape shape
	disk  *diskCounters // nil on untimed-disk runs
	ropts edge.ResilientOptions
}

// startTier launches the cluster under dir, preloads it through the
// public batch-upload path and waits for the first quiesce. The
// preloaded tasks are returned as acked uploads.
func startTier(dir string, s shape, seed, nodeSeed int64, countDisk bool, gen *posteriors) (*tier, []dpprior.TaskPosterior, error) {
	t := &tier{dir: dir, shape: s, ropts: edge.ResilientOptions{
		Retry:            edge.RetryPolicy{MaxAttempts: 3, Base: 5 * time.Millisecond, Max: 100 * time.Millisecond, Multiplier: 2, Jitter: 0.2},
		DialTimeout:      2 * time.Second,
		RoundTripTimeout: 10 * time.Second,
		Seed:             seed + 7,
		Logger:           telemetry.Discard(),
	}}
	cfg := cluster.Config{
		Shards:   s.shards,
		Replicas: s.replicas,
		Dir:      dir,
		// Truncating the DP at the family's cluster count folds the few
		// stray components that poor small-n device fits would open into
		// the base measure, so the prior's size, and with it fit and fetch
		// cost, is the same for every seed.
		Build:        dpprior.BuildOptions{Alpha: 1, Seed: seed + 1, MaxComponents: s.clusters},
		SyncReplicas: 1,
		Seed:         nodeSeed,
		Admission:    edge.AdmissionConfig{Quarantine: s.quarantine},
		Logger:       telemetry.Discard(),
	}
	if countDisk {
		t.disk = &diskCounters{}
		cfg.NodeFS = func(int, int) store.FS {
			return &countFS{base: store.OSFS(), c: t.disk, snapAt: map[string]time.Time{}}
		}
	}
	cl, err := cluster.Start(cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("start cluster: %w", err)
	}
	t.cl = cl
	sc := t.client(seed + 11)
	defer sc.Close()
	var acked []dpprior.TaskPosterior
	// Large batches keep set-up time on CPU work (admission, builds)
	// rather than on the count of sequential fsyncs and semi-sync acks,
	// which the host's disk load moves.
	const chunk = 2000
	for len(acked) < s.preload {
		n := min(chunk, s.preload-len(acked))
		b := gen.batch(n)
		done, err := sc.BatchReportTasks(b)
		if err == nil && done != len(b) {
			err = fmt.Errorf("%d of %d tasks acked", done, len(b))
		}
		if err != nil {
			t.close()
			return nil, nil, fmt.Errorf("preload: %w", err)
		}
		acked = append(acked, b...)
	}
	if !cl.Quiesce(60 * time.Second) {
		t.close()
		return nil, nil, fmt.Errorf("preload: tier did not quiesce")
	}
	return t, acked, nil
}

// client dials a fresh sharded client (cold map, cold prior caches).
func (t *tier) client(seed int64) *cluster.ShardedClient {
	o := t.ropts
	o.Seed = seed
	return cluster.DialSharded(t.cl.CoordinatorAddr(), o)
}

// leaderVersion is shard s's leader store version.
func (t *tier) leaderVersion(s int) uint64 {
	if n := t.cl.LeaderOf(s); n != nil {
		return n.Server().Store().Version()
	}
	return 0
}

func (t *tier) close() {
	if t.cl != nil {
		t.cl.Close()
	}
	os.RemoveAll(t.dir)
}

// setUp sets the tier up s.setups times and reports each set-up's
// time. Only the last tier is kept; the earlier ones are closed at once,
// so the kept tier runs alone.
func setUp(root string, s shape, seed int64, countDisk bool) (*tier, []dpprior.TaskPosterior, *posteriors, samples, error) {
	var times samples
	for i := 0; ; i++ {
		last := i+1 >= s.setups
		gen, err := newPosteriors(seed, s)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		dir := filepath.Join(root, fmt.Sprintf("tier-%d", i))
		start := time.Now()
		// Each set-up draws the nodes' seeded start-up jitter afresh (it
		// delays a follower's first pull, and so the preload's semi-sync
		// ack), so the median covers the jitter instead of repeating one
		// draw. The workload's inputs depend on seed alone.
		t, acked, err := startTier(dir, s, seed, seed*int64(s.setups)+int64(i), countDisk && last, gen)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		times.add(time.Since(start).Seconds())
		if last {
			return t, acked, gen, times, nil
		}
		t.close()
	}
}
