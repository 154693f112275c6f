package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/drdp/drdp/internal/cluster"
	"github.com/drdp/drdp/internal/dpprior"
	"github.com/drdp/drdp/internal/dro"
	"github.com/drdp/drdp/internal/edge"
	"github.com/drdp/drdp/internal/model"
	"github.com/drdp/drdp/internal/trace"
)

const (
	// coldEvery makes every n-th round of a device a reboot: a fresh
	// client with cold shard caches fetches the full prior.
	coldEvery = 10
	// minAccuracy is the quality guard: the mean held-out accuracy of
	// the device models must reach it (seeded tasks reach ~0.9).
	minAccuracy = 0.75
	testSamples = 200
)

// rounds is the device-rounds workload: two devices in closed loops,
// each round refresh → TrainWithPrior → LaplacePosterior → ReportTask.
type rounds struct {
	e    *env
	devs []*device

	mu  sync.Mutex
	acc samples
}

type device struct {
	id  int
	sc  *cluster.ShardedClient
	dev edge.Device
	rng *rand.Rand
	n   int
}

func newRounds(e *env) (*rounds, error) {
	r := &rounds{e: e}
	for i := 0; i < 2; i++ {
		r.devs = append(r.devs, &device{
			id: i,
			sc: e.t.client(e.cfg.seed + 100 + int64(i)),
			dev: edge.Device{
				ID:    i,
				Model: model.Logistic{Dim: e.shape.features},
				Set:   dro.Set{Kind: dro.Wasserstein, Rho: 0.05},
			},
			rng: rand.New(rand.NewSource(e.cfg.seed*1000 + 200 + int64(i))),
		})
	}
	return r, nil
}

func (r *rounds) close() {
	for _, d := range r.devs {
		d.sc.Close()
	}
}

func (r *rounds) warm() error {
	for _, d := range r.devs {
		for i := 0; i < 3; i++ {
			if err := r.round(d, false); err != nil {
				return err
			}
		}
	}
	return nil
}

func (r *rounds) measure(window time.Duration) {
	deadline := time.Now().Add(window)
	var wg sync.WaitGroup
	for _, d := range r.devs {
		wg.Add(1)
		go func(d *device) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				r.round(d, true)
			}
		}(d)
	}
	wg.Wait()
}

// round runs one device round; only the refresh-to-ack interval is timed.
func (r *rounds) round(d *device, record bool) error {
	e := r.e
	d.n++
	fam := e.gen.family
	task := fam.SampleTask(d.rng, -1)
	// n steps through 20..200 in a fixed order, the same for every seed:
	// fit cost grows with n, and a drawn n would move the run's mean cost.
	n := 20 + (d.n*73)%181
	train := task.Sample(d.rng, n)
	test := task.Sample(d.rng, testSamples)
	dim := e.shape.dim()

	root := e.startRoot("round")
	start := time.Now()
	if d.n%coldEvery == 0 {
		// Reboot: a new client with cold shard caches fetches in full.
		d.sc.Close()
		d.sc = e.t.client(e.cfg.seed + 1000*int64(d.n) + int64(d.id))
	}
	d.sc.SetTraceParent(root)
	defer d.sc.SetTraceParent(nil)
	prior, err := d.sc.FetchMergedPrior(dim)
	if err != nil {
		return r.fail(root, start, record, fmt.Errorf("device %d refresh: %w", d.id, err))
	}
	e.observe(d.sc)
	if root != nil {
		// TrainWithPrior compiles the prior itself; the traced run times
		// the same compile once more so core's share can be separated.
		sp := root.Child("compile")
		_, err := dpprior.Compile(prior)
		sp.EndErr(err)
	}
	sp := root.Child("fit")
	res, err := d.dev.TrainWithPrior(prior, train.X, train.Y)
	sp.EndErr(err)
	if err != nil {
		return r.fail(root, start, record, err)
	}
	sp = root.Child("laplace")
	cov, err := model.LaplacePosterior(d.dev.Model, res.Params, train.X, train.Y, 1e-3)
	sp.EndErr(err)
	if err != nil {
		return r.fail(root, start, record, fmt.Errorf("laplace: %w", err))
	}
	up := dpprior.TaskPosterior{Mu: res.Params, Sigma: cov, N: n}
	v, err := d.sc.ReportTask(up)
	ackAt := time.Now()
	if err != nil {
		e.unknownUpload(up)
		return r.fail(root, start, record, fmt.Errorf("device %d upload: %w", d.id, err))
	}
	lat := ackAt.Sub(start)
	root.End()

	shard, err := shardOf(d.sc, up)
	if err != nil {
		return r.fail(nil, start, record, err)
	}
	e.ackedUpload(up)
	e.fresh.acked(shard, v, ackAt, 1)
	acc := model.Accuracy(d.dev.Model, res.Params, test.X, test.Y)
	if record {
		e.ops.record(lat, root != nil, nil)
		r.mu.Lock()
		r.acc.add(acc)
		r.mu.Unlock()
		if root != nil {
			e.wire.sample(prior, v, []dpprior.TaskPosterior{up}, false)
		}
	}
	return nil
}

func (r *rounds) fail(root *trace.Span, start time.Time, record bool, err error) error {
	root.EndErr(err)
	if record {
		r.e.ops.record(time.Since(start), root != nil, err)
	}
	return err
}

func shardOf(sc *cluster.ShardedClient, t dpprior.TaskPosterior) (int, error) {
	m, err := sc.Map()
	if err != nil {
		return 0, fmt.Errorf("shard map: %w", err)
	}
	return m.ShardOf(t.Fingerprint()), nil
}

func (r *rounds) report(lat samples, elapsed float64) {
	res := r.e.res
	rps := float64(len(lat)) / elapsed
	res.set("rounds_per_s", rps)
	res.set("throughput_per_s", rps)
	res.set("round_p50_ms", lat.quantile(0.5))
	res.set("round_p99_ms", lat.quantile(0.99))
	r.mu.Lock()
	res.set("accuracy", r.acc.mean())
	r.mu.Unlock()
}

func (r *rounds) check() []error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if acc := r.acc.mean(); !(acc >= minAccuracy) {
		return []error{fmt.Errorf("mean device accuracy %.3f below the %.2f quality floor", acc, minAccuracy)}
	}
	return nil
}
