package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"github.com/drdp/drdp/internal/cluster"
	"github.com/drdp/drdp/internal/dpprior"
	"github.com/drdp/drdp/internal/edge"
	"github.com/drdp/drdp/internal/trace"
)

// ladder is the open loop's fixed sequence of Poisson rates, in tasks
// per second, each with its share of the run's seconds. A rung starts once the
// previous one has drained, so each rung's latencies are its own. The
// rungs up to probeAbove always play and make up the measured window, so
// every per-op metric averages over the same mix of rates whichever rung
// misses the limit. The rungs above it are probes: they play after the
// window, only while every rung so far met the limit, and feed
// max_upload_rate alone. They sit well above the measured crossing
// (500 to 900 tasks/s), so a faster program still crosses inside the
// ladder. Upload latency and freshness are measured on the nominal rung.
var ladder = []struct {
	rate, share float64
	nominal     bool
}{
	{rate: 100, share: 0.33, nominal: true},
	{rate: 200, share: 0.04},
	{rate: 400, share: 0.14},
	{rate: 800, share: 0.14},
	{rate: 1600, share: 0.08},
	{rate: 3200, share: 0.07},
}

const probeAbove = 800 // tasks/s

// After the window, the sender ships batches of batchSize tasks back to
// back for batchShare of the run's seconds. Their rate is the listed
// throughput: the ladder's crossing rests on the few slowest batches of
// two rungs and its ten-seed spread reached 0.30, while this rate averages
// over every batch and still moves with per-batch costs (fsync, acks)
// and per-task ones (admission, append, rebuild) alike.
const (
	batchSize  = 128
	batchShare = 0.2
)

// uploadLimitMs is the p99 upload latency a rung must meet to count as
// sustained; a backlog older than the limit at the rung's end fails it.
// The floor is about three semi-sync acks (one per shard, each waiting
// for a follower's 20 ms pull) plus an fsync per task on every replica.
const uploadLimitMs = 750

// abortBacklogMs ends a rung early: once the oldest unsent task is this
// old, the rung has missed the limit whatever follows, and playing the
// rest of its schedule would only stretch the run.
const abortBacklogMs = 4 * uploadLimitMs

// ingest is the ingest-durable workload: one sender ships every due
// task as one BatchReportTasks (as a gateway does) while one reader
// polls ShardPrior on every shard to observe freshness.
type ingest struct {
	e      *env
	sender *cluster.ShardedClient
	reader *cluster.ShardedClient

	rungs     []rungStats
	late      samples
	batchRate float64 // tasks/s of the fixed-batch closed loop
}

type arrival struct {
	due  time.Duration // offset from the rung's start
	task dpprior.TaskPosterior
}

type rungStats struct {
	rate    float64
	nominal bool
	dur     time.Duration
	sched   []arrival
	played  bool
	lat     samples
	backlog float64 // ms: age of the oldest unsent task at the rung's end
}

func (r rungStats) pass() bool {
	return r.lat.quantile(0.99) <= uploadLimitMs && r.backlog <= uploadLimitMs
}

func newIngest(e *env) (*ingest, error) {
	return &ingest{
		e:      e,
		sender: e.t.client(e.cfg.seed + 300),
		reader: e.t.client(e.cfg.seed + 301),
	}, nil
}

func (g *ingest) close() {
	g.sender.Close()
	g.reader.Close()
}

// warm ships a few small batches so connections, maps and caches exist,
// and draws the schedule, so neither counts in the measured window.
func (g *ingest) warm() error {
	g.schedule(time.Duration(g.e.cfg.seconds * float64(time.Second)))
	for i := 0; i < 3; i++ {
		b := g.e.gen.batch(8)
		if _, err := g.sender.BatchReportTasks(b); err != nil {
			return err
		}
		g.e.ackedUpload(b...)
		for s := 0; s < g.e.shape.shards; s++ {
			g.e.fresh.acked(s, g.e.t.leaderVersion(s), time.Now(), 0)
			if _, _, err := g.reader.ShardPrior(s, g.e.shape.dim()); err != nil {
				return err
			}
		}
		g.e.observe(g.reader)
	}
	return nil
}

// schedule draws the seeded Poisson arrivals of every rung.
func (g *ingest) schedule(window time.Duration) {
	rng := rand.New(rand.NewSource(g.e.cfg.seed*1000 + 400))
	for _, r := range ladder {
		rs := rungStats{rate: r.rate, nominal: r.nominal, dur: time.Duration(r.share * float64(window))}
		var t time.Duration
		for {
			t += time.Duration(rng.ExpFloat64() / r.rate * float64(time.Second))
			if t >= rs.dur {
				break
			}
			rs.sched = append(rs.sched, arrival{due: t, task: g.e.gen.next()})
		}
		g.rungs = append(g.rungs, rs)
	}
}

func (g *ingest) measure(time.Duration) {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		g.readLoop(stop)
	}()
	for i := range g.rungs {
		if g.rungs[i].rate > probeAbove {
			break
		}
		g.e.fresh.counting.Store(g.rungs[i].nominal)
		if err := g.sendRung(&g.rungs[i], &g.e.ops, &g.late); err != nil {
			g.e.res.checkErrs = append(g.e.res.checkErrs, err)
			break
		}
	}
	g.e.fresh.counting.Store(false)
	close(stop)
	wg.Wait()
}

// probe runs after the window: the fixed-batch closed loop, then the
// rungs above the window while every rung so far met the limit. Their
// uploads count as side ops, outside the per-op metrics.
func (g *ingest) probe() {
	if err := g.batchLoop(time.Duration(batchShare * g.e.cfg.seconds * float64(time.Second))); err != nil {
		g.e.res.checkErrs = append(g.e.res.checkErrs, err)
		return
	}
	for i := range g.rungs {
		r := &g.rungs[i]
		if !r.played {
			if r.rate <= probeAbove {
				return // the window stopped early
			}
			var ops opStats
			var late samples
			err := g.sendRung(r, &ops, &late)
			g.e.sideOps.Add(int64(ops.attempted))
			g.e.sideFailed.Add(int64(ops.failed))
			if err != nil {
				g.e.res.checkErrs = append(g.e.res.checkErrs, err)
				return
			}
		}
		if !r.pass() {
			return
		}
	}
}

// batchLoop ships batches of batchSize fresh tasks back to back for d
// and records the acked tasks per second.
func (g *ingest) batchLoop(d time.Duration) error {
	m, err := g.sender.Map()
	if err != nil {
		return fmt.Errorf("shard map: %w", err)
	}
	acked := 0
	start := time.Now()
	for time.Since(start) < d {
		batch := g.e.gen.batch(batchSize)
		done, err := g.sender.BatchReportTasks(batch)
		ok := g.settle(m, batch, done, time.Now())
		for k := range batch {
			if ok[k] {
				acked++
				g.e.side(nil)
			} else {
				g.e.side(err)
			}
		}
	}
	g.batchRate = float64(acked) / time.Since(start).Seconds()
	return nil
}

func (g *ingest) readLoop(stop <-chan struct{}) {
	e := g.e
	for {
		select {
		case <-stop:
			return
		default:
		}
		root := e.startRoot("poll")
		g.reader.SetTraceParent(root)
		var (
			p   *dpprior.Prior
			v   uint64
			err error
		)
		for s := 0; s < e.shape.shards && err == nil; s++ {
			p, v, err = g.reader.ShardPrior(s, e.shape.dim())
		}
		g.reader.SetTraceParent(nil)
		root.EndErr(err)
		e.side(err)
		if err == nil {
			e.observe(g.reader)
			if root != nil {
				e.wire.sample(p, v, nil, false)
			}
		}
		time.Sleep(time.Millisecond)
	}
}

// sendRung plays one rung's schedule: every task already due goes out
// in one batch, and each task's latency runs from its due time to the
// batch's ack. Ops and generator lateness go to ops and late.
func (g *ingest) sendRung(r *rungStats, ops *opStats, late *samples) error {
	e := g.e
	m, err := g.sender.Map()
	if err != nil {
		return fmt.Errorf("shard map: %w", err)
	}
	r.played = true
	start := time.Now()
	endSeen := false
	for i := 0; i < len(r.sched); {
		now := time.Since(start)
		if !endSeen && now >= r.dur {
			endSeen = true
			r.backlog = ms(r.dur - r.sched[i].due)
		}
		if age := ms(now - r.sched[i].due); age > abortBacklogMs {
			r.backlog = age
			break
		}
		if d := r.sched[i].due - now; d > 0 {
			time.Sleep(d)
			continue
		}
		j := i
		for j < len(r.sched) && r.sched[j].due <= now {
			j++
		}
		batch := make([]dpprior.TaskPosterior, j-i)
		for k := range batch {
			batch[k] = r.sched[i+k].task
		}
		root := e.startRoot("batch", trace.Int("tasks", int64(j-i)))
		g.sender.SetTraceParent(root)
		sent := time.Now()
		done, err := g.sender.BatchReportTasks(batch)
		ack := time.Now()
		g.sender.SetTraceParent(nil)
		root.EndErr(err)
		ok := g.settle(m, batch, done, ack)
		var acked []dpprior.TaskPosterior
		for k, task := range batch {
			if !ok[k] {
				ops.record(0, root != nil, fmt.Errorf("batch upload: %v", err))
				continue
			}
			acked = append(acked, task)
			due := start.Add(r.sched[i+k].due)
			lat := ack.Sub(due)
			ops.record(lat, root != nil, nil)
			r.lat.addDur(lat)
			l := sent.Sub(due)
			late.addDur(l)
			if root != nil {
				e.mu.Lock()
				e.lateTraced.addDur(l)
				e.mu.Unlock()
			}
		}
		if root != nil && len(acked) > 0 {
			e.wire.sample(nil, 0, acked, true)
		}
		i = j
	}
	return nil
}

// settle books a batch's outcome: which of its tasks were acked (see
// ackedGroups), the acked and possibly landed uploads for the checks,
// and each touched shard's version for freshness.
func (g *ingest) settle(m *edge.ShardMap, batch []dpprior.TaskPosterior, done int, ack time.Time) []bool {
	e := g.e
	shard, ok := ackedGroups(m, batch, done)
	shards := map[int]int{}
	for k, task := range batch {
		if ok[k] {
			e.ackedUpload(task)
			shards[shard[k]]++
		} else {
			e.unknownUpload(task)
		}
	}
	// The sender is the only writer, so each touched shard's leader
	// version right after the ack is the version this batch reached.
	for s, n := range shards {
		e.fresh.acked(s, e.t.leaderVersion(s), ack, n)
	}
	return ok
}

// ackedGroups tells which tasks of a batch the done count of
// BatchReportTasks covers, and each task's shard. The client sends a
// batch as one group per shard, in shard order, and a group is acked
// whole or not at all, so done covers the first whole groups in shard
// order, not the batch's first done tasks.
func ackedGroups(m *edge.ShardMap, batch []dpprior.TaskPosterior, done int) (shard []int, acked []bool) {
	shard = make([]int, len(batch))
	size := make([]int, len(m.Shards))
	for k, t := range batch {
		shard[k] = m.ShardOf(t.Fingerprint())
		size[shard[k]]++
	}
	whole := make([]bool, len(m.Shards))
	for s, n := range size {
		if n > done {
			break
		}
		whole[s] = n > 0
		done -= n
	}
	acked = make([]bool, len(batch))
	for k := range batch {
		acked[k] = whole[shard[k]]
	}
	return shard, acked
}

// maxRate interpolates the highest sustained rate between the last
// rung (in ladder order, all earlier ones passing) whose p99 meets the
// limit and the first one that misses it, in proportion to the p99
// margin. It does not extrapolate past the ladder: when every rung
// passes it reports the top rate, and when the first one misses, the
// bottom rate; the second result says which end, if any, capped it.
func (g *ingest) maxRate() (rate float64, capped string) {
	k := -1
	for i, r := range g.rungs {
		if !r.played || !r.pass() {
			break
		}
		k = i
	}
	switch {
	case k < 0:
		return g.rungs[0].rate, "below the ladder: the lowest rung missed the limit"
	case k == len(g.rungs)-1:
		return g.rungs[k].rate, "saturated: every rung met the limit"
	}
	lo, hi := g.rungs[k], g.rungs[k+1]
	p0, p1 := lo.lat.quantile(0.99), math.Max(hi.lat.quantile(0.99), hi.backlog)
	f := (uploadLimitMs - p0) / (p1 - p0)
	return lo.rate + f*(hi.rate-lo.rate), ""
}

func (g *ingest) report(_ samples, _ float64) {
	res := g.e.res
	for _, r := range g.rungs {
		if !r.played {
			continue
		}
		tag := ""
		if r.nominal {
			tag = " (nominal)"
			res.set("upload_p50_ms", r.lat.quantile(0.5))
			res.set("upload_p99_ms", r.lat.quantile(0.99))
			res.set("op_p50_ms", r.lat.quantile(0.5))
			res.set("op_p99_ms", r.lat.quantile(0.99))
		}
		res.note("rung %4.0f/s%s: n=%d p50=%.1fms p99=%.1fms backlog=%.1fms", r.rate, tag, len(r.lat),
			r.lat.quantile(0.5), r.lat.quantile(0.99), r.backlog)
	}
	mr, capped := g.maxRate()
	if capped != "" {
		res.note("max_upload_rate %s", capped)
	}
	res.set("max_upload_rate", mr)
	res.set("batch_upload_rate", g.batchRate)
	res.set("throughput_per_s", g.batchRate)
	res.set("gen.late_ms_p99", g.late.quantile(0.99))
}

func (g *ingest) check() []error { return nil }
