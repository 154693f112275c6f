package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	runtimemetrics "runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/drdp/drdp/internal/cluster"
	"github.com/drdp/drdp/internal/dpprior"
	"github.com/drdp/drdp/internal/telemetry"
	"github.com/drdp/drdp/internal/trace"
)

type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	small    bool
	out      string
}

// result is one workload run: every metric it measured, by name.
type result struct {
	workload  string
	traced    bool
	values    map[string]float64
	notes     []string // report lines (sample counts, ladder, checks)
	attempted int
	failed    int
	checkErrs []error
	budget    *budgetRow
}

func (r *result) set(name string, v float64) { r.values[name] = v }

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *result) failedTotal() int {
	n := r.failed + len(r.checkErrs)
	if n > r.attempted {
		n = r.attempted
	}
	return n
}

func (r *result) correct() bool { return len(r.checkErrs) == 0 && r.failed == 0 }

// print writes the human-readable report: every metric that applies to
// the workload, by name and unit, then the notes and check verdicts.
func (r *result) print(w io.Writer) {
	kind := "timed"
	list := endToEnd
	if r.traced {
		kind = "traced"
		list = perLayer
	}
	fmt.Fprintf(w, "== %s (%s run)\n", r.workload, kind)
	for _, m := range list {
		if !m.appliesTo(r.workload) {
			continue
		}
		v, ok := r.values[m.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-36s %14.4f %s\n", m.Name, v, m.Unit)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  # %s\n", n)
	}
	if len(r.checkErrs) == 0 {
		fmt.Fprintf(w, "  # correctness: all checks passed\n")
	}
	for _, e := range r.checkErrs {
		fmt.Fprintf(w, "  # correctness FAILED: %v\n", e)
	}
}

// env is what every workload loop shares during a run.
type env struct {
	cfg   runConfig
	shape shape
	t     *tier
	gen   *posteriors
	res   *result

	mu      sync.Mutex
	acked   []dpprior.TaskPosterior // every acked upload, preload included
	unknown int                     // failed uploads that may have landed

	fresh       *freshness
	ops         opStats // the workload's ops: rounds, uploaded tasks or refreshes
	sideOps     atomic.Int64
	sideFailed  atomic.Int64 // ingest reader polls, prior-refresh uploads
	windowAcked atomic.Int64 // uploads acked inside the measured window
	measuring   atomic.Bool  // inside the measured window
	lateTraced  samples      // generator lateness of traced ingest tasks (under mu)
	wire        wireStats

	diskBefore, diskAfter diskSnapshot

	// tracing: ops started while traceOn is set are traced.
	traceOn atomic.Bool
}

// ackedUpload records acked tasks.
func (e *env) ackedUpload(ts ...dpprior.TaskPosterior) {
	e.mu.Lock()
	e.acked = append(e.acked, ts...)
	e.mu.Unlock()
	if e.measuring.Load() {
		e.windowAcked.Add(int64(len(ts)))
	}
}

// unknownUpload records uploads whose request failed: they may or may
// not have reached the store.
func (e *env) unknownUpload(ts ...dpprior.TaskPosterior) {
	e.mu.Lock()
	e.unknown += len(ts)
	e.mu.Unlock()
}

// side counts an op outside the workload's timed ops.
func (e *env) side(err error) {
	e.sideOps.Add(1)
	if err != nil {
		e.sideFailed.Add(1)
	}
}

// startRoot opens a traced op's root span (nil when the op is untraced).
func (e *env) startRoot(name string, attrs ...trace.Attr) *trace.Span {
	if !e.cfg.traced || !e.traceOn.Load() {
		return nil
	}
	return trace.Default.StartTrace(name, attrs...)
}

// diskSnapshot copies a tier's disk counters.
type diskSnapshot struct {
	syncs, writeBytes, snapshots, snapNanos int64
}

func (e *env) disk() diskSnapshot {
	c := e.t.disk
	if c == nil {
		return diskSnapshot{}
	}
	return diskSnapshot{c.syncs.Load(), c.writeBytes.Load(), c.snapshots.Load(), c.snapNanos.Load()}
}

// opStats collects op latencies, split by whether the op was traced.
type opStats struct {
	mu        sync.Mutex
	all       samples
	traced    samples
	untraced  samples
	attempted int
	failed    int
	done      int
}

func (o *opStats) record(d time.Duration, traced bool, err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.attempted++
	if err != nil {
		o.failed++
		return
	}
	o.done++
	o.all.addDur(d)
	if traced {
		o.traced.addDur(d)
	} else {
		o.untraced.addDur(d)
	}
}

func (o *opStats) snapshot() (all, traced, untraced samples, attempted, failed, done int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append(samples(nil), o.all...), append(samples(nil), o.traced...), append(samples(nil), o.untraced...),
		o.attempted, o.failed, o.done
}

// meter snapshots process-wide counters at a window's edges.
type meter struct {
	at    time.Time
	cpu   time.Duration
	tel   telemetry.Values
	alloc uint64
	rt    []runtimemetrics.Sample
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func readMeter() meter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rt := []runtimemetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	runtimemetrics.Read(rt)
	return meter{at: time.Now(), cpu: cpuTime(), tel: telemetry.Snapshot(), alloc: ms.TotalAlloc, rt: rt}
}

func rtFloat(s runtimemetrics.Sample) float64 {
	if s.Value.Kind() == runtimemetrics.KindFloat64 {
		return s.Value.Float64()
	}
	return 0
}

// runWorkload sets the tier up, runs one workload for the configured
// time, checks the outputs and computes every metric.
func runWorkload(cfg runConfig) (*result, error) {
	s := shapes[cfg.workload]
	if cfg.small {
		s = s.small()
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, fmt.Errorf("create output dir: %w", err)
	}
	defer os.RemoveAll(cfg.out)
	var rec *recorder
	if cfg.traced {
		// A fresh tracer with a ring wide enough that the recorder,
		// copying it every 50 ms, never loses a trace. Sampling stays off
		// until the measured window.
		trace.Default = trace.New(trace.Config{SlowThreshold: -1, Capacity: 1 << 15, Seed: cfg.seed})
		rec = newRecorder(trace.Default)
	}
	t, acked, gen, setupTimes, err := setUp(cfg.out, s, cfg.seed, cfg.traced)
	if err != nil {
		return nil, err
	}
	defer t.close()
	res := &result{workload: cfg.workload, traced: cfg.traced, values: map[string]float64{}}
	res.set("setup_s", setupTimes.quantile(0.5))
	e := &env{cfg: cfg, shape: s, t: t, gen: gen, res: res, acked: acked, fresh: newFreshness(s.shards)}

	w, err := newWorkload(e)
	if err != nil {
		return nil, err
	}
	defer w.close()

	if err := w.warm(); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	e.measuring.Store(true)
	e.fresh.counting.Store(cfg.workload != wIngest) // ingest counts its nominal rung only
	e.diskBefore = e.disk()
	before := readMeter()
	window := time.Duration(cfg.seconds * float64(time.Second))
	stopTracing := func() {}
	if cfg.traced {
		rec.start()
		stopTracing = e.alternateTracing()
	}
	w.measure(window)
	stopTracing()
	after := readMeter()
	e.diskAfter = e.disk()
	e.measuring.Store(false)
	e.fresh.counting.Store(false)
	res.set("peak_rss_mb", peakRSSMB())
	if p, ok := w.(interface{ probe() }); ok {
		p.probe()
	}

	// Drain: every acked upload must reach a served prior; the drain
	// polls until it has, which bounds the freshness of the last uploads.
	if err := e.drainFreshness(30 * time.Second); err != nil {
		res.checkErrs = append(res.checkErrs, err)
	}
	if !t.cl.Quiesce(60 * time.Second) {
		res.checkErrs = append(res.checkErrs, fmt.Errorf("tier did not quiesce after the run"))
	}
	res.checkErrs = append(res.checkErrs, w.check()...)
	acked, unknown := e.uploads()
	res.checkErrs = append(res.checkErrs, checkTier(t, acked, unknown, t.shape.dim())...)

	all, tracedLat, untracedLat, attempted, failed, done := e.ops.snapshot()
	res.attempted = attempted + int(e.sideOps.Load())
	res.failed = failed + int(e.sideFailed.Load())
	res.set("failed_frac", ratio(float64(res.failedTotal()), float64(max(res.attempted, 1))))
	elapsed := after.at.Sub(before.at).Seconds()
	ops := float64(done)
	res.set("op_p50_ms", all.quantile(0.5))
	res.set("op_p99_ms", all.quantile(0.99))
	res.set("cpu_ms_per_op", ratio(ms(after.cpu-before.cpu), ops))
	netBytes := after.tel.CounterDelta(before.tel, "drdp_edge_client_sent_bytes_total") +
		after.tel.CounterDelta(before.tel, "drdp_edge_client_received_bytes_total")
	res.set("net_bytes_per_op", ratio(netBytes, ops))
	if cfg.workload == wRefresh {
		res.set("down_bytes_per_refresh", ratio(after.tel.CounterDelta(before.tel, "drdp_edge_client_received_bytes_total"), ops))
	}
	f50, f99, fn := e.fresh.quantiles()
	res.set("freshness_p50_ms", f50)
	res.set("freshness_p99_ms", f99)
	res.note("ops=%d failed=%d side ops=%d in %.2fs; freshness samples=%d; op p99 rests on %d samples",
		done, failed, e.sideOps.Load(), elapsed, fn, len(all))
	w.report(all, elapsed)

	if cfg.traced {
		rec.stop()
		layerMetrics(e, rec, before, after, all, tracedLat, untracedLat)
	}
	return res, nil
}

func (e *env) uploads() (acked []dpprior.TaskPosterior, unknown int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]dpprior.TaskPosterior(nil), e.acked...), e.unknown
}

// alternateTracing switches head sampling on and off in 250 ms blocks
// across the window, so traced and untraced ops see the same tier state
// and the latency difference between them is the tracing overhead.
func (e *env) alternateTracing() (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		on := false
		for {
			select {
			case <-done:
				trace.Default.SetSampleRate(0)
				e.traceOn.Store(false)
				return
			case <-tick.C:
				on = !on
				if on {
					trace.Default.SetSampleRate(1)
				} else {
					trace.Default.SetSampleRate(0)
				}
				e.traceOn.Store(on)
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			wg.Wait()
		})
	}
}

// observe records what a client holds after a prior read.
func (e *env) observe(sc *cluster.ShardedClient) {
	e.fresh.observe(sc.Applied(), time.Now())
}

// workload is one of the three traffic mixes.
type workload interface {
	warm() error
	measure(window time.Duration)
	check() []error
	report(lat samples, elapsed float64)
	close()
}

func newWorkload(e *env) (workload, error) {
	switch e.cfg.workload {
	case wRounds:
		return newRounds(e)
	case wIngest:
		return newIngest(e)
	case wRefresh:
		return newRefresh(e)
	}
	return nil, fmt.Errorf("unknown workload %q", e.cfg.workload)
}
