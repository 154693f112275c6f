package main

import (
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/drdp/drdp/internal/dpprior"
	"github.com/drdp/drdp/internal/trace"
	"github.com/drdp/drdp/internal/wire"
)

// recorder keeps every completed trace of a traced run in memory. The
// flight recorder only holds a ring of recent traces, so the recorder
// polls it often enough that no trace is overwritten before it is
// copied; whatever the ring lost anyway shows as dropped.
type recorder struct {
	tr *trace.Tracer

	mu    sync.Mutex
	seen  map[*trace.TraceDump]bool
	dumps []*trace.TraceDump

	stopCh chan struct{}
	wg     sync.WaitGroup
}

func newRecorder(tr *trace.Tracer) *recorder {
	return &recorder{tr: tr, seen: map[*trace.TraceDump]bool{}, stopCh: make(chan struct{})}
}

func (r *recorder) start() {
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-r.stopCh:
				return
			case <-tick.C:
				r.poll()
			}
		}
	}()
}

func (r *recorder) poll() {
	snap := r.tr.Snapshot()
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, td := range snap.Recent {
		if !r.seen[td] {
			r.seen[td] = true
			r.dumps = append(r.dumps, td)
		}
	}
}

// stop ends polling and takes a last copy; call once the tier is idle.
func (r *recorder) stop() {
	close(r.stopCh)
	r.wg.Wait()
	r.poll()
}

// dropped counts spans lost: traces the ring overwrote before a poll
// copied them, plus spans over the per-trace bound.
func (r *recorder) dropped() int {
	st := r.tr.Stats()
	r.mu.Lock()
	defer r.mu.Unlock()
	return int(st.Completed) - len(r.dumps) + int(st.SpansDropped)
}

// traces merges the fragments of each trace (client and server sides).
func (r *recorder) traces() []*trace.TraceDump {
	r.mu.Lock()
	byID := map[string][]*trace.TraceDump{}
	var order []string
	for _, td := range r.dumps {
		if _, ok := byID[td.Trace]; !ok {
			order = append(order, td.Trace)
		}
		byID[td.Trace] = append(byID[td.Trace], td)
	}
	r.mu.Unlock()
	out := make([]*trace.TraceDump, 0, len(order))
	for _, id := range order {
		out = append(out, trace.MergeDumps(byID[id]))
	}
	return out
}

// spanNode is a span with its children and self time.
type spanNode struct {
	sd       *trace.SpanDump
	children []*spanNode
	self     time.Duration
}

func (n *spanNode) end() time.Time { return n.sd.Start.Add(n.sd.Dur) }

// tree links a merged trace's spans and computes each span's self time:
// its duration minus the part of it its children cover.
func tree(td *trace.TraceDump) (root *spanNode, all []*spanNode) {
	byID := make(map[string]*spanNode, len(td.Spans))
	for i := range td.Spans {
		n := &spanNode{sd: &td.Spans[i]}
		byID[n.sd.ID] = n
		all = append(all, n)
	}
	for _, n := range all {
		if p, ok := byID[n.sd.Parent]; ok && n.sd.Parent != "" {
			p.children = append(p.children, n)
		} else if root == nil {
			root = n
		}
	}
	for _, n := range all {
		n.self = n.sd.Dur - covered(n)
	}
	return root, all
}

// covered is the length of the union of n's children clipped to n.
func covered(n *spanNode) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, c := range n.children {
		a, b := c.sd.Start, c.end()
		if a.Before(n.sd.Start) {
			a = n.sd.Start
		}
		if b.After(n.end()) {
			b = n.end()
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, x := range ivs {
		switch {
		case i == 0:
			cur = x
		case !x.a.After(cur.b):
			if x.b.After(cur.b) {
				cur.b = x.b
			}
		default:
			total += cur.b.Sub(cur.a)
			cur = x
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// Budget columns: the layers a blocking op passes through, in order.
var layerOrder = []string{
	"bench", "core", "dpprior-edge", "model", "cluster-client", "edge-client",
	"wire", "edge-server", "store", "cluster-repl", "dpprior-cloud", "generator", "trace",
}

// waitLayers are the columns that are waiting rather than computing.
var waitLayers = map[string]string{
	"wire":         "loopback transfer, codec and scheduling between client rpc and server serve",
	"cluster-repl": "semi-sync ack wait for a follower's pull",
	"generator":    "open-loop queueing: due time to send",
}

// layerOf maps a span name to its layer.
func layerOf(name string) string {
	switch {
	case name == "round" || name == "refresh" || name == "batch" || name == "poll":
		return "bench"
	case name == "fit":
		return "core"
	case name == "laplace":
		return "model"
	case name == "merged-fetch":
		return "dpprior-edge" // its self time is MergePriors
	case name == "compile":
		return "trace" // the traced run's extra compile, not part of a round
	case name == "shard-prior" || name == "upload" || name == "batch-upload":
		return "cluster-client"
	case strings.HasPrefix(name, "call ") || name == "dial":
		return "edge-client"
	case strings.HasPrefix(name, "rpc "):
		return "wire"
	case strings.HasPrefix(name, "serve "):
		return "edge-server"
	case name == "store-append" || name == "store-append-batch":
		return "store"
	case name == "ack-wait" || name == "repl-pull":
		return "cluster-repl"
	case name == "rebuild" || name == "build" || name == "cold-build":
		return "dpprior-cloud"
	}
	return "bench"
}

// budgetRow is one workload's latency budget: mean self time per op by
// layer along the op's blocking path.
type budgetRow struct {
	workload string
	op       string
	n        int
	measured float64 // mean traced op latency, ms
	cells    map[string]float64
}

func (b *budgetRow) sum() float64 {
	var s float64
	for _, v := range b.cells {
		s += v
	}
	return s
}

// wireStats times the wire codec on the run's actual messages and sizes
// its upload frames (traced ops only).
type wireStats struct {
	mu       sync.Mutex
	calls    int
	enc, dec samples // µs
	upBytes  float64
	upTasks  float64
}

// wireSampleEvery spaces the codec timings (upload sizes are taken on
// every traced op): encoding and decoding a large merged prior costs
// about as much CPU as the refresh itself, and done on every traced op
// it would inflate trace.overhead_frac.
const wireSampleEvery = 16

// frameHeader is the binary codec's [u32 len][u32 CRC32] frame prefix.
const frameHeader = 8

func (w *wireStats) sample(p *dpprior.Prior, v uint64, tasks []dpprior.TaskPosterior, batch bool) {
	w.mu.Lock()
	if p != nil {
		w.calls++
		if w.calls%wireSampleEvery != 1 {
			p = nil
		}
	}
	w.mu.Unlock()
	var enc, dec time.Duration
	if p != nil {
		resp := &wire.Response{Prior: p, Version: v}
		t0 := time.Now()
		b := wire.AppendResponse(nil, resp)
		enc = time.Since(t0)
		var out wire.Response
		t1 := time.Now()
		if err := wire.DecodeResponse(b, &out, false); err != nil {
			p = nil // not a timing of a valid decode
		}
		dec = time.Since(t1)
	}
	var up int
	if len(tasks) > 0 {
		req := &wire.Request{Kind: wire.ReportTask, Task: &tasks[0]}
		if batch {
			req = &wire.Request{Kind: wire.BatchAddTask, Tasks: tasks}
		}
		up = len(wire.AppendRequest(nil, req)) + frameHeader
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if p != nil {
		w.enc.add(float64(enc) / float64(time.Microsecond))
		w.dec.add(float64(dec) / float64(time.Microsecond))
	}
	if up > 0 {
		w.upBytes += float64(up)
		w.upTasks += float64(len(tasks))
	}
}

func attrInt(sd *trace.SpanDump, key string) (int, bool) {
	v, err := strconv.Atoi(sd.Attr(key))
	return v, err == nil
}

// orZero turns "no event of this kind in the window" into 0.
func orZero(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}

// layerMetrics computes every per-layer metric of a traced run and the
// workload's budget row.
func layerMetrics(e *env, rec *recorder, before, after meter, all, tracedLat, untracedLat samples) {
	res := e.res
	traces := rec.traces()
	var (
		fit, compile, merge, mergedFetch, laplace samples
		build, rebuildSelf, rebuildTasks          samples
		appendPerTask, ackWait, pull, shardPrior  samples
		serveSelf, fanout                         samples
	)
	row := &budgetRow{workload: e.cfg.workload, cells: map[string]float64{}}
	for _, td := range traces {
		root, nodes := tree(td)
		if root == nil {
			continue
		}
		byName := map[string][]*spanNode{}
		for _, n := range nodes {
			byName[n.sd.Name] = append(byName[n.sd.Name], n)
		}
		var compileDur time.Duration
		for _, n := range byName["compile"] {
			compile.addDur(n.sd.Dur)
			compileDur += n.sd.Dur
		}
		for _, n := range byName["fit"] {
			fit.addDur(n.sd.Dur - compileDur)
		}
		for _, n := range byName["laplace"] {
			laplace.addDur(n.sd.Dur)
		}
		for _, n := range byName["merged-fetch"] {
			merge.addDur(n.self)
			mergedFetch.addDur(n.sd.Dur)
			var legs samples
			for _, c := range n.children {
				legs.addDur(c.sd.Dur)
			}
			if len(legs) > 0 {
				fanout.add(legs.max() / legs.quantile(0.5))
			}
		}
		for _, n := range byName["build"] {
			build.addDur(n.sd.Dur)
		}
		for _, n := range byName["rebuild"] {
			rebuildSelf.addDur(n.self)
			if k, ok := attrInt(n.sd, "tasks"); ok {
				rebuildTasks.add(float64(k))
			}
		}
		for _, n := range byName["store-append"] {
			appendPerTask.addDur(n.sd.Dur)
		}
		for _, n := range byName["store-append-batch"] {
			if k, ok := attrInt(n.sd, "tasks"); ok && k > 0 {
				appendPerTask.addDur(n.sd.Dur / time.Duration(k))
			}
		}
		for _, n := range byName["ack-wait"] {
			ackWait.addDur(n.sd.Dur)
		}
		for _, n := range byName["repl-pull"] {
			pull.addDur(n.sd.Dur)
		}
		for _, n := range byName["shard-prior"] {
			shardPrior.addDur(n.sd.Dur)
		}
		for _, n := range nodes {
			if strings.HasPrefix(n.sd.Name, "serve ") {
				serveSelf.addDur(n.self)
			}
		}
		addBudget(row, root, nodes, compileDur)
	}
	if row.n > 0 {
		for k := range row.cells {
			row.cells[k] /= float64(row.n)
		}
	}
	row.measured = tracedLat.mean()
	if e.cfg.workload == wIngest {
		e.mu.Lock()
		row.cells["generator"] = e.lateTraced.mean()
		e.mu.Unlock()
	}
	res.budget = row

	res.set("core.fit_ms_p50", fit.quantile(0.5))
	res.set("core.fit_ms_p99", fit.quantile(0.99))
	d := func(name string) float64 { return after.tel.CounterDelta(before.tel, name) }
	fits := d("drdp_core_fits_total")
	res.set("core.em_iters_per_fit", ratio(d("drdp_core_em_iterations_total"), fits))
	res.set("core.mstep_iters_per_fit", ratio(d("drdp_core_mstep_iterations_total"), fits))
	res.set("dpprior.compile_ms", compile.quantile(0.5))
	res.set("dpprior.merge_ms", merge.quantile(0.5))
	res.set("model.laplace_ms", laplace.quantile(0.5))

	tasks := float64(e.windowAcked.Load())
	res.set("dpprior.build_ms_p50", orZero(build.quantile(0.5)))
	res.set("dpprior.build_ms_p99", orZero(build.quantile(0.99)))
	res.set("dpprior.builds_per_1k_tasks", 1000*ratio(d("drdp_edge_server_prior_rebuilds_total"), tasks))
	res.set("dpprior.build_tasks_mean", orZero(rebuildTasks.mean()))
	res.set("dpprior.admit_ms", orZero(rebuildSelf.mean()))

	res.set("store.append_ms_p50", orZero(appendPerTask.quantile(0.5)))
	res.set("store.append_ms_p99", orZero(appendPerTask.quantile(0.99)))
	disk := e.diskAfter
	disk0 := e.diskBefore
	res.set("store.fsyncs_per_task", ratio(float64(disk.syncs-disk0.syncs), tasks))
	res.set("store.write_bytes_per_task", ratio(float64(disk.writeBytes-disk0.writeBytes), tasks))
	res.set("store.snapshots_per_1k_tasks", 1000*ratio(d("drdp_store_snapshots_total"), tasks))
	res.set("store.snapshot_ms", ratio(ms(time.Duration(disk.snapNanos-disk0.snapNanos)), float64(disk.snapshots-disk0.snapshots)))

	res.set("repl.ack_wait_ms_p50", orZero(ackWait.quantile(0.5)))
	res.set("repl.ack_wait_ms_p99", orZero(ackWait.quantile(0.99)))
	res.set("repl.pull_ms", orZero(pull.mean()))
	res.set("repl.pulls_per_task", ratio(d("drdp_repl_pulls_total"), tasks))
	res.set("repl.bytes_per_task", ratio(d("drdp_repl_bytes_total"), tasks))

	full := d(`drdp_edge_server_prior_responses_total{kind="full"}`)
	delta := d(`drdp_edge_server_prior_responses_total{kind="delta"}`)
	notMod := d(`drdp_edge_server_prior_responses_total{kind="not-modified"}`)
	lagging := d("drdp_edge_server_lagging_total")
	priorResps := full + delta + notMod
	reads := priorResps + lagging
	fired := d("drdp_cluster_hedge_fired_total")
	res.set("cluster.shard_prior_ms_p50", orZero(shardPrior.quantile(0.5)))
	res.set("cluster.merged_fetch_ms", mergedFetch.quantile(0.5))
	res.set("cluster.fanout_slowest_over_median", fanout.mean())
	res.set("cluster.hedge_fired_frac", ratio(fired, reads))
	res.set("cluster.hedge_won_frac", ratio(d("drdp_cluster_hedge_won_total"), fired))
	res.set("cluster.lagging_read_frac", ratio(lagging, reads))

	if h, ok := after.tel.Histogram("drdp_edge_server_request_seconds"); ok {
		if h0, ok := before.tel.Histogram("drdp_edge_server_request_seconds"); ok {
			h = h.Delta(h0)
		}
		res.set("edge.server_request_ms_p50", orZero(1000*h.Quantile(0.5)))
		res.set("edge.server_request_ms_p99", orZero(1000*h.Quantile(0.99)))
	}
	ops := float64(len(all))
	res.set("edge.serve_self_ms", orZero(serveSelf.mean()))
	res.set("edge.prior_resp_full_frac", ratio(full, priorResps))
	res.set("edge.prior_resp_delta_frac", ratio(delta, priorResps))
	res.set("edge.prior_resp_not_modified_frac", ratio(notMod, priorResps))
	res.set("edge.client_retries_per_op", ratio(d("drdp_edge_client_retries_total"), ops))

	e.wire.mu.Lock()
	res.set("wire.up_bytes_per_task", ratio(e.wire.upBytes, e.wire.upTasks))
	res.set("wire.encode_us", orZero(e.wire.enc.quantile(0.5)))
	res.set("wire.decode_us", orZero(e.wire.dec.quantile(0.5)))
	e.wire.mu.Unlock()

	res.set("runtime.alloc_bytes_per_op", ratio(float64(after.alloc-before.alloc), ops))
	res.set("runtime.gc_cpu_frac", ratio(rtFloat(after.rt[0])-rtFloat(before.rt[0]), rtFloat(after.rt[1])-rtFloat(before.rt[1])))
	res.set("trace.overhead_frac", tracedLat.mean()/untracedLat.mean()-1)
	res.set("trace.spans_dropped", float64(rec.dropped()))
	res.note("traced ops=%d untraced ops=%d traces=%d", len(tracedLat), len(untracedLat), len(traces))
	if n := rec.dropped(); n != 0 {
		res.checkErrs = append(res.checkErrs, fmt.Errorf("%d spans dropped", n))
	}
	if err := writeSpans(e.cfg, traces); err != nil {
		res.note("span dump not written: %v", err)
	}
}

// addBudget folds one op's trace into the row: self time per layer of
// every span under an op root. Background traces (rebuilds, pulls) are
// off the blocking path and skipped.
func addBudget(row *budgetRow, root *spanNode, nodes []*spanNode, compileDur time.Duration) {
	if root.sd.Err != "" {
		return
	}
	weight := 1
	switch root.sd.Name {
	case "round", "refresh":
		row.op = root.sd.Name
	case "batch":
		// Every task of a batch waits for the whole batch.
		k, ok := attrInt(root.sd, "tasks")
		if !ok || k == 0 {
			return
		}
		weight = k
		row.op = "task"
	default:
		return
	}
	row.n += weight
	for _, n := range nodes {
		l := layerOf(n.sd.Name)
		self := ms(n.self)
		if n.sd.Name == "fit" {
			// TrainWithPrior compiles its prior inside the fit span; that
			// share belongs to dpprior on the edge.
			row.cells["dpprior-edge"] += float64(weight) * ms(compileDur)
			self -= ms(compileDur)
		}
		row.cells[l] += float64(weight) * self
	}
}

// printBudget renders the traced runs' latency budgets, one row per
// workload, one column per layer (mean ms per op along the blocking
// path; wait columns are marked), and whether the columns add up to the
// measured op latency.
func printBudget(w io.Writer, results []*result) {
	fmt.Fprintln(w, "== latency budget (traced runs; mean ms per op; * = waiting, not computing)")
	var cols []string
	for _, l := range layerOrder {
		for _, r := range results {
			if r.budget != nil && r.budget.cells[l] != 0 {
				cols = append(cols, l)
				break
			}
		}
	}
	hdr := []string{"workload", "op", "n"}
	for _, c := range cols {
		if _, ok := waitLayers[c]; ok {
			c += "*"
		}
		hdr = append(hdr, c)
	}
	hdr = append(hdr, "sum", "measured", "adds up")
	fmt.Fprintln(w, "| "+strings.Join(hdr, " | ")+" |")
	fmt.Fprintln(w, "|"+strings.Repeat("---|", len(hdr)))
	for _, r := range results {
		b := r.budget
		if b == nil {
			continue
		}
		cells := []string{b.workload, b.op, strconv.Itoa(b.n)}
		for _, c := range cols {
			cells = append(cells, fmt.Sprintf("%.3f", b.cells[c]))
		}
		verdict := "no"
		if math.Abs(b.sum()-b.measured) <= 0.05*b.measured {
			verdict = "yes"
		}
		cells = append(cells, fmt.Sprintf("%.3f", b.sum()), fmt.Sprintf("%.3f", b.measured),
			fmt.Sprintf("%s (%+.1f%%)", verdict, 100*(b.sum()/b.measured-1)))
		fmt.Fprintln(w, "| "+strings.Join(cells, " | ")+" |")
	}
	for _, c := range cols {
		if why, ok := waitLayers[c]; ok {
			fmt.Fprintf(w, "  * %s: %s\n", c, why)
		}
	}
}

// writeSpans writes the run's merged traces, one JSON object per line,
// gzipped, beside the run's scratch directory.
func writeSpans(cfg runConfig, traces []*trace.TraceDump) error {
	f, err := os.Create(cfg.out + "-spans.jsonl.gz")
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	enc := json.NewEncoder(zw)
	for _, td := range traces {
		if err := enc.Encode(td); err != nil {
			f.Close()
			return err
		}
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
