package main

import (
	"encoding/json"
	"fmt"
	"regexp"
)

// Workload names, as later changes refer to them.
const (
	wRounds  = "device-rounds"
	wIngest  = "ingest-durable"
	wRefresh = "prior-refresh"
)

var allWorkloads = []string{wRounds, wIngest, wRefresh}

// workloadWhy is the one-line reason each workload exists.
var workloadWhy = map[string]string{
	wRounds:  "the paper's edge loop (refresh, fit, Laplace, upload) on 1 shard: fitting and the semi-sync upload ack carry the round",
	wIngest:  "open-loop Poisson uploads on 3x2 durable shards with admission on: store append, fsync, snapshots, replication and rebuild dominate",
	wRefresh: "merged-prior refreshes of large priors on 3x2 shards with hedged reads: the read path's shard fan-out, codec and merge",
}

// metric describes one number the benchmark reports.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Layer  string  `json:"layer"`
	Bound  float64 `json:"bound,omitempty"`
	// Workloads the metric applies to. BENCHMARK.json lists only metrics
	// that apply to every workload, because the result line must carry
	// the same metric names on every workload; the rest are printed in
	// the run's report.
	Workloads []string `json:"workloads"`
	Desc      string   `json:"desc"`
	// Unlisted gives the reason a metric that every workload measures is
	// still left out of BENCHMARK.json (it is printed in the report).
	Unlisted string `json:"unlisted,omitempty"`
}

// listed reports whether BENCHMARK.json carries the metric: it applies
// to every workload and nothing keeps it out.
func (m metric) listed() bool { return len(m.Workloads) == len(allWorkloads) && m.Unlisted == "" }

func (m metric) appliesTo(w string) bool {
	for _, x := range m.Workloads {
		if x == w {
			return true
		}
	}
	return false
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func one(w string) []string { return []string{w} }

// endToEnd are the user-visible metrics of the timed (untraced) runs.
// An "op" is a device round on device-rounds, one uploaded task on
// ingest-durable (timed from its due time) and one refresh or upload on
// prior-refresh.
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Layer: "tier", Workloads: allWorkloads,
		Desc: "cluster start, preload and first quiesce; median of a fixed number of set-ups in one run (21, 11 or 15 by workload)"},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Layer: "tier", Workloads: allWorkloads,
		Desc: "median op latency: round_p50_ms, upload_p50_ms or refresh_p50_ms"},
	{Name: "op_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25, Layer: "tier", Workloads: allWorkloads,
		Desc: "p99 op latency: round_p99_ms, upload_p99_ms or refresh_p99_ms"},
	{Name: "throughput_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, Layer: "tier", Workloads: allWorkloads,
		Desc: "rounds_per_s, batch_upload_rate or completed ops per second"},
	{Name: "freshness_p50_ms", Unit: "ms", Better: "lower", Layer: "tier", Workloads: allWorkloads,
		Desc:     "upload ack at version v to the first prior for that shard at version >= v served to any client of the run",
		Unlisted: "on ingest-durable most uploads are already served when the batch ack returns, so the median sits on the edge of a run of zeros and moves by more than any bound across seeds"},
	{Name: "freshness_p99_ms", Unit: "ms", Better: "lower", Layer: "tier", Workloads: allWorkloads,
		Desc:     "p99 of the freshness delay above; ingest-durable measures it on the nominal rung",
		Unlisted: "it rests on the few slowest rebuilds of a run, and its spread over ten seeds reached 0.22 to 0.39 on every workload, above the largest bound allowed"},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.2, Layer: "tier", Workloads: allWorkloads,
		Desc: "process user+sys CPU per completed op (the tier runs in-process)"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.2, Layer: "tier", Workloads: allWorkloads,
		Desc: "peak resident set of the benchmark process"},
	{Name: "net_bytes_per_op", Unit: "bytes", Better: "lower", Bound: 0.2, Layer: "tier", Workloads: allWorkloads,
		Desc: "bytes sent plus received by every edge client connection (devices and follower log pulls) per op"},

	{Name: "rounds_per_s", Unit: "1/s", Better: "higher", Layer: "tier", Workloads: one(wRounds), Desc: "completed rounds per second"},
	{Name: "round_p50_ms", Unit: "ms", Better: "lower", Layer: "tier", Workloads: one(wRounds), Desc: "round: fetch start to upload ack"},
	{Name: "round_p99_ms", Unit: "ms", Better: "lower", Layer: "tier", Workloads: one(wRounds), Desc: "round: fetch start to upload ack"},
	{Name: "accuracy", Unit: "frac", Better: "higher", Layer: "core", Workloads: one(wRounds), Desc: "mean held-out accuracy of the device models (quality guard)"},
	{Name: "upload_p50_ms", Unit: "ms", Better: "lower", Layer: "tier", Workloads: one(wIngest), Desc: "due time to ack, at the nominal ladder rate"},
	{Name: "upload_p99_ms", Unit: "ms", Better: "lower", Layer: "tier", Workloads: one(wIngest), Desc: "due time to ack, at the nominal ladder rate"},
	{Name: "max_upload_rate", Unit: "1/s", Better: "higher", Layer: "tier", Workloads: one(wIngest), Desc: "highest rate whose p99 meets the latency limit without a growing backlog, interpolated between ladder rates and capped at the ladder's ends"},
	{Name: "batch_upload_rate", Unit: "1/s", Better: "higher", Layer: "tier", Workloads: one(wIngest), Desc: "tasks acked per second when one sender ships batches of 128 tasks back to back"},
	{Name: "refresh_p50_ms", Unit: "ms", Better: "lower", Layer: "tier", Workloads: one(wRefresh), Desc: "merged-prior refresh latency"},
	{Name: "refresh_p99_ms", Unit: "ms", Better: "lower", Layer: "tier", Workloads: one(wRefresh), Desc: "merged-prior refresh latency"},
	{Name: "down_bytes_per_refresh", Unit: "bytes", Better: "lower", Layer: "tier", Workloads: one(wRefresh), Desc: "bytes received by edge clients per refresh (follower log pulls included: the registry is process-global)"},
	{Name: "failed_frac", Unit: "frac", Better: "lower", Layer: "tier", Workloads: allWorkloads, Desc: "failed or refused ops plus failed correctness checks, over ops attempted",
		Unlisted: "0 on a healthy run; the result line carries it as failed/attempted"},
}

// predictions record, before any change is measured, which end-to-end
// metrics a faster or slower layer should move on each workload. A
// workload missing from a layer's entry should stay unchanged.
var predictions = []struct {
	layer string
	moves map[string]string
}{
	{"core", map[string]string{wRounds: "round_p50_ms, rounds_per_s"}},
	{"dpprior-edge", map[string]string{wRounds: "round_p50_ms", wRefresh: "refresh_p50_ms"}},
	{"model", map[string]string{wRounds: "round_p50_ms"}},
	{"dpprior-cloud", map[string]string{wIngest: "freshness_p99_ms, cpu_ms_per_op; upload_p99_ms through CPU contention"}},
	{"store", map[string]string{wIngest: "upload_p99_ms, batch_upload_rate", wRounds: "round_p99_ms"}},
	{"cluster-repl", map[string]string{wIngest: "upload_p50_ms", wRounds: "round_p50_ms"}},
	{"cluster-client", map[string]string{wRefresh: "refresh_p99_ms", wIngest: "freshness_p50_ms"}},
	{"edge-server", map[string]string{wRefresh: "refresh_p50_ms, down_bytes_per_refresh, failed_frac", wRounds: "failed_frac", wIngest: "failed_frac"}},
	{"wire", map[string]string{wRefresh: "refresh_p50_ms", wIngest: "upload_p50_ms"}},
	{"runtime", map[string]string{wRounds: "cpu_ms_per_op", wIngest: "cpu_ms_per_op", wRefresh: "cpu_ms_per_op"}},
}

// perLayer are the traced run's metrics. Counts are tier totals: the
// telemetry registry is process-global.
var perLayer = []metric{
	{Name: "core.fit_ms_p50", Unit: "ms", Better: "lower", Layer: "core", Workloads: one(wRounds), Desc: "Device.TrainWithPrior minus its prior compile"},
	{Name: "core.fit_ms_p99", Unit: "ms", Better: "lower", Layer: "core", Workloads: one(wRounds), Desc: "Device.TrainWithPrior minus its prior compile"},
	{Name: "core.em_iters_per_fit", Unit: "count", Better: "lower", Layer: "core", Workloads: one(wRounds), Desc: "drdp_core_em_iterations_total per fit"},
	{Name: "core.mstep_iters_per_fit", Unit: "count", Better: "lower", Layer: "core", Workloads: one(wRounds), Desc: "drdp_core_mstep_iterations_total per fit"},
	{Name: "dpprior.compile_ms", Unit: "ms", Better: "lower", Layer: "dpprior-edge", Workloads: one(wRounds), Desc: "median dpprior.Compile of the fetched prior"},
	{Name: "dpprior.merge_ms", Unit: "ms", Better: "lower", Layer: "dpprior-edge", Workloads: []string{wRounds, wRefresh}, Desc: "median merged-fetch self time (MergePriors over the shard priors)"},
	{Name: "model.laplace_ms", Unit: "ms", Better: "lower", Layer: "model", Workloads: one(wRounds), Desc: "median model.LaplacePosterior"},
	{Name: "dpprior.build_ms_p50", Unit: "ms", Better: "lower", Layer: "dpprior-cloud", Workloads: allWorkloads, Desc: "build span of background rebuilds"},
	{Name: "dpprior.build_ms_p99", Unit: "ms", Better: "lower", Layer: "dpprior-cloud", Workloads: allWorkloads, Desc: "build span of background rebuilds"},
	{Name: "dpprior.builds_per_1k_tasks", Unit: "count", Better: "lower", Layer: "dpprior-cloud", Workloads: allWorkloads, Desc: "drdp_edge_server_prior_rebuilds_total per 1000 acked tasks"},
	{Name: "dpprior.build_tasks_mean", Unit: "count", Better: "lower", Layer: "dpprior-cloud", Workloads: allWorkloads, Desc: "stored tasks per rebuild"},
	{Name: "dpprior.admit_ms", Unit: "ms", Better: "lower", Layer: "dpprior-cloud", Workloads: allWorkloads, Desc: "mean rebuild self time (admission and view, build excluded)"},
	{Name: "store.append_ms_p50", Unit: "ms", Better: "lower", Layer: "store", Workloads: allWorkloads, Desc: "store-append(-batch) span per task"},
	{Name: "store.append_ms_p99", Unit: "ms", Better: "lower", Layer: "store", Workloads: allWorkloads, Desc: "store-append(-batch) span per task"},
	{Name: "store.fsyncs_per_task", Unit: "count", Better: "lower", Layer: "store", Workloads: allWorkloads, Desc: "Sync calls on every node per acked task"},
	{Name: "store.write_bytes_per_task", Unit: "bytes", Better: "lower", Layer: "store", Workloads: allWorkloads, Desc: "bytes written on every node per acked task"},
	{Name: "store.snapshots_per_1k_tasks", Unit: "count", Better: "lower", Layer: "store", Workloads: allWorkloads, Desc: "snapshot compactions on every node per 1000 acked tasks"},
	{Name: "store.snapshot_ms", Unit: "ms", Better: "lower", Layer: "store", Workloads: allWorkloads, Desc: "mean snapshot temp-file create to rename"},
	{Name: "repl.ack_wait_ms_p50", Unit: "ms", Better: "lower", Layer: "cluster-repl", Workloads: allWorkloads, Desc: "ack-wait span (semi-sync quorum wait)"},
	{Name: "repl.ack_wait_ms_p99", Unit: "ms", Better: "lower", Layer: "cluster-repl", Workloads: allWorkloads, Desc: "ack-wait span (semi-sync quorum wait)"},
	{Name: "repl.pull_ms", Unit: "ms", Better: "lower", Layer: "cluster-repl", Workloads: allWorkloads, Desc: "mean repl-pull span of pulls that shipped frames"},
	{Name: "repl.pulls_per_task", Unit: "count", Better: "lower", Layer: "cluster-repl", Workloads: allWorkloads, Desc: "drdp_repl_pulls_total per acked task"},
	{Name: "repl.bytes_per_task", Unit: "bytes", Better: "lower", Layer: "cluster-repl", Workloads: allWorkloads, Desc: "drdp_repl_bytes_total per acked task"},
	{Name: "cluster.shard_prior_ms_p50", Unit: "ms", Better: "lower", Layer: "cluster-client", Workloads: allWorkloads, Desc: "shard-prior span"},
	{Name: "cluster.merged_fetch_ms", Unit: "ms", Better: "lower", Layer: "cluster-client", Workloads: []string{wRounds, wRefresh}, Desc: "median merged-fetch span"},
	{Name: "cluster.fanout_slowest_over_median", Unit: "ratio", Better: "lower", Layer: "cluster-client", Workloads: []string{wRounds, wRefresh}, Desc: "per merged fetch, slowest shard-prior over the median shard-prior, averaged"},
	{Name: "cluster.hedge_fired_frac", Unit: "frac", Better: "lower", Layer: "cluster-client", Workloads: one(wRefresh), Desc: "drdp_cluster_hedge_fired_total per shard read"},
	{Name: "cluster.hedge_won_frac", Unit: "frac", Better: "higher", Layer: "cluster-client", Workloads: one(wRefresh), Desc: "drdp_cluster_hedge_won_total per hedge fired"},
	{Name: "cluster.lagging_read_frac", Unit: "frac", Better: "lower", Layer: "cluster-client", Workloads: allWorkloads, Desc: "drdp_edge_server_lagging_total per shard read",
		Unlisted: "0 on a healthy run"},
	{Name: "edge.server_request_ms_p50", Unit: "ms", Better: "lower", Layer: "edge-server", Workloads: allWorkloads, Desc: "drdp_edge_server_request_seconds histogram (bucketed)"},
	{Name: "edge.server_request_ms_p99", Unit: "ms", Better: "lower", Layer: "edge-server", Workloads: allWorkloads, Desc: "drdp_edge_server_request_seconds histogram (bucketed)"},
	{Name: "edge.serve_self_ms", Unit: "ms", Better: "lower", Layer: "edge-server", Workloads: allWorkloads, Desc: "mean serve span minus its children"},
	{Name: "edge.prior_resp_full_frac", Unit: "frac", Better: "lower", Layer: "edge-server", Workloads: allWorkloads, Desc: "full-prior share of prior responses"},
	{Name: "edge.prior_resp_delta_frac", Unit: "frac", Better: "higher", Layer: "edge-server", Workloads: allWorkloads, Desc: "delta share of prior responses"},
	{Name: "edge.prior_resp_not_modified_frac", Unit: "frac", Better: "higher", Layer: "edge-server", Workloads: allWorkloads, Desc: "not-modified share of prior responses"},
	{Name: "edge.client_retries_per_op", Unit: "count", Better: "lower", Layer: "edge-server", Workloads: allWorkloads, Desc: "drdp_edge_client_retries_total per op",
		Unlisted: "0 on a healthy run"},
	{Name: "wire.up_bytes_per_task", Unit: "bytes", Better: "lower", Layer: "wire", Workloads: allWorkloads, Desc: "framed upload request bytes per task"},
	{Name: "wire.encode_us", Unit: "us", Better: "lower", Layer: "wire", Workloads: allWorkloads, Desc: "median wire.AppendResponse of the op's served prior"},
	{Name: "wire.decode_us", Unit: "us", Better: "lower", Layer: "wire", Workloads: allWorkloads, Desc: "median wire.DecodeResponse of the op's served prior"},
	{Name: "runtime.alloc_bytes_per_op", Unit: "bytes", Better: "lower", Layer: "runtime", Workloads: allWorkloads, Desc: "heap bytes allocated per op"},
	{Name: "runtime.gc_cpu_frac", Unit: "frac", Better: "lower", Layer: "runtime", Workloads: allWorkloads, Desc: "GC CPU over total CPU in the window"},
	{Name: "gen.late_ms_p99", Unit: "ms", Better: "lower", Layer: "generator", Workloads: one(wIngest), Desc: "p99 of send time minus due time"},
	{Name: "trace.overhead_frac", Unit: "frac", Better: "lower", Layer: "trace", Workloads: allWorkloads, Desc: "mean op latency with tracing on over tracing off, minus 1 (interleaved blocks)"},
	{Name: "trace.spans_dropped", Unit: "count", Better: "lower", Layer: "trace", Workloads: allWorkloads, Desc: "spans lost to the per-trace bound or the flight-recorder ring",
		Unlisted: "must be 0: a traced run that drops spans fails its checks"},
}

// contract metrics: the ones BENCHMARK.json lists.
func contract(ms []metric) []metric {
	var out []metric
	for _, m := range ms {
		if m.listed() {
			out = append(out, m)
		}
	}
	return out
}

// benchmarkJSON renders BENCHMARK.json.
func benchmarkJSON() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type pl struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []pl     `json:"per_layer"`
	}{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
	}
	for _, w := range allWorkloads {
		doc.Workloads = append(doc.Workloads, wl{w, workloadWhy[w]})
	}
	for _, m := range contract(endToEnd) {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range contract(perLayer) {
		doc.PerLayer = append(doc.PerLayer, pl{m.Name, m.Unit, m.Better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("render BENCHMARK.json: %w", err)
	}
	return append(b, '\n'), nil
}

// manifestJSON renders perfbench/metrics.json: every metric with its
// layer and the workloads it applies to, and per workload the layer to
// end-to-end predictions.
func manifestJSON() ([]byte, error) {
	type wl struct {
		Name      string            `json:"name"`
		Why       string            `json:"why"`
		Predicted map[string]string `json:"layer_moves"`
		Unchanged []string          `json:"layers_idle"`
	}
	doc := struct {
		Workloads []wl     `json:"workloads"`
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}{EndToEnd: endToEnd, PerLayer: perLayer}
	for _, w := range allWorkloads {
		x := wl{Name: w, Why: workloadWhy[w], Predicted: map[string]string{}}
		for _, p := range predictions {
			if m, ok := p.moves[w]; ok {
				x.Predicted[p.layer] = m
			} else {
				x.Unchanged = append(x.Unchanged, p.layer)
			}
		}
		doc.Workloads = append(doc.Workloads, x)
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("render metrics.json: %w", err)
	}
	return append(b, '\n'), nil
}
