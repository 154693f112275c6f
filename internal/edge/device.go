package edge

import (
	"errors"
	"fmt"

	"github.com/drdp/drdp/internal/core"
	"github.com/drdp/drdp/internal/dpprior"
	"github.com/drdp/drdp/internal/dro"
	"github.com/drdp/drdp/internal/mat"
	"github.com/drdp/drdp/internal/model"
	"github.com/drdp/drdp/internal/telemetry"
	"github.com/drdp/drdp/internal/trace"
)

// Cloud is the client-side surface a Device drives the knowledge-transfer
// loop through. Both *Client (one connection, fails on the first I/O
// error) and *ResilientClient (redial + retry + breaker) satisfy it.
type Cloud interface {
	FetchPrior(dim int) (*dpprior.Prior, uint64, error)
	FetchPriorIfNewer(dim int, knownVersion uint64) (*dpprior.Prior, uint64, error)
	// FetchPriorDelta refreshes a held prior by version: the server
	// answers NotModified, a component delta (patched onto old before
	// returning), or a full prior when a delta isn't possible or
	// worthwhile. A device with a warm cache refreshes through this.
	FetchPriorDelta(dim int, knownVersion uint64, old *dpprior.Prior) (*dpprior.Prior, uint64, error)
	ReportTask(t dpprior.TaskPosterior) (uint64, error)
}

// Degradation reports which prior a device round actually trained with.
// Ordered: higher is worse.
type Degradation int

// Degradation levels.
const (
	// DegradedNone: a current prior straight from (or confirmed by) the
	// cloud.
	DegradedNone Degradation = iota
	// DegradedRegional: the cloud was unreachable; training used the
	// regional aggregator's merged prior — fresher than any cache (the
	// region keeps absorbing local uploads during a cloud partition) but
	// missing whatever other regions contributed since the last sync.
	DegradedRegional
	// DegradedCached: the cloud (and any configured region) was
	// unreachable; training used the last good cached prior, possibly
	// stale.
	DegradedCached
	// DegradedLocal: no prior at all — the cloud is cold (cold start) or
	// unreachable with a cold cache; training was local-only DRO.
	DegradedLocal
)

// String names the degradation level.
func (d Degradation) String() string {
	switch d {
	case DegradedNone:
		return "fresh-prior"
	case DegradedRegional:
		return "regional-prior"
	case DegradedCached:
		return "cached-prior"
	case DegradedLocal:
		return "local-only"
	default:
		return fmt.Sprintf("Degradation(%d)", int(d))
	}
}

// RunStatus reports what a device round actually did — the degradation
// level and the transport errors that forced it, so a flaky uplink shows
// up in results instead of silently eroding accuracy.
type RunStatus struct {
	// Degradation is the prior level training actually ran at.
	Degradation Degradation
	// PriorVersion is the version of the prior used (0 when local-only).
	PriorVersion uint64
	// ColdStart is set when the cloud answered but legitimately has no
	// prior yet — a normal condition, not a fault.
	ColdStart bool
	// FetchErr is the transport error that forced degradation (nil when
	// the fetch succeeded or the cloud was merely cold).
	FetchErr error
	// ReportErr is a non-fatal upload failure: training succeeded but the
	// solved task could not be reported back.
	ReportErr error
}

// Device bundles an edge device's learning configuration and drives the
// full knowledge-transfer loop against a cloud client: fetch prior →
// DRDP training → optionally report the solved task back.
type Device struct {
	// ID labels the device in logs and experiment output.
	ID int
	// Model is the local model family.
	Model model.Model
	// Set is the local uncertainty ball.
	Set dro.Set
	// Tau is the prior weight (0 = default 1/n).
	Tau float64
	// EMIters bounds the EM loop (0 = learner default).
	EMIters int
	// Parallelism fans the training hot paths over that many workers
	// with bit-identical results; 0 keeps the inline serial path and
	// < 0 picks GOMAXPROCS.
	Parallelism int
	// Regional, when non-nil, is a client to the device's regional
	// aggregator: when the primary cloud fetch fails on transport, the
	// round tries the region before touching the cache, and task reports
	// go to the region instead of the cloud (the region pre-aggregates
	// and syncs upward in batches).
	Regional Cloud
	// Cache, when non-nil, stores the last good prior: fetches become
	// conditional (version handshake), and a transport failure falls back
	// to the cached prior instead of failing the round.
	Cache *PriorCache
	// FallbackLocal lets a round proceed prior-free when the cloud is
	// unreachable AND the cache is cold, and downgrades report-upload
	// failures to RunStatus.ReportErr. Without it those are hard errors.
	FallbackLocal bool
}

// TrainWithPrior runs DRDP locally with the given (wire-format) prior.
// A nil prior trains without knowledge transfer.
func (d *Device) TrainWithPrior(prior *dpprior.Prior, x *mat.Dense, y []float64) (*core.Result, error) {
	opts := []core.Option{core.WithUncertaintySet(d.Set)}
	if prior != nil {
		compiled, err := dpprior.Compile(prior)
		if err != nil {
			return nil, fmt.Errorf("edge: device %d: compile prior: %w", d.ID, err)
		}
		opts = append(opts, core.WithPrior(compiled))
	}
	if d.Tau > 0 {
		opts = append(opts, core.WithPriorWeight(d.Tau))
	}
	if d.Parallelism != 0 {
		opts = append(opts, core.WithParallelism(d.Parallelism))
	}
	if d.EMIters > 0 {
		opts = append(opts, core.WithEMIters(d.EMIters, 0))
	}
	learner, err := core.New(d.Model, opts...)
	if err != nil {
		return nil, fmt.Errorf("edge: device %d: %w", d.ID, err)
	}
	res, err := learner.Fit(x, y)
	if err != nil {
		return nil, fmt.Errorf("edge: device %d: fit: %w", d.ID, err)
	}
	return res, nil
}

// fetch obtains the prior to train with, degrading gracefully: fresh
// from the cloud → last good cached → nil (local-only), per the device's
// cache/fallback configuration.
func (d *Device) fetch(c Cloud) (*dpprior.Prior, RunStatus, error) {
	var st RunStatus
	dim := d.Model.NumParams()

	var prior *dpprior.Prior
	var version uint64
	var err error
	if cached, known, ok := d.Cache.Get(); ok {
		// Warm cache: refresh by delta — NotModified costs a handshake,
		// an incremental rebuild costs a component delta, and the server
		// falls back to the full prior on its own when that is cheaper.
		prior, version, err = c.FetchPriorDelta(dim, known, cached)
		if errors.Is(err, errDeltaApply) {
			// The patch didn't take (diverged cache, corrupt delta); a
			// full fetch recovers where repeating the delta cannot.
			prior, version, err = c.FetchPrior(dim)
		}
		if err == nil && prior == nil {
			// NotModified: the cached copy IS the current prior.
			telemetry.CacheHits.Inc()
			st.PriorVersion = known
			return cached, st, nil
		}
	} else {
		prior, version, err = c.FetchPrior(dim)
	}

	switch {
	case err == nil:
		st.PriorVersion = version
		if d.Cache != nil {
			// The cache couldn't answer (cold, or the cloud had newer).
			telemetry.CacheMisses.Inc()
			// A broken cache must not fail a healthy round; the next
			// outage just won't have this prior to fall back on.
			_ = d.Cache.Put(prior, version)
		}
		return prior, st, nil

	case errors.Is(err, ErrNoPrior):
		// Legitimate cold start: the cloud answered and has nothing yet.
		st.Degradation = DegradedLocal
		st.ColdStart = true
		return nil, st, nil

	default:
		var se *ServerError
		if errors.As(err, &se) && se.Code != CodeOverloaded {
			// Application rejection (dim mismatch etc.): degrading can't
			// fix a request the server refuses — surface it. Overload is
			// the exception: the retry budget is spent but the cloud is
			// merely busy, so the degradation ladder below applies exactly
			// as it does for a transport fault.
			return nil, st, err
		}
		telemetry.DeviceFetchErrors.Inc()
		// Transport fault (or exhausted overload retries): fall back to
		// the regional aggregator, then the cached prior, then local-only.
		if d.Regional != nil {
			if rp, rv, rerr := d.Regional.FetchPrior(dim); rerr == nil {
				telemetry.DeviceRegionalFallbacks.Inc()
				st.Degradation = DegradedRegional
				st.PriorVersion = rv
				st.FetchErr = err
				// Deliberately NOT cached: the cache keys on cloud version
				// numbers, and a region's store versions are a different
				// counter — mixing them could fake a NotModified later.
				return rp, st, nil
			}
		}
		if cached, cv, ok := d.Cache.Get(); ok {
			telemetry.CacheStale.Inc()
			st.Degradation = DegradedCached
			st.PriorVersion = cv
			st.FetchErr = err
			return cached, st, nil
		}
		if d.FallbackLocal {
			st.Degradation = DegradedLocal
			st.FetchErr = err
			return nil, st, nil
		}
		return nil, st, fmt.Errorf("edge: device %d: fetch prior: %w", d.ID, err)
	}
}

// RunWithStatus executes the full loop — fetch (with graceful
// degradation), train, optionally report — and tells the caller which
// prior level the round actually ran at. The returned error is non-nil
// only when the round could not produce a model at all.
func (d *Device) RunWithStatus(c Cloud, x *mat.Dense, y []float64, report bool) (*core.Result, RunStatus, error) {
	// A head-sampled root span per round; the client's call/rpc spans and
	// the server's joined fragments hang off it. When sampling is off (the
	// default) round is nil and every traced call below is a no-op.
	round := trace.Default.StartTrace("device-round", trace.Int("device", int64(d.ID)))
	if round != nil {
		if tc, ok := c.(interface{ SetTraceParent(*trace.Span) }); ok {
			tc.SetTraceParent(round)
			defer tc.SetTraceParent(nil)
		}
		defer func() { round.End() }()
	}
	prior, st, err := d.fetch(c)
	if err != nil {
		round.Event("fetch-failed", trace.Err(err))
		return nil, st, err
	}
	if st.Degradation != DegradedNone {
		round.Event("degraded", trace.Str("level", st.Degradation.String()))
	}
	ts := round.Child("train")
	res, err := d.TrainWithPrior(prior, x, y)
	if err != nil {
		ts.EndErr(err)
		return nil, st, err
	}
	ts.End()
	if report {
		cov, err := model.LaplacePosterior(d.Model, res.Params, x, y, 1e-3)
		if err != nil {
			return nil, st, fmt.Errorf("edge: device %d: laplace: %w", d.ID, err)
		}
		// With a regional aggregator configured, reports go there: the
		// region admits, pre-aggregates, and syncs upward in summarized
		// batches, so the device never uploads straight to the cloud.
		rc := c
		if d.Regional != nil {
			rc = d.Regional
		}
		_, err = rc.ReportTask(dpprior.TaskPosterior{
			Mu:    res.Params,
			Sigma: cov,
			N:     x.Rows,
		})
		if err != nil {
			telemetry.DeviceReportErrors.Inc()
			if !d.FallbackLocal {
				return nil, st, fmt.Errorf("edge: device %d: report: %w", d.ID, err)
			}
			// The model is good; only the upload failed. Degrade, don't die.
			st.ReportErr = err
		}
	}
	telemetry.DeviceRoundCounter(st.Degradation.String()).Inc()
	return res, st, nil
}

// Run executes the full loop through a live client: fetch the prior
// (tolerating an empty cloud), train, and when report is set, upload the
// Laplace posterior of the solved task. It returns the training result.
//
// A cold cloud (no tasks yet) trains locally, as before. Transport and
// validation errors are no longer swallowed: they fail the round unless
// the device is configured to degrade (Cache and/or FallbackLocal) —
// use RunWithStatus to observe the degradation level.
func (d *Device) Run(c Cloud, x *mat.Dense, y []float64, report bool) (*core.Result, error) {
	res, _, err := d.RunWithStatus(c, x, y, report)
	return res, err
}
