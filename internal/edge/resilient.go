package edge

import (
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"net"
	"time"

	"github.com/drdp/drdp/internal/dpprior"
	"github.com/drdp/drdp/internal/telemetry"
	"github.com/drdp/drdp/internal/trace"
)

// ResilientOptions configures a ResilientClient.
type ResilientOptions struct {
	// Retry paces and bounds re-attempts of failed round trips.
	// The zero value means a single attempt; see DefaultRetryPolicy.
	Retry RetryPolicy
	// Breaker trips fail-fast behavior after consecutive transport
	// failures. The zero value disables it; see DefaultBreakerConfig.
	Breaker BreakerConfig
	// DialTimeout bounds each (re)dial (0 = no bound).
	DialTimeout time.Duration
	// RoundTripTimeout bounds each request/response exchange
	// (0 = no bound). Strongly recommended over lossy links: a dropped
	// reply otherwise hangs the round trip forever.
	RoundTripTimeout time.Duration
	// Seed drives the backoff jitter; the same seed yields the same
	// retry schedule. 0 seeds from the clock.
	Seed int64
	// Logger receives structured retry/redial/breaker notices. nil picks
	// the default handler (stderr, WARN level) so real transport trouble
	// is visible out of the box; pass telemetry.Discard() to silence.
	Logger *slog.Logger
}

// TransportStats counts what the resilience machinery actually did —
// exposed so experiments and operators can see the cost of a lossy link.
type TransportStats struct {
	Dials    int // connection (re)establishments attempted
	Retries  int // round trips re-attempted after a transport failure
	Failures int // transport failures observed (dial + round trip)
	Breaker  BreakerState
}

// ResilientClient is a self-healing cloud connection. Where Client
// bricks on the first I/O error (a torn frame leaves the stream
// unusable), ResilientClient redials broken streams, retries
// failed round trips with exponential backoff and seeded jitter, and
// fails fast through a circuit breaker once the cloud looks down.
//
// Application-level rejections (*ServerError: dim mismatch, cold cloud,
// malformed task) are returned immediately — the transport worked, so
// resending the identical request cannot help. Only transport faults
// (dial errors, timeouts, resets, corrupt streams) are retried.
//
// Like Client, a ResilientClient is not safe for concurrent use; give
// each goroutine its own.
type ResilientClient struct {
	dial   func() (net.Conn, error)
	opts   ResilientOptions
	rng    *rand.Rand
	br     *breaker
	logger *slog.Logger

	// sleep is injectable so tests can run the retry schedule against a
	// fake clock.
	sleep func(time.Duration)

	c      *Client // current session; nil when disconnected
	stats  TransportStats
	parent *trace.Span // trace parent for subsequent calls
}

// SetTraceParent sets the span under which subsequent calls record their
// retry/redial/breaker activity: each do() becomes a "call <kind>" child
// span with "dial" and "rpc" grandchildren and retry/shed/fault events.
// nil (the default) keeps the client untraced at zero cost.
func (r *ResilientClient) SetTraceParent(s *trace.Span) { r.parent = s }

// DialResilient returns a resilient client for the cloud at addr.
// Dialing is lazy: no connection is made until the first round trip, so
// a cloud that is down at construction time only degrades, never blocks,
// the device.
func DialResilient(addr string, opts ResilientOptions) *ResilientClient {
	return NewResilientClient(func() (net.Conn, error) {
		conn, err := net.DialTimeout("tcp", addr, opts.DialTimeout)
		if err != nil {
			return nil, fmt.Errorf("edge: dial %s: %w", addr, err)
		}
		return conn, nil
	}, opts)
}

// NewResilientClient wraps an arbitrary dial function — compose with
// LinkProfile.Throttle or FaultConfig.Wrap for simulated links:
//
//	dial := func() (net.Conn, error) { c, err := net.Dial("tcp", addr); ... return profile.Throttle(faults.Wrap(c)), nil }
func NewResilientClient(dial func() (net.Conn, error), opts ResilientOptions) *ResilientClient {
	seed := opts.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	logger := telemetry.OrDefault(opts.Logger)
	// Chain the breaker's transition callback: telemetry gauge +
	// transition counter + event + log first, then the caller's own
	// callback, so user code always sees transitions the metrics saw.
	userCB := opts.Breaker.OnStateChange
	brCfg := opts.Breaker
	brCfg.OnStateChange = func(from, to BreakerState) {
		telemetry.BreakerState.Set(float64(to))
		telemetry.BreakerTransitionCounter(to.String()).Inc()
		telemetry.Events.RecordKV("edge-client", "breaker-transition",
			"from", from.String(), "to", to.String())
		if to == BreakerOpen {
			logger.Warn("edge: circuit breaker opened", "from", from.String())
		} else {
			logger.Info("edge: circuit breaker state change",
				"from", from.String(), "to", to.String())
		}
		if userCB != nil {
			userCB(from, to)
		}
	}
	return &ResilientClient{
		dial:   dial,
		opts:   opts,
		rng:    rand.New(rand.NewSource(seed)),
		br:     newBreaker(brCfg, nil),
		logger: logger,
		sleep:  time.Sleep,
	}
}

// Close tears down the current connection, if any. The client remains
// usable: the next round trip redials.
func (r *ResilientClient) Close() error {
	if r.c == nil {
		return nil
	}
	err := r.c.Close()
	r.c = nil
	return err
}

// TransportStats reports transport-level counters accumulated so far.
func (r *ResilientClient) TransportStats() TransportStats {
	st := r.stats
	st.Breaker = r.br.State()
	return st
}

// connect ensures a live session, dialing if necessary, and points the
// session at the current call span so its rpc spans nest correctly.
func (r *ResilientClient) connect(call *trace.Span) error {
	if r.c != nil {
		r.c.SetTraceParent(call)
		return nil
	}
	r.stats.Dials++
	telemetry.EdgeClientDials.Inc()
	sp := call.Child("dial")
	conn, err := r.dial()
	if err != nil {
		sp.EndErr(err)
		return err
	}
	c, err := NewClient(countConn{Conn: conn, sent: telemetry.EdgeClientSent, recv: telemetry.EdgeClientReceived})
	if err != nil {
		sp.EndErr(err)
		return err
	}
	sp.SetAttr(trace.Str("peer", conn.RemoteAddr().String()))
	sp.End()
	c.SetRoundTripTimeout(r.opts.RoundTripTimeout)
	c.SetTraceParent(call)
	r.c = c
	return nil
}

// do runs one request through the retry/redial/breaker machinery,
// wrapped in a "call <kind>" span when a trace parent is set.
func (r *ResilientClient) do(req *Request) (*Response, error) {
	if r.parent == nil {
		return r.doAttempts(req, nil)
	}
	call := r.parent.Child("call " + req.Kind.String())
	resp, err := r.doAttempts(req, call)
	call.EndErr(err)
	return resp, err
}

func (r *ResilientClient) doAttempts(req *Request, call *trace.Span) (*Response, error) {
	attempts := r.opts.Retry.attempts()
	var lastErr error
	lastCause := "transport"
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			r.stats.Retries++
			telemetry.EdgeClientRetries.Inc()
			delay := r.opts.Retry.Delay(attempt-1, r.rng)
			telemetry.EdgeClientBackoff.Add(delay.Seconds())
			if call != nil {
				call.Event("retry", trace.Int("attempt", int64(attempt+1)), trace.Dur("backoff", delay))
			}
			r.sleep(delay)
		}
		if err := r.br.allow(); err != nil {
			// Fail fast: the breaker is open, don't burn the retry budget
			// (or the device's time) dialing a cloud that is down.
			call.Event("breaker-open")
			telemetry.EdgeClientExhaustedBreaker.Inc()
			if lastErr != nil {
				return nil, fmt.Errorf("%w (last transport error: %v)", err, lastErr)
			}
			return nil, err
		}
		if err := r.connect(call); err != nil {
			r.stats.Failures++
			telemetry.EdgeClientFailures.Inc()
			r.br.onFailure()
			lastErr, lastCause = err, "dial"
			r.logger.Warn("edge: resilient dial failed",
				"attempt", attempt+1, "attempts", attempts, "err", err)
			continue
		}
		rtStart := time.Now()
		resp, err := r.c.roundTrip(req)
		if err == nil {
			rt := time.Since(rtStart).Seconds()
			telemetry.EdgeClientRoundtrip.Observe(rt)
			if call != nil {
				telemetry.RecordExemplar("drdp_edge_client_roundtrip_seconds", call.TraceID().String(), rt)
			}
			r.br.onSuccess()
			return resp, nil
		}
		var se *ServerError
		if errors.As(err, &se) {
			telemetry.EdgeClientRoundtrip.Observe(time.Since(rtStart).Seconds())
			// The transport round-tripped fine, so this is never a breaker
			// failure — the server is alive and answering.
			r.br.onSuccess()
			if se.Code == CodeOverloaded {
				// Load shedding is the one retryable rejection: the server
				// asked us to come back later. It also closed the connection
				// after answering, so drop the session and redial after
				// backoff.
				telemetry.EdgeClientOverloaded.Inc()
				call.Event("overloaded")
				r.c.Close()
				r.c = nil
				lastErr, lastCause = err, "overloaded"
				r.logger.Warn("edge: server overloaded; backing off",
					"kind", req.Kind.String(), "attempt", attempt+1, "attempts", attempts)
				continue
			}
			// Any other rejection is final: resending the identical request
			// cannot succeed.
			return nil, err
		}
		// Transport fault: the stream is now in an unknown state, so
		// the session is unusable — drop it and redial on the next try.
		call.Event("transport-fault", trace.Err(err))
		r.c.Close()
		r.c = nil
		r.stats.Failures++
		telemetry.EdgeClientFailures.Inc()
		r.br.onFailure()
		lastErr, lastCause = err, "transport"
		r.logger.Warn("edge: resilient round trip failed",
			"kind", req.Kind.String(), "attempt", attempt+1, "attempts", attempts, "err", err)
	}
	// Count the FINAL attempt's cause, not the first: the last failure is
	// what the operator must act on.
	telemetry.EdgeClientExhaustedCounter(lastCause).Inc()
	return nil, fmt.Errorf("edge: resilient: %s failed after %d attempts: %w", req.Kind, attempts, lastErr)
}

// FetchPrior downloads and validates the current prior, retrying
// transport faults. See Client.FetchPrior.
func (r *ResilientClient) FetchPrior(dim int) (*dpprior.Prior, uint64, error) {
	resp, err := r.do(&Request{Kind: GetPrior, Dim: dim})
	if err != nil {
		return nil, 0, err
	}
	return priorOf(resp, false)
}

// FetchPriorIfNewer is the conditional fetch. See Client.FetchPriorIfNewer.
func (r *ResilientClient) FetchPriorIfNewer(dim int, knownVersion uint64) (*dpprior.Prior, uint64, error) {
	resp, err := r.do(&Request{Kind: GetPrior, Dim: dim, KnownVersion: knownVersion})
	if err != nil {
		return nil, 0, err
	}
	return priorOf(resp, true)
}

// FetchPriorDelta is the delta refresh, retrying transport faults. See
// Client.FetchPriorDelta. A delta that fails to apply is returned as-is
// (not retried): the transport worked, and the caller's full fetch is
// the recovery path.
func (r *ResilientClient) FetchPriorDelta(dim int, knownVersion uint64, old *dpprior.Prior) (*dpprior.Prior, uint64, error) {
	resp, err := r.do(&Request{Kind: GetPriorDelta, Dim: dim, KnownVersion: knownVersion})
	if err != nil {
		return nil, 0, err
	}
	return deltaPriorOf(resp, old)
}

// ReportTask uploads a solved task posterior, retrying transport faults.
// Retries are safe: AddTask is idempotent per upload only in effect —
// a duplicate upload after an ambiguous failure adds a duplicate task,
// which biases but never corrupts the DP prior (stick-breaking
// renormalizes); we accept that over losing reports on lossy links.
func (r *ResilientClient) ReportTask(t dpprior.TaskPosterior) (uint64, error) {
	resp, err := r.do(&Request{Kind: ReportTask, Task: &t})
	if err != nil {
		return 0, err
	}
	return resp.Version, nil
}

// BatchReportTasks uploads a whole round's task posteriors in one framed
// write, retrying transport faults. Retries are safe when the server
// runs upload dedupe (cluster nodes do): tasks that landed before an
// ambiguous failure ack without a second append. See
// Client.BatchReportTasks.
func (r *ResilientClient) BatchReportTasks(ts []dpprior.TaskPosterior) (uint64, int, error) {
	if len(ts) == 0 {
		return 0, 0, nil
	}
	resp, err := r.do(&Request{Kind: BatchAddTask, Tasks: ts})
	if err != nil {
		return 0, 0, err
	}
	return resp.Version, resp.BatchDone, nil
}

// FetchPriorDeltaMin is FetchPriorDelta with a read-your-writes floor:
// minVersion names the highest prior version the edge has already
// applied, and a replica whose built prior trails it answers CodeLagging
// (surfaced as a *ServerError) instead of a stale prior. The cluster
// client falls through to the shard leader on that answer.
func (r *ResilientClient) FetchPriorDeltaMin(dim int, knownVersion, minVersion uint64, old *dpprior.Prior) (*dpprior.Prior, uint64, error) {
	resp, err := r.do(&Request{Kind: GetPriorDelta, Dim: dim, KnownVersion: knownVersion, MinVersion: minVersion})
	if err != nil {
		return nil, 0, err
	}
	return deltaPriorOf(resp, old)
}

// FetchShardMap fetches the coordinator's shard map, conditionally:
// when the map version still equals knownVersion the answer is
// (nil, version, nil) and no payload crosses the wire.
func (r *ResilientClient) FetchShardMap(knownVersion uint64) (*ShardMap, uint64, error) {
	resp, err := r.do(&Request{Kind: GetShardMap, KnownVersion: knownVersion})
	if err != nil {
		return nil, 0, err
	}
	if resp.NotModified {
		return nil, resp.Version, nil
	}
	if resp.Map == nil {
		return nil, 0, errors.New("edge: server returned empty shard map")
	}
	if err := resp.Map.Validate(); err != nil {
		return nil, 0, err
	}
	return resp.Map, resp.Version, nil
}

// Stats fetches cloud-side counters, retrying transport faults.
func (r *ResilientClient) Stats() (Stats, error) {
	resp, err := r.do(&Request{Kind: GetStats})
	if err != nil {
		return Stats{}, err
	}
	return resp.Stats, nil
}
