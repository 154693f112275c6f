package edge

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/drdp/drdp/internal/dpprior"
	"github.com/drdp/drdp/internal/store"
	"github.com/drdp/drdp/internal/telemetry"
	"github.com/drdp/drdp/internal/trace"
	"github.com/drdp/drdp/internal/wire"
)

// Server-hardening defaults.
const (
	// DefaultMaxFrameBytes bounds one decoded request frame; a hostile
	// or corrupt length prefix cannot balloon server memory past it.
	DefaultMaxFrameBytes = 16 << 20
	// DefaultIdleTimeout is how long a connection may sit idle between
	// requests before the server reclaims its handler goroutine.
	DefaultIdleTimeout = 2 * time.Minute
	// deltaHistory is how many built priors the server retains for delta
	// synchronization; clients further behind fall back to a full fetch.
	deltaHistory = 8
	// DefaultRebuildTimeout is how long one background prior rebuild may
	// run before the watchdog flags the worker as stalled.
	DefaultRebuildTimeout = 2 * time.Minute
	// shedDeadline bounds a shed connection: long enough to read one
	// request and write the CodeOverloaded answer, short enough that a
	// flood cannot pin goroutines.
	shedDeadline = 2 * time.Second
	// DefaultAckTimeout bounds a semi-synchronous AddTask's wait for
	// follower acknowledgements before it acks anyway (availability over
	// strict durability — the timeout is counted and logged).
	DefaultAckTimeout = 2 * time.Second
)

// CloudServer accumulates task posteriors in a durable store and serves
// the DP prior built from them. It is safe for concurrent connections.
//
// Serving is decoupled from building: AddTask appends to the store and
// signals a background rebuild worker, and GetPrior always answers from
// the last built prior — a request never waits behind a Gibbs rebuild,
// and an AddTask burst coalesces into however many rebuilds the worker
// can actually run. The version clients see is therefore always the
// version of the prior they were served (the built version), which
// trails the store version while a rebuild is in flight.
//
// Recent built priors are retained so GetPriorDelta can answer with the
// component-level difference against the version a client already
// holds instead of the full prior.
type CloudServer struct {
	opts   dpprior.BuildOptions
	logger *slog.Logger
	st     *store.Store
	ownSt  bool // close the store with the server

	// MaxFrameBytes caps the size of one request frame (default
	// DefaultMaxFrameBytes; set before Serve, negative = unlimited).
	MaxFrameBytes int64
	// IdleTimeout bounds the gap between requests on a connection
	// (default DefaultIdleTimeout; set before Serve, negative = none).
	IdleTimeout time.Duration
	// MaxConns caps concurrently served connections (set before Serve;
	// 0 = unlimited). A connection over the cap is answered with one
	// CodeOverloaded response and closed — clients back off and retry
	// instead of queueing behind a saturated server.
	MaxConns int
	// HandlerTimeout bounds one request dispatch (set before Serve;
	// 0 = none). A dispatch that exceeds it is abandoned to finish in the
	// background (an accepted task is never dropped) and the client gets
	// CodeOverloaded.
	HandlerTimeout time.Duration
	// syncReplicas > 0 makes AddTask semi-synchronous: the append is
	// acknowledged only once that many followers have durably applied it
	// (their PullLog AfterSeq covers the new version), or ackTimeout
	// expires. Set through SetSemiSync (safe on a live server — failover
	// shrinks the quorum when replicas die).
	syncReplicas atomic.Int64
	ackTimeoutNs atomic.Int64

	// mu serializes task validation + append (the store itself is safe,
	// but dimension checks must be atomic with the append they guard).
	// It also guards fps, the upload-dedupe fingerprint set.
	mu  sync.Mutex
	fps map[uint64]uint64 // fingerprint → seq; nil = dedupe off

	// follower marks this replica read-only for clients: writes answer
	// CodeNotLeader, the store advances only through ApplyReplicated.
	follower atomic.Bool

	// serveDelayNs stalls every dispatch by this long — the gray-failure
	// chaos hook: the replica stays alive (probes answer, TCP accepts)
	// but every answer is slow, which is exactly the failure mode the
	// coordinator's latency scoring must catch. Set via SetServeDelay.
	serveDelayNs atomic.Int64

	// ackMu guards per-follower acknowledgements; ackCh is closed and
	// replaced whenever an ack advances, releasing semi-sync waiters.
	ackMu sync.Mutex
	acks  map[int]uint64
	ackCh chan struct{}

	// priorMu guards the served prior, its version and the history ring.
	priorMu   sync.Mutex
	prior     *dpprior.Prior
	built     uint64 // store version the served prior corresponds to
	history   map[uint64]*dpprior.Prior
	histOrder []uint64
	builtCond *sync.Cond // broadcast whenever built advances or the server closes

	// buildMu serializes cold-start synchronous builds.
	buildMu sync.Mutex

	// admMu guards the admission configuration (settable on a live server).
	admMu sync.Mutex
	adm   AdmissionConfig

	// Admission counters surfaced through Stats. acceptedN/quarantinedN
	// are the current totals over stored tasks (refreshed by admit);
	// rejected is cumulative.
	acceptedN    atomic.Int64
	quarantinedN atomic.Int64
	rejected     atomic.Int64

	// Rebuild watchdog state: buildingSince is the UnixNano start of the
	// in-flight build (0 = idle); stalled latches the watchdog verdict.
	buildingSince    atomic.Int64
	rebuildTimeoutNs atomic.Int64
	stalled          atomic.Bool
	healthStop       func()

	rebuildCh chan struct{} // capacity 1: pending-rebuild signal
	stopCh    chan struct{}
	workerWg  sync.WaitGroup

	lnMu   sync.Mutex
	ln     net.Listener
	closed bool // set by Close; Serve must not register conns after this
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup

	// nodeName labels this server's spans so an in-process cluster's
	// shared flight recorder can tell replicas apart (e.g. "s0r1").
	nodeName atomic.Pointer[string]
	// tracer receives this server's span fragments; nil uses
	// trace.Default. Only requests carrying a TraceID allocate spans.
	tracer *trace.Tracer

	// panicHook, when set, runs before dispatch — test seam for the
	// per-connection panic recovery.
	panicHook func(*Request)
	// buildHook, when set, runs at the start of every background rebuild
	// — test seam for asserting non-blocking serving during a rebuild.
	// Guarded by priorMu so tests can install it on a live server.
	buildHook func(version uint64)
}

// NewCloudServer creates a server backed by an in-memory (non-durable)
// store. Seed tasks may be nil. A nil logger picks the default handler
// (stderr, WARN level) so panics and decode errors are visible by
// default; pass telemetry.Discard() to silence.
func NewCloudServer(seed []dpprior.TaskPosterior, opts dpprior.BuildOptions, logger *slog.Logger) (*CloudServer, error) {
	st, err := store.Open(store.Options{Logger: logger})
	if err != nil {
		return nil, err
	}
	return NewCloudServerWithStore(st, seed, opts, logger)
}

// NewCloudServerWithStore creates a server on an opened store — the
// durable path: tasks the store recovered are served immediately, and
// every reported task is appended before it is acknowledged. The server
// owns the store from here on: Close syncs and closes it. Seed tasks
// are appended only when the store is empty, so re-seeding a recovered
// store never duplicates tasks.
func NewCloudServerWithStore(st *store.Store, seed []dpprior.TaskPosterior, opts dpprior.BuildOptions, logger *slog.Logger) (*CloudServer, error) {
	if opts.Alpha <= 0 {
		return nil, fmt.Errorf("edge: NewCloudServer: alpha %g must be positive", opts.Alpha)
	}
	if st == nil {
		return nil, errors.New("edge: NewCloudServerWithStore: nil store")
	}
	logger = telemetry.OrDefault(logger)
	s := &CloudServer{
		opts:          opts,
		logger:        logger,
		st:            st,
		ownSt:         true,
		MaxFrameBytes: DefaultMaxFrameBytes,
		IdleTimeout:   DefaultIdleTimeout,
		history:       make(map[uint64]*dpprior.Prior, deltaHistory),
		rebuildCh:     make(chan struct{}, 1),
		stopCh:        make(chan struct{}),
		acks:          make(map[int]uint64),
		ackCh:         make(chan struct{}),
	}
	s.builtCond = sync.NewCond(&s.priorMu)
	s.rebuildTimeoutNs.Store(int64(DefaultRebuildTimeout))
	if st.Version() == 0 {
		for i, t := range seed {
			if _, err := s.appendTask(t); err != nil {
				return nil, fmt.Errorf("edge: seed task %d: %w", i, err)
			}
		}
	}
	telemetry.ServerTasks.Set(float64(st.Len()))
	telemetry.ServerPriorVersion.Set(float64(st.Version()))
	s.healthStop = telemetry.RegisterHealth("cloud-rebuild", func() error {
		if s.stalled.Load() {
			return errors.New("prior rebuild worker stalled")
		}
		return nil
	})
	s.workerWg.Add(2)
	go s.rebuildLoop()
	go s.watchdog()
	s.kickRebuild()
	return s, nil
}

// AdmissionConfig enables statistical quarantine: each undecided stored
// task is scored under the currently served prior (dpprior.Judge) and
// outliers are held out of rebuilds. Verdicts persist in the store, so a
// restart keeps them.
type AdmissionConfig struct {
	// Quarantine turns the admission judge on.
	Quarantine bool
	// TrimFrac caps the fraction of stored tasks one judgment round may
	// quarantine (0 = dpprior default).
	TrimFrac float64
	// MinScored is the smallest task population worth judging
	// (0 = dpprior default).
	MinScored int
}

// SetAdmission installs the admission configuration (safe on a live
// server) and kicks a rebuild so it takes effect immediately.
func (s *CloudServer) SetAdmission(cfg AdmissionConfig) {
	s.admMu.Lock()
	s.adm = cfg
	s.admMu.Unlock()
	s.kickRebuild()
}

// SetRebuildTimeout adjusts the watchdog's stall threshold (safe on a
// live server; non-positive values are ignored).
func (s *CloudServer) SetRebuildTimeout(d time.Duration) {
	if d > 0 {
		s.rebuildTimeoutNs.Store(int64(d))
	}
}

// Store exposes the underlying task store (read-mostly: recovery info,
// forced snapshots).
func (s *CloudServer) Store() *store.Store { return s.st }

// SetNodeName labels this server's trace spans (safe on a live server).
// Cluster nodes use it so a shared in-process flight recorder can tell
// replicas apart.
func (s *CloudServer) SetNodeName(name string) { s.nodeName.Store(&name) }

// NodeName returns the span label set by SetNodeName ("" by default).
func (s *CloudServer) NodeName() string {
	if p := s.nodeName.Load(); p != nil {
		return *p
	}
	return ""
}

// SetTracer points the server at a specific trace recorder (tests); nil
// (the default) records into trace.Default.
func (s *CloudServer) SetTracer(t *trace.Tracer) { s.tracer = t }

func (s *CloudServer) traceRecorder() *trace.Tracer {
	if s.tracer != nil {
		return s.tracer
	}
	return trace.Default
}

// appendTask validates and appends one task under mu. Validation is the
// admission gate of the whole system: nothing non-finite, mis-shaped,
// non-PSD or mis-dimensioned ever reaches the store or a rebuild.
func (s *CloudServer) appendTask(t dpprior.TaskPosterior) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	dim := 0
	if tasks, _ := s.st.View(); len(tasks) > 0 {
		dim = len(tasks[0].Mu)
	}
	if err := t.Validate(dim); err != nil {
		telemetry.ServerAdmitRejected.Inc()
		s.rejected.Add(1)
		return 0, fmt.Errorf("edge: AddTask: %w", err)
	}
	if s.fps != nil {
		if _, seen := s.fps[t.Fingerprint()]; seen {
			// An ambiguous retry: the content is already durable, so ack
			// with the current version instead of appending a duplicate.
			telemetry.ServerDeduped.Inc()
			return s.st.Version(), nil
		}
	}
	v, err := s.st.Append(t)
	if err != nil {
		return 0, fmt.Errorf("edge: AddTask: %w", err)
	}
	if s.fps != nil {
		s.fps[t.Fingerprint()] = v
	}
	telemetry.ServerTasks.Set(float64(s.st.Len()))
	telemetry.ServerPriorVersion.Set(float64(v))
	return v, nil
}

// AddTask durably incorporates one task posterior (also callable
// in-process) and returns the new store version. The served prior
// catches up asynchronously; use WaitCaughtUp to block until it has.
func (s *CloudServer) AddTask(t dpprior.TaskPosterior) (uint64, error) {
	return s.addTask(t, nil)
}

// addTask is AddTask with the caller's span: the durable append and the
// semi-sync acknowledgement wait each become a child span, so a trace of
// a slow upload shows whether the disk or the follower quorum ate the
// time.
func (s *CloudServer) addTask(t dpprior.TaskPosterior, sp *trace.Span) (uint64, error) {
	ap := sp.Child("store-append")
	v, err := s.appendTask(t)
	if err != nil {
		ap.EndErr(err)
		return 0, err
	}
	ap.SetAttr(trace.Int("version", int64(v)))
	ap.End()
	s.kickRebuild()
	if s.syncReplicas.Load() > 0 && !s.IsFollower() {
		aw := sp.Child("ack-wait", trace.Int("version", int64(v)))
		s.waitAcked(v)
		aw.End()
	}
	return v, nil
}

// addTasks appends a round's tasks in upload order, then pays the
// cross-cutting costs once for the whole batch: one rebuild kick and —
// under semi-sync replication — one quorum wait on the final version,
// instead of per task. A validation rejection stops the batch; the tasks
// already appended stay appended (they are durable) and the returned
// count tells the client exactly where the batch stopped. Retrying a
// batch is safe under upload dedupe: already-stored tasks ack without a
// second append.
func (s *CloudServer) addTasks(ts []dpprior.TaskPosterior, sp *trace.Span) (uint64, int, error) {
	ap := sp.Child("store-append-batch", trace.Int("tasks", int64(len(ts))))
	var version uint64
	done := 0
	var err error
	for i := range ts {
		var v uint64
		if v, err = s.appendTask(ts[i]); err != nil {
			err = fmt.Errorf("batch task %d: %w", i, err)
			break
		}
		version = v
		done++
	}
	if done == 0 {
		ap.EndErr(err)
		return 0, 0, err
	}
	ap.SetAttr(trace.Int("version", int64(version)))
	ap.EndErr(err)
	s.kickRebuild()
	if s.syncReplicas.Load() > 0 && !s.IsFollower() {
		aw := sp.Child("ack-wait", trace.Int("version", int64(version)))
		s.waitAcked(version)
		aw.End()
	}
	return version, done, err
}

// kickRebuild signals the worker; a signal is already pending when the
// channel is full, which is exactly the coalescing we want.
func (s *CloudServer) kickRebuild() {
	select {
	case s.rebuildCh <- struct{}{}:
	default:
	}
}

// rebuildLoop is the background build worker: it folds new tasks into a
// freshly built prior whenever the store has moved past the served
// version, without ever holding a lock across the (expensive) build.
func (s *CloudServer) rebuildLoop() {
	defer s.workerWg.Done()
	for {
		select {
		case <-s.stopCh:
			return
		case <-s.rebuildCh:
		}
		for {
			tasks, seqs, v := s.st.ViewRecords()
			s.priorMu.Lock()
			built := s.built
			hook := s.buildHook
			s.priorMu.Unlock()
			if v == 0 || v == built {
				break
			}
			// Published before the hook so the watchdog times the whole
			// build, including anything a test seam blocks on.
			s.buildingSince.Store(time.Now().UnixNano())
			if hook != nil {
				hook(v)
			}
			// The rebuild gets its own head-sampled trace: quarantine
			// verdicts land on it as events, so a post-mortem can see which
			// uploads the admission judge held out of the served prior.
			rsp := s.traceRecorder().StartTrace("rebuild",
				trace.Str("node", s.NodeName()), trace.Int("version", int64(v)), trace.Int("tasks", int64(len(tasks))))
			admitted := s.admit(tasks, seqs, true, rsp)
			if len(admitted) == 0 {
				// Everything stored is quarantined: keep serving whatever
				// prior exists, but mark the version covered so WaitCaughtUp
				// waiters are released.
				rsp.Event("all-quarantined")
				rsp.End()
				s.buildingSince.Store(0)
				s.advanceBuilt(v)
				continue
			}
			bsp := rsp.Child("build", trace.Int("admitted", int64(len(admitted))))
			p, err := dpprior.Build(admitted, s.opts)
			s.buildingSince.Store(0)
			if err != nil {
				// Leave the previous prior serving; the next AddTask (or
				// cold-start fetch) retries.
				bsp.EndErr(err)
				rsp.EndErr(err)
				s.logger.Error("edge: background prior rebuild failed", "version", v, "err", err)
				break
			}
			bsp.End()
			rsp.End()
			s.setBuilt(p, v)
			select {
			case <-s.stopCh:
				return
			default:
			}
		}
	}
}

// watchdog detects a wedged rebuild worker: when one build runs past the
// rebuild timeout, the stall is latched into telemetry (gauge + event)
// and the /healthz readiness check, and cleared once the worker moves
// again.
func (s *CloudServer) watchdog() {
	defer s.workerWg.Done()
	// The poll interval derives from the mutable rebuild timeout, so a
	// plain Ticker won't do — but the timer itself is reused across laps
	// instead of allocating a fresh time.After every poll.
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()
	for {
		timeout := time.Duration(s.rebuildTimeoutNs.Load())
		poll := timeout / 4
		if poll < 10*time.Millisecond {
			poll = 10 * time.Millisecond
		}
		if poll > time.Second {
			poll = time.Second
		}
		timer.Reset(poll)
		select {
		case <-s.stopCh:
			if !timer.Stop() {
				<-timer.C
			}
			return
		case <-timer.C:
		}
		since := s.buildingSince.Load()
		stalled := since != 0 && time.Since(time.Unix(0, since)) > timeout
		if stalled {
			if !s.stalled.Swap(true) {
				telemetry.ServerRebuildStalled.Set(1)
				telemetry.Events.RecordKV("edge_server", "rebuild-stalled",
					"for", time.Since(time.Unix(0, since)).Round(time.Millisecond).String())
				s.logger.Error("edge: prior rebuild worker stalled",
					"for", time.Since(time.Unix(0, since)).Round(time.Millisecond))
			}
		} else if s.stalled.Swap(false) {
			telemetry.ServerRebuildStalled.Set(0)
			s.logger.Info("edge: prior rebuild worker recovered")
		}
	}
}

// admit applies the admission judge to the stored task set and returns
// the tasks a rebuild may use, in store order — order is what keeps a
// seeded Build byte-identical to a clean-only baseline when the admitted
// sets match. Undecided tasks are judged against the currently served
// prior; new verdicts are persisted (persist=false for the synchronous
// cold-start path, which must not race the worker's verdict writes).
// When the population is still too small to judge, undecided tasks are
// provisionally admitted and re-judged on a later round. A candidate
// the judge flagged but could not quarantine within the trim budget is
// the opposite of provisional: it gets no verdict, is held out of this
// rebuild, and is re-judged when the population (and so the budget)
// grows. New verdicts are recorded as events on sp (nil = untraced).
func (s *CloudServer) admit(tasks []dpprior.TaskPosterior, seqs []uint64, persist bool, sp *trace.Span) []dpprior.TaskPosterior {
	s.admMu.Lock()
	cfg := s.adm
	s.admMu.Unlock()
	if !cfg.Quarantine {
		s.acceptedN.Store(int64(len(tasks)))
		s.quarantinedN.Store(0)
		return tasks
	}
	verdicts := s.st.Verdicts()
	var acceptedRef, undecided []dpprior.TaskPosterior
	var undecidedSeqs []uint64
	for i, seq := range seqs {
		q, decided := verdicts[seq]
		switch {
		case !decided:
			undecided = append(undecided, tasks[i])
			undecidedSeqs = append(undecidedSeqs, seq)
		case !q:
			acceptedRef = append(acceptedRef, tasks[i])
		}
	}
	deferredSeq := make(map[uint64]bool)
	if len(undecided) > 0 {
		var served *dpprior.Compiled
		s.priorMu.Lock()
		p := s.prior
		s.priorMu.Unlock()
		if p != nil {
			if c, err := dpprior.Compile(p); err == nil {
				served = c
			}
		}
		opts := dpprior.AdmissionOptions{TrimFrac: cfg.TrimFrac, MinScored: cfg.MinScored}
		if q, def, ok := dpprior.Judge(served, acceptedRef, undecided, opts); ok {
			newVerdicts := make(map[uint64]bool, len(undecided))
			for i, quarantined := range q {
				if def[i] {
					deferredSeq[undecidedSeqs[i]] = true
					telemetry.ServerAdmitDeferred.Inc()
					sp.Event("verdict", trace.Int("seq", int64(undecidedSeqs[i])), trace.Str("verdict", "deferred"))
					continue
				}
				newVerdicts[undecidedSeqs[i]] = quarantined
				if quarantined {
					telemetry.ServerAdmitQuarantined.Inc()
					sp.Event("verdict", trace.Int("seq", int64(undecidedSeqs[i])), trace.Str("verdict", "quarantined"))
				} else {
					telemetry.ServerAdmitAccepted.Inc()
				}
			}
			if persist {
				if err := s.st.SetVerdicts(newVerdicts); err != nil {
					// The verdicts still hold for this rebuild; only their
					// durability is degraded.
					s.logger.Warn("edge: persisting admission verdicts failed", "err", err)
				}
			}
			for seq, quarantined := range newVerdicts {
				verdicts[seq] = quarantined
			}
		}
	}
	admitted := make([]dpprior.TaskPosterior, 0, len(tasks))
	for i, seq := range seqs {
		if verdicts[seq] || deferredSeq[seq] {
			continue
		}
		admitted = append(admitted, tasks[i])
	}
	s.acceptedN.Store(int64(len(admitted)))
	s.quarantinedN.Store(int64(len(tasks) - len(admitted)))
	return admitted
}

// advanceBuilt marks a store version covered without publishing a new
// prior (used when admission leaves nothing to build from).
func (s *CloudServer) advanceBuilt(v uint64) {
	s.priorMu.Lock()
	if v > s.built {
		s.built = v
		s.builtCond.Broadcast()
	}
	s.priorMu.Unlock()
}

// setBuilt publishes a newly built prior and retains it for delta sync.
func (s *CloudServer) setBuilt(p *dpprior.Prior, v uint64) {
	s.priorMu.Lock()
	if v > s.built || s.prior == nil {
		s.prior = p
		s.built = v
		s.history[v] = p
		s.histOrder = append(s.histOrder, v)
		for len(s.histOrder) > deltaHistory {
			delete(s.history, s.histOrder[0])
			s.histOrder = s.histOrder[1:]
		}
		s.builtCond.Broadcast()
	}
	s.priorMu.Unlock()
	telemetry.ServerRebuilds.Inc()
}

// errNoTasks marks the cold-start condition; dispatch maps it to
// CodeNoTasks so clients see ErrNoPrior instead of an opaque string.
var errNoTasks = errors.New("edge: no tasks reported yet")

// Prior returns the served prior and its (built) version without waiting
// for in-flight rebuilds. The only time it builds synchronously is cold
// start: tasks exist but no prior has ever been built. It fails when no
// tasks have been reported yet.
func (s *CloudServer) Prior() (*dpprior.Prior, uint64, error) {
	return s.servedPriorAt(nil)
}

// servedPriorAt is Prior with the requesting span: a cold-start build
// triggered by the request shows up as a "cold-build" child instead of
// unexplained latency.
func (s *CloudServer) servedPriorAt(sp *trace.Span) (*dpprior.Prior, uint64, error) {
	s.priorMu.Lock()
	p, built := s.prior, s.built
	s.priorMu.Unlock()
	if p != nil {
		return p, built, nil
	}
	return s.buildCold(sp)
}

// buildCold performs the one synchronous build: the first request after
// tasks exist but before the worker has produced a prior. Serialized so
// a thundering herd of first fetches runs one build, not N.
func (s *CloudServer) buildCold(sp *trace.Span) (*dpprior.Prior, uint64, error) {
	s.buildMu.Lock()
	defer s.buildMu.Unlock()
	s.priorMu.Lock()
	if s.prior != nil {
		p, built := s.prior, s.built
		s.priorMu.Unlock()
		return p, built, nil
	}
	s.priorMu.Unlock()
	tasks, seqs, v := s.st.ViewRecords()
	if v == 0 {
		return nil, 0, errNoTasks
	}
	cb := sp.Child("cold-build", trace.Int("version", int64(v)))
	admitted := s.admit(tasks, seqs, false, cb)
	if len(admitted) == 0 {
		cb.EndErr(errNoTasks)
		return nil, 0, errNoTasks
	}
	p, err := dpprior.Build(admitted, s.opts)
	if err != nil {
		err = fmt.Errorf("edge: rebuild prior: %w", err)
		cb.EndErr(err)
		return nil, 0, err
	}
	cb.End()
	s.setBuilt(p, v)
	return p, v, nil
}

// WaitCaughtUp blocks until the served prior covers every task appended
// before the call (or the server closes). Tests and deterministic
// drivers use it to get read-your-writes freshness across the async
// rebuild boundary.
func (s *CloudServer) WaitCaughtUp() {
	_, target := s.st.View()
	if target == 0 {
		return
	}
	s.kickRebuild()
	s.priorMu.Lock()
	defer s.priorMu.Unlock()
	for s.built < target {
		select {
		case <-s.stopCh:
			return
		default:
		}
		s.builtCond.Wait()
	}
}

// priorAt returns the retained prior for an exact version, if the
// history ring still holds it.
func (s *CloudServer) priorAt(version uint64) *dpprior.Prior {
	s.priorMu.Lock()
	defer s.priorMu.Unlock()
	return s.history[version]
}

// Stats returns current counters.
func (s *CloudServer) Stats() Stats {
	st := Stats{
		Tasks:        s.st.Len(),
		PriorVersion: s.st.Version(),
		Accepted:     int(s.acceptedN.Load()),
		Quarantined:  int(s.quarantinedN.Load()),
		Rejected:     int(s.rejected.Load()),
	}
	if p, _, err := s.Prior(); err == nil {
		st.Components = len(p.Components)
		st.WireBytes = p.WireSize()
	}
	return st
}

// Serve accepts connections on ln until Close is called. It blocks; run
// it in a goroutine. Each connection is handled concurrently.
func (s *CloudServer) Serve(ln net.Listener) error {
	s.lnMu.Lock()
	if s.ln != nil {
		s.lnMu.Unlock()
		return errors.New("edge: Serve: already serving")
	}
	if s.closed {
		s.lnMu.Unlock()
		ln.Close()
		return errors.New("edge: Serve: server already closed")
	}
	s.ln = ln
	s.lnMu.Unlock()

	for {
		conn, err := ln.Accept()
		if err != nil {
			// Closed listener means orderly shutdown.
			if errors.Is(err, net.ErrClosed) {
				s.wg.Wait()
				return nil
			}
			return fmt.Errorf("edge: accept: %w", err)
		}
		s.lnMu.Lock()
		if s.closed {
			// Close already swept s.conns; a connection registered now
			// would never be closed. Drop it instead.
			s.lnMu.Unlock()
			conn.Close()
			continue
		}
		if s.conns == nil {
			s.conns = make(map[net.Conn]struct{})
		}
		s.conns[conn] = struct{}{}
		// Over the cap the connection is still registered (Close must be
		// able to sweep it) but it gets the shedding handler: one
		// CodeOverloaded answer, then close.
		over := s.MaxConns > 0 && len(s.conns) > s.MaxConns
		s.lnMu.Unlock()
		telemetry.ServerConnsTotal.Inc()
		telemetry.ServerConnsActive.Add(1)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer telemetry.ServerConnsActive.Add(-1)
			defer func() {
				s.lnMu.Lock()
				delete(s.conns, conn)
				s.lnMu.Unlock()
			}()
			if over {
				s.shed(conn)
			} else {
				s.handle(conn)
			}
		}()
	}
}

// shed answers one request on an over-the-cap connection with
// CodeOverloaded and closes it. Reading the request before answering
// (instead of slamming the connection shut at accept) gives the client a
// classifiable, retryable rejection rather than a bare reset.
func (s *CloudServer) shed(conn net.Conn) {
	defer conn.Close()
	telemetry.ServerShedMaxConns.Inc()
	s.logger.Warn("edge: connection limit reached; shedding",
		"remote", conn.RemoteAddr().String(), "max-conns", s.MaxConns)
	if err := conn.SetDeadline(time.Now().Add(shedDeadline)); err != nil {
		return
	}
	sc, err := s.openConn(conn)
	if err != nil {
		return
	}
	defer sc.release()
	var req Request
	if err := sc.dec.DecodeRequest(&req); err != nil {
		return
	}
	_ = sc.enc.EncodeResponse(&Response{
		Err:  "server overloaded: connection limit reached",
		Code: CodeOverloaded,
	})
}

// ListenAndServe listens on addr (e.g. "127.0.0.1:0") and serves.
// The chosen address is reported through addrCh before serving begins,
// when addrCh is non-nil.
func (s *CloudServer) ListenAndServe(addr string, addrCh chan<- string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("edge: listen %s: %w", addr, err)
	}
	if addrCh != nil {
		addrCh <- ln.Addr().String()
	}
	return s.Serve(ln)
}

// Close stops accepting, closes active connections (clients see a clean
// connection error on their next round trip), stops the rebuild worker,
// and syncs and closes the task store so every acknowledged task is on
// disk. It waits for in-flight handlers.
func (s *CloudServer) Close() error {
	s.lnMu.Lock()
	alreadyClosed := s.closed
	s.closed = true
	ln := s.ln
	for conn := range s.conns {
		conn.Close()
	}
	s.lnMu.Unlock()

	var err error
	if ln != nil {
		err = ln.Close()
		s.wg.Wait()
	}
	if !alreadyClosed {
		close(s.stopCh)
		s.workerWg.Wait()
		if s.healthStop != nil {
			s.healthStop()
		}
		s.priorMu.Lock()
		s.builtCond.Broadcast() // release WaitCaughtUp waiters
		s.priorMu.Unlock()
		if s.ownSt {
			if serr := s.st.Close(); err == nil {
				err = serr
			}
		}
	}
	return err
}

// serverConn is one accepted connection's framed codec state.
type serverConn struct {
	dec *wire.Decoder
	enc *wire.Encoder
}

func (c *serverConn) release() { c.dec.Release(); c.enc.Release() }

// openConn reads the client preamble and sets up the connection's
// codec. The frame decoder enforces MaxFrameBytes before it allocates.
// A wrong version is answered with one CodeBadRequest naming both
// versions; any preamble failure other than a peer that closed without
// a byte counts as a decode error. The caller must have armed a read
// deadline if it wants the preamble read bounded.
func (s *CloudServer) openConn(conn net.Conn) (*serverConn, error) {
	cc := countConn{Conn: conn, sent: telemetry.ServerSent, recv: telemetry.ServerReceived}
	br := bufio.NewReader(cc)
	sc := &serverConn{dec: wire.NewDecoder(br, s.MaxFrameBytes), enc: wire.NewEncoder(cc)}
	if err := wire.AcceptPreamble(br, sc.enc); err != nil {
		sc.release()
		if !errors.Is(err, io.EOF) {
			telemetry.ServerDecodeErrors.Inc()
			s.logger.Warn("edge: bad connection preamble",
				"remote", conn.RemoteAddr().String(), "err", err)
		}
		return nil, err
	}
	return sc, nil
}

func (s *CloudServer) handle(conn net.Conn) {
	defer conn.Close()
	// A panicking handler must cost one connection, not the fleet's cloud.
	defer func() {
		if r := recover(); r != nil {
			telemetry.ServerPanics.Inc()
			s.logger.Error("edge: panic in connection handler",
				"remote", conn.RemoteAddr().String(), "panic", r)
		}
	}()
	// The preamble is this connection's first read; arm the idle
	// deadline first so a silent peer cannot pin the goroutine in it.
	if s.IdleTimeout > 0 {
		if err := conn.SetReadDeadline(time.Now().Add(s.IdleTimeout)); err != nil {
			return
		}
	}
	sc, err := s.openConn(conn)
	if err != nil {
		return
	}
	defer sc.release()
	for {
		if s.IdleTimeout > 0 {
			// A peer that goes silent must not pin this goroutine forever.
			if err := conn.SetReadDeadline(time.Now().Add(s.IdleTimeout)); err != nil {
				return
			}
		}
		var req Request
		if err := sc.dec.DecodeRequest(&req); err != nil {
			if !errors.Is(err, io.EOF) {
				telemetry.ServerDecodeErrors.Inc()
				s.logger.Warn("edge: decode request failed",
					"remote", conn.RemoteAddr().String(), "err", err)
			}
			return
		}
		start := time.Now()
		// Join the caller's trace only when the request carries one: the
		// untraced path (TraceID 0) allocates no spans.
		var sp *trace.Span
		if req.TraceID != 0 {
			sp = s.traceRecorder().Join(req.TraceID, req.ParentSpan,
				"serve "+req.Kind.String(), trace.Str("node", s.NodeName()))
		}
		resp := s.serveRequest(&req, sp)
		sp.EndErr(errOf(resp))
		telemetry.ServerReqCounter(req.Kind.String()).Inc()
		served := time.Since(start).Seconds()
		telemetry.ServerRequestSeconds.Observe(served)
		if sp != nil {
			telemetry.RecordExemplar("drdp_edge_server_request_seconds", sp.TraceID().String(), served)
		}
		if err := sc.enc.EncodeResponse(resp); err != nil {
			s.logger.Warn("edge: encode response failed",
				"remote", conn.RemoteAddr().String(), "err", err)
			return
		}
	}
}

// serveRequest runs one dispatch under the handler deadline. Without a
// deadline it dispatches inline (a panic propagates to handle's
// per-connection recovery, costing the connection). With one, the
// dispatch runs in its own goroutine: on timeout the client gets
// CodeOverloaded immediately while the dispatch finishes in the
// background — an AddTask that was going to commit still commits, so
// shedding never drops an already-accepted task.
func (s *CloudServer) serveRequest(req *Request, sp *trace.Span) *Response {
	if s.HandlerTimeout <= 0 {
		if s.panicHook != nil {
			s.panicHook(req)
		}
		telemetry.ServerInflight.Add(1)
		defer telemetry.ServerInflight.Add(-1)
		return s.dispatch(req, sp)
	}
	done := make(chan *Response, 1)
	go func() {
		telemetry.ServerInflight.Add(1)
		defer telemetry.ServerInflight.Add(-1)
		defer func() {
			if r := recover(); r != nil {
				telemetry.ServerPanics.Inc()
				s.logger.Error("edge: panic in request dispatch", "panic", r)
				done <- &Response{Err: "internal error", Code: CodeInternal}
			}
		}()
		if s.panicHook != nil {
			s.panicHook(req)
		}
		done <- s.dispatch(req, sp)
	}()
	timer := time.NewTimer(s.HandlerTimeout)
	defer timer.Stop()
	select {
	case resp := <-done:
		return resp
	case <-timer.C:
		telemetry.ServerShedTimeout.Inc()
		sp.Event("shed", trace.Str("reason", "handler-timeout"))
		s.logger.Warn("edge: request exceeded handler deadline; shedding",
			"kind", req.Kind.String(), "deadline", s.HandlerTimeout)
		return &Response{
			Err:  "server overloaded: handler deadline exceeded",
			Code: CodeOverloaded,
		}
	}
}

// servedPrior resolves the current prior for a fetch-style request,
// mapping errors to protocol responses (nil means success).
func (s *CloudServer) servedPrior(req *Request, sp *trace.Span) (*dpprior.Prior, uint64, *Response) {
	p, version, err := s.servedPriorAt(sp)
	if err != nil {
		code := CodeInternal
		if errors.Is(err, errNoTasks) {
			code = CodeNoTasks
		}
		return nil, 0, &Response{Err: err.Error(), Code: code}
	}
	if req.Dim != 0 && req.Dim != p.Dim {
		return nil, 0, &Response{
			Err:  fmt.Sprintf("prior dim %d does not match requested %d", p.Dim, req.Dim),
			Code: CodeBadRequest,
		}
	}
	if req.MinVersion != 0 && version < req.MinVersion {
		// Read-your-writes gate: this replica's built prior trails one the
		// edge has already applied. Serving it would roll the edge back,
		// so refuse and let the client fall through to a fresher replica.
		telemetry.ServerLagging.Inc()
		sp.Event("lagging", trace.Int("built", int64(version)), trace.Int("floor", int64(req.MinVersion)))
		return nil, 0, &Response{
			Err:     fmt.Sprintf("replica prior version %d trails required %d", version, req.MinVersion),
			Code:    CodeLagging,
			Version: version,
		}
	}
	return p, version, nil
}

// SetServeDelay makes every subsequent dispatch sleep for d before
// answering (0 restores normal service). Safe on a live server. This is
// the gray-failure injection point: unlike killing the process, the
// replica keeps accepting connections and answering probes — just
// slowly.
func (s *CloudServer) SetServeDelay(d time.Duration) { s.serveDelayNs.Store(int64(d)) }

func (s *CloudServer) dispatch(req *Request, sp *trace.Span) *Response {
	if d := s.serveDelayNs.Load(); d > 0 {
		time.Sleep(time.Duration(d))
	}
	switch req.Kind {
	case GetPrior:
		p, version, errResp := s.servedPrior(req, sp)
		if errResp != nil {
			return errResp
		}
		if req.KnownVersion != 0 && req.KnownVersion == version {
			telemetry.ServerPriorNotModified.Inc()
			sp.Event("prior", trace.Str("payload", "not-modified"), trace.Int("version", int64(version)))
			return &Response{Version: version, NotModified: true}
		}
		telemetry.ServerPriorFull.Inc()
		sp.Event("prior", trace.Str("payload", "full"), trace.Int("version", int64(version)))
		return &Response{Prior: p, Version: version}
	case GetPriorDelta:
		p, version, errResp := s.servedPrior(req, sp)
		if errResp != nil {
			return errResp
		}
		if req.KnownVersion != 0 && req.KnownVersion == version {
			telemetry.ServerPriorNotModified.Inc()
			sp.Event("prior", trace.Str("payload", "not-modified"), trace.Int("version", int64(version)))
			return &Response{Version: version, NotModified: true}
		}
		if old := s.priorAt(req.KnownVersion); old != nil {
			delta := dpprior.Diff(old, p, req.KnownVersion, version)
			// A delta only ships when it actually beats the full prior —
			// a rebuild that changed every component degenerates to Adds
			// and the full payload is the cheaper, simpler answer.
			if saved := p.WireSize() - delta.WireSize(); saved > 0 {
				telemetry.ServerPriorDelta.Inc()
				telemetry.ServerDeltaSavedBytes.Add(float64(saved))
				sp.Event("prior", trace.Str("payload", "delta"), trace.Int("version", int64(version)))
				return &Response{Delta: delta, Version: version}
			}
		}
		// Version gap too old, diverged, or delta not worth it: full prior.
		telemetry.ServerPriorFull.Inc()
		sp.Event("prior", trace.Str("payload", "full"), trace.Int("version", int64(version)))
		return &Response{Prior: p, Version: version}
	case ReportTask:
		if req.Task == nil {
			return &Response{Err: "report-task: missing task", Code: CodeBadRequest}
		}
		if s.IsFollower() {
			telemetry.ServerNotLeader.Inc()
			sp.Event("not-leader")
			return &Response{Err: errNotLeader.Error(), Code: CodeNotLeader}
		}
		version, err := s.addTask(*req.Task, sp)
		if err != nil {
			return &Response{Err: err.Error(), Code: CodeBadRequest}
		}
		return &Response{Version: version}
	case BatchAddTask:
		if len(req.Tasks) == 0 {
			return &Response{Err: "batch-add-task: empty batch", Code: CodeBadRequest}
		}
		if s.IsFollower() {
			telemetry.ServerNotLeader.Inc()
			sp.Event("not-leader")
			return &Response{Err: errNotLeader.Error(), Code: CodeNotLeader}
		}
		version, done, err := s.addTasks(req.Tasks, sp)
		if err != nil {
			return &Response{Err: err.Error(), Code: CodeBadRequest, Version: version, BatchDone: done}
		}
		return &Response{Version: version, BatchDone: done}
	case PullLog:
		return s.servePullLog(req, sp)
	case GetStats:
		return &Response{Stats: s.Stats()}
	default:
		return &Response{Err: fmt.Sprintf("unknown request kind %d", int(req.Kind)), Code: CodeBadRequest}
	}
}
