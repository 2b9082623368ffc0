// Package collect is the web-scale deployment tier of Browser Polygraph:
// an HTTP service that serves the fingerprint-collection script, ingests
// ≤1 KB fingerprint payloads, scores them against the trained model in
// real time (paper §3 budget: 100 ms; measured cost: microseconds), and
// retains flagged sessions for the fraud team. It also provides a client.
//
// Observability (internal/obs) is threaded through the whole serving
// path: every ingest request runs under a deterministic trace whose
// spans (decode, score, record, pipeline stages) land in a lock-free
// ring served at /debug/traces, per-endpoint request latency feeds
// Prometheus histogram families at /metrics, rejects are counted by
// cause, and accepted feature vectors optionally stream into a drift
// monitor.
package collect

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"polygraph/internal/audit"
	"polygraph/internal/core"
	"polygraph/internal/fingerprint"
	"polygraph/internal/obs"
	"polygraph/internal/pipeline"
	"polygraph/internal/slo"
)

// The ingest endpoints, also the labels of the per-endpoint latency
// histogram family at /metrics. EndpointTCP labels the framed TCP
// listener.
const (
	EndpointBinary = "/v1/collect"
	EndpointJSON   = "/v1/collect-json"
	EndpointTCP    = "tcp"
)

// deployed pairs a model with its audit hash so a hot swap can never
// tear the two apart: an audit record is always stamped with the hash
// of the exact model that produced its verdict.
type deployed struct {
	m    *core.Model
	hash string
}

// modelHolder supports hot model swaps: the drift detector's retrain
// loop produces a new model, and the serving tier adopts it without
// downtime. Scoring paths load the pointer once per request, so a swap
// never tears a request.
type modelHolder struct {
	ptr atomic.Pointer[deployed]
}

func (h *modelHolder) load() *core.Model { return h.ptr.Load().m }

func (h *modelHolder) loadDeployed() *deployed { return h.ptr.Load() }

func (h *modelHolder) store(m *core.Model) error {
	hash, err := m.Hash()
	if err != nil {
		return fmt.Errorf("collect: hash model: %w", err)
	}
	h.ptr.Store(&deployed{m: m, hash: hash})
	return nil
}

// Decision is the scoring outcome returned to the risk system.
type Decision struct {
	SessionID  string `json:"session_id"`
	Cluster    int    `json:"cluster"`
	Matched    bool   `json:"matched"`
	RiskFactor int    `json:"risk_factor"`
	Flagged    bool   `json:"flagged"`
	// ElapsedMicros is the server-side scoring latency in microseconds.
	ElapsedMicros int64 `json:"elapsed_us"`
}

// Config parameterizes the server.
type Config struct {
	// Model scores sessions; required.
	Model *core.Model
	// Store retains flagged decisions; nil uses a fresh MemoryStore.
	Store *MemoryStore
	// MaxBodyBytes caps request bodies; 0 uses the paper's 1 KB budget
	// (plus framing slack for the JSON variant).
	MaxBodyBytes int64
	// RateLimitPerSec enables per-client-IP token-bucket limiting on
	// the ingestion endpoints (0 disables). RateBurst defaults to
	// 2× the rate. Limited requests count as rejects with
	// reason="rate_limit".
	RateLimitPerSec float64
	RateBurst       int
	// Logger receives structured request/reject/slow-trace records;
	// nil discards. Build one with obs.NewLogger.
	Logger *slog.Logger
	// Tracer overrides the request tracer (shared with a TCP listener,
	// pinned seed in tests); nil builds one from TraceRingSize,
	// TraceSeed, SlowRequest, and Logger.
	Tracer *obs.Tracer
	// TraceRingSize bounds the /debug/traces ring (0 = 256).
	TraceRingSize int
	// TraceSeed drives the deterministic trace-ID stream.
	TraceSeed uint64
	// SlowRequest is the structured-log threshold for request traces
	// (0 = the paper's 100 ms scoring budget).
	SlowRequest time.Duration
	// Drift, when set, receives every accepted feature vector for live
	// PSI monitoring; /metrics then exports the drift families.
	Drift *obs.DriftMonitor
	// Audit, when set, durably records decisions (with explanations)
	// in the append-only ledger: every flagged session, benign ones per
	// the ledger's sampling policy. Recent records are served at
	// /debug/decisions and the polygraph_audit_* families appear at
	// /metrics.
	Audit *audit.Ledger
	// AuditTopK bounds the explanation contribution lists on audited
	// records (0 = core.DefaultExplainTopK).
	AuditTopK int
	// TCPMaxBatch caps how many pipelined frames the TCP listener
	// coalesces into one scored batch (0 = 256, 1 disables coalescing
	// so every frame scores alone). Only NewTCPServer reads it.
	TCPMaxBatch int
	// TCPMaxDelay, when positive, lets the coalescer wait up to this
	// long after a batch's first frame for more pipelined frames to
	// arrive. 0 (the default, and what the latency contract assumes)
	// coalesces only frames already buffered — an interactive client
	// sending one frame at a time never waits.
	TCPMaxDelay time.Duration
	// ScoreDelay injects an artificial per-request delay into the HTTP
	// ingest path, inside the latency-histogram measurement. It exists
	// solely for SLO burn-rate fault drills (loadgen -fault-slow, CI's
	// seeded breach test) and must never be set in production.
	ScoreDelay time.Duration
}

// Server is the collection/scoring HTTP service. Create with NewServer;
// it implements http.Handler.
type Server struct {
	model   modelHolder
	store   *MemoryStore
	maxLen  int64
	logger  *slog.Logger
	tracer  *obs.Tracer
	drift   *obs.DriftMonitor
	auditor *auditor
	limiter *RateLimiter
	mux     *http.ServeMux

	// bufs pools per-request scoring buffers (feature vector + model
	// scratch) so the steady-state ingest path allocates nothing for the
	// numeric work. Buffers are model-agnostic and survive SwapModel.
	bufs sync.Pool

	// hists holds per-endpoint request-handling latency of successfully
	// scored requests (handler entry → response written), the source of
	// the polygraph_score_duration_microseconds histogram family.
	hists map[string]*obs.Hist

	stats serverStats
	// rejects counts rejections by cause, indexed by rejectReason.
	rejects [numReasons]atomic.Int64

	// trainedAtNs is the deployed model's training completion time
	// (unix nanoseconds, 0 = unknown), exported at /metrics.
	trainedAtNs atomic.Int64

	// tcp, when attached, contributes the EndpointTCP histogram series
	// and counters to /metrics.
	tcp atomic.Pointer[TCPServer]

	// slo, when attached, contributes the polygraph_slo_* families to
	// /metrics and serves the /debug/slo status page.
	slo atomic.Pointer[slo.Engine]

	// scoreDelay is Config.ScoreDelay (fault drills only).
	scoreDelay time.Duration

	// trainMu guards trainStages, the per-stage timings of the last
	// (re)train that produced the deployed model; exported at /metrics.
	trainMu     sync.RWMutex
	trainStages []pipeline.Timing
}

type serverStats struct {
	received atomic.Int64
	flagged  atomic.Int64
}

// rejectReason taxonomizes rejects for polygraph_rejected_total.
type rejectReason int

const (
	reasonRead rejectReason = iota
	reasonTooLarge
	reasonDecode
	reasonBadVersion
	reasonBadJSON
	reasonBadDim
	reasonScore
	reasonRateLimit
	reasonBadRequest
	numReasons
)

// reasonNames are the reason label values; every value is always
// exported (zeros included) so dashboards can rate() them from first
// scrape.
var reasonNames = [numReasons]string{
	"read", "too_large", "decode", "bad_version", "bad_json",
	"bad_dim", "score", "rate_limit", "bad_request",
}

// NewServer validates the config and builds the service.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Model == nil {
		return nil, errors.New("collect: Config.Model is required")
	}
	maxLen := cfg.MaxBodyBytes
	if maxLen == 0 {
		maxLen = 4 * fingerprint.MaxPayloadSize // JSON framing slack
	}
	store := cfg.Store
	if store == nil {
		store = NewMemoryStore(4096)
	}
	tracer := cfg.Tracer
	if tracer == nil {
		tracer = obs.NewTracer(obs.TracerConfig{
			RingSize:      cfg.TraceRingSize,
			Seed:          cfg.TraceSeed,
			SlowThreshold: cfg.SlowRequest,
			Logger:        cfg.Logger,
		})
	}
	s := &Server{
		store:  store,
		maxLen: maxLen,
		logger: cfg.Logger,
		tracer: tracer,
		drift:  cfg.Drift,
		mux:    http.NewServeMux(),
		hists: map[string]*obs.Hist{
			EndpointBinary: new(obs.Hist),
			EndpointJSON:   new(obs.Hist),
		},
		scoreDelay: cfg.ScoreDelay,
	}
	if err := s.model.store(cfg.Model); err != nil {
		return nil, err
	}
	if cfg.Audit != nil {
		s.auditor = &auditor{ledger: cfg.Audit, topK: cfg.AuditTopK}
	}
	if cfg.RateLimitPerSec > 0 {
		burst := cfg.RateBurst
		if burst <= 0 {
			burst = int(2 * cfg.RateLimitPerSec)
		}
		// One limiter shared by both ingest endpoints: a client's budget
		// covers its total ingest traffic, not per-endpoint budgets.
		s.limiter = NewRateLimiter(cfg.RateLimitPerSec, burst)
	}
	s.mux.HandleFunc("GET /script.js", s.handleScript)
	s.mux.HandleFunc("POST "+EndpointBinary, s.handleCollectBinary)
	s.mux.HandleFunc("POST "+EndpointJSON, s.handleCollectJSON)
	s.mux.HandleFunc("GET /v1/flagged", s.handleFlagged)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /debug/", s.handleDebugIndex)
	s.mux.HandleFunc("GET /debug/traces", s.tracer.ServeTraces)
	s.mux.HandleFunc("GET /debug/decisions", s.handleDecisions)
	s.mux.HandleFunc("GET /debug/slo", s.handleSLO)
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Store exposes the flagged-session store.
func (s *Server) Store() *MemoryStore { return s.store }

// Tracer exposes the request tracer (to share with a TCP listener or
// inspect the ring in tests).
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// AttachTCP includes a TCP batch listener's histogram and counters in
// this server's /metrics exposition.
func (s *Server) AttachTCP(t *TCPServer) { s.tcp.Store(t) }

// SetSLO attaches a burn-rate engine: its polygraph_slo_* families join
// the /metrics exposition and GET /debug/slo serves its status page.
// The caller owns the engine's tick loop (slo.Engine.Run or explicit
// ticks); the server only reads evaluations.
func (s *Server) SetSLO(e *slo.Engine) { s.slo.Store(e) }

// SLO returns the attached burn-rate engine (nil when none).
func (s *Server) SLO() *slo.Engine { return s.slo.Load() }

func (s *Server) handleSLO(w http.ResponseWriter, r *http.Request) {
	e := s.slo.Load()
	if e == nil {
		http.Error(w, "no SLO engine attached", http.StatusNotFound)
		return
	}
	e.ServeHTTP(w, r)
}

// SwapModel atomically replaces the scoring model — the deployment step
// of the §6.6 retraining loop. In-flight requests finish on the model
// they started with; subsequent requests (and the served script, if the
// feature set changed) use the new one.
func (s *Server) SwapModel(m *core.Model) error {
	if m == nil {
		return errors.New("collect: SwapModel with nil model")
	}
	return s.model.store(m)
}

// ModelHash returns the audit hash of the deployed model (the value
// stamped on every audit record it produces).
func (s *Server) ModelHash() string { return s.model.loadDeployed().hash }

// Model returns the currently deployed model.
func (s *Server) Model() *core.Model { return s.model.load() }

// SetModelTrainedAt records when the deployed model was trained (zero
// time = unknown); /metrics exports it as
// polygraph_model_trained_timestamp_seconds so dashboards can alert on
// stale models.
func (s *Server) SetModelTrainedAt(t time.Time) {
	if t.IsZero() {
		s.trainedAtNs.Store(0)
		return
	}
	s.trainedAtNs.Store(t.UnixNano())
}

// ModelTrainedAt returns the recorded training time (zero when unset).
func (s *Server) ModelTrainedAt() time.Time {
	ns := s.trainedAtNs.Load()
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

// SetTrainStages records the stage timings of the training run that
// produced the deployed model; /metrics exports them. Call it alongside
// SwapModel (or at startup) whenever a TrainReport is available.
func (s *Server) SetTrainStages(stages []pipeline.Timing) {
	copied := append([]pipeline.Timing(nil), stages...)
	s.trainMu.Lock()
	s.trainStages = copied
	s.trainMu.Unlock()
}

// TrainStages returns a copy of the last recorded training-stage
// timings (nil when none were ever set).
func (s *Server) TrainStages() []pipeline.Timing {
	s.trainMu.RLock()
	defer s.trainMu.RUnlock()
	return append([]pipeline.Timing(nil), s.trainStages...)
}

func (s *Server) handleScript(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/javascript")
	w.Header().Set("Cache-Control", "public, max-age=3600")
	io.WriteString(w, CollectionScript(s.model.load().Features, EndpointJSON))
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, "ok\n")
}

func (s *Server) handleCollectBinary(w http.ResponseWriter, r *http.Request) {
	s.serveCollect(w, r, EndpointBinary, decodeBinaryPayload)
}

func (s *Server) handleCollectJSON(w http.ResponseWriter, r *http.Request) {
	s.serveCollect(w, r, EndpointJSON, decodeJSONPayload)
}

// serveCollect is the shared ingest path: open a trace, rate-limit,
// decode, score, and seal the trace with the outcome. Only successfully
// scored requests feed the endpoint latency histogram — rejects are
// counted by cause instead.
func (s *Server) serveCollect(w http.ResponseWriter, r *http.Request, endpoint string, decode payloadDecoder) {
	start := time.Now()
	ctx, tr := s.tracer.Start(r.Context(), endpoint)
	if s.scoreDelay > 0 {
		time.Sleep(s.scoreDelay) // fault drill: inflate measured latency
	}
	status := s.collectOne(ctx, w, r, tr, decode)
	if status == "ok" {
		s.hists[endpoint].Record(time.Since(start))
	}
	s.tracer.Finish(tr, status)
}

// payloadDecoder turns a bounded request body into a payload, or
// reports the reject reason.
type payloadDecoder func(body []byte) (*fingerprint.Payload, rejectReason, error)

func decodeBinaryPayload(body []byte) (*fingerprint.Payload, rejectReason, error) {
	payload, err := fingerprint.UnmarshalBinary(body)
	if err != nil {
		reason := reasonDecode
		if errors.Is(err, fingerprint.ErrBadVersion) {
			reason = reasonBadVersion
		}
		return nil, reason, err
	}
	return payload, 0, nil
}

// jsonPayload is the sendBeacon-friendly JSON frame the script posts.
type jsonPayload struct {
	SessionID string  `json:"sid"`
	UserAgent string  `json:"ua"`
	Values    []int64 `json:"v"`
}

func decodeJSONPayload(body []byte) (*fingerprint.Payload, rejectReason, error) {
	var jp jsonPayload
	if err := json.Unmarshal(body, &jp); err != nil {
		return nil, reasonBadJSON, err
	}
	payload := &fingerprint.Payload{UserAgent: jp.UserAgent, Values: jp.Values}
	if sid, err := hex.DecodeString(jp.SessionID); err == nil && len(sid) == fingerprint.SessionIDSize {
		copy(payload.SessionID[:], sid)
	}
	return payload, 0, nil
}

// collectOne handles one ingest request under an open trace and returns
// the trace status ("ok" or the reject reason).
func (s *Server) collectOne(ctx context.Context, w http.ResponseWriter, r *http.Request, tr *obs.Trace, decode payloadDecoder) string {
	if s.limiter != nil && !s.limiter.Allow(clientKey(r)) {
		s.reject(w, tr, http.StatusTooManyRequests, reasonRateLimit, "rate limit exceeded")
		return reasonNames[reasonRateLimit]
	}
	endDecode := pipeline.StartSpan(ctx, "decode")
	body, err := io.ReadAll(io.LimitReader(r.Body, s.maxLen+1))
	if err != nil {
		endDecode()
		s.reject(w, tr, http.StatusBadRequest, reasonRead, "read: %v", err)
		return reasonNames[reasonRead]
	}
	if int64(len(body)) > s.maxLen {
		endDecode()
		s.reject(w, tr, http.StatusRequestEntityTooLarge, reasonTooLarge, "body over %d bytes", s.maxLen)
		return reasonNames[reasonTooLarge]
	}
	payload, reason, err := decode(body)
	endDecode()
	if err != nil {
		s.reject(w, tr, http.StatusBadRequest, reason, "payload: %v", err)
		return reasonNames[reason]
	}
	return s.score(ctx, w, tr, payload)
}

// clientKey is the rate-limit key: the remote IP, ignoring the
// ephemeral port.
func clientKey(r *http.Request) string {
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// scoreBuf is the pooled per-request scratch of the score path.
type scoreBuf struct {
	vec     []float64
	scratch *core.Scratch
}

// score runs the model, writes the decision, and returns the trace
// status.
func (s *Server) score(ctx context.Context, w http.ResponseWriter, tr *obs.Trace, payload *fingerprint.Payload) string {
	dep := s.model.loadDeployed()
	model := dep.m
	if len(payload.Values) != model.Dim() {
		s.reject(w, tr, http.StatusBadRequest, reasonBadDim, "expected %d features, got %d", model.Dim(), len(payload.Values))
		return reasonNames[reasonBadDim]
	}
	buf, _ := s.bufs.Get().(*scoreBuf)
	if buf == nil {
		buf = &scoreBuf{scratch: model.NewScratch()}
	}
	defer s.bufs.Put(buf)
	buf.vec = fingerprint.ValuesToVectorInto(buf.vec, payload.Values)
	vec := buf.vec
	endScore := pipeline.StartSpan(ctx, "score")
	start := time.Now()
	result, err := model.ScoreStringWith(buf.scratch, vec, payload.UserAgent)
	elapsed := time.Since(start).Microseconds()
	endScore()
	if err != nil {
		s.reject(w, tr, http.StatusInternalServerError, reasonScore, "score: %v", err)
		return reasonNames[reasonScore]
	}
	if s.drift != nil {
		s.drift.Observe(vec)
	}

	d := Decision{
		SessionID:     hex.EncodeToString(payload.SessionID[:]),
		Cluster:       result.Cluster,
		Matched:       result.Matched,
		RiskFactor:    result.RiskFactor,
		Flagged:       result.Flagged(),
		ElapsedMicros: elapsed,
	}
	s.stats.received.Add(1)
	if d.Flagged {
		endRecord := pipeline.StartSpan(ctx, "record")
		s.stats.flagged.Add(1)
		s.store.Record(d)
		endRecord()
	}
	if s.auditor != nil {
		endAudit := pipeline.StartSpan(ctx, "audit")
		endpoint := ""
		if tr != nil {
			endpoint = tr.Endpoint
		}
		// vec is a pooled buffer reused by the next request; the ledger
		// record must own its vector.
		owned := append([]float64(nil), vec...)
		if err := s.auditor.record(dep, tr, endpoint, d.SessionID, payload.UserAgent, owned, result); err != nil {
			s.logWarn(tr, "collect: audit record failed", "err", err.Error())
		}
		endAudit()
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(&d); err != nil {
		s.logWarn(tr, "collect: encode response failed", "err", err.Error())
	}
	return "ok"
}

// logWarn emits a structured warning carrying the trace ID when a trace
// is in flight.
func (s *Server) logWarn(tr *obs.Trace, msg string, args ...any) {
	if s.logger == nil {
		return
	}
	if tr != nil {
		args = append(args, obs.TraceIDKey, tr.ID.String())
	}
	s.logger.Warn(msg, args...)
}

// reject counts, logs, and answers one rejected request. tr may be nil
// for untraced endpoints (flagged query validation).
func (s *Server) reject(w http.ResponseWriter, tr *obs.Trace, code int, reason rejectReason, format string, args ...any) {
	s.rejects[reason].Add(1)
	msg := fmt.Sprintf(format, args...)
	s.logWarn(tr, "collect: reject",
		"code", code, "reason", reasonNames[reason], "detail", msg)
	if code == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	http.Error(w, msg, code)
}

// handleFlagged returns retained flagged decisions, filtered by
// ?min_risk=N and sorted by descending risk factor — the fraud team's
// live queue.
func (s *Server) handleFlagged(w http.ResponseWriter, r *http.Request) {
	minRisk := 0
	if v := r.URL.Query().Get("min_risk"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			s.reject(w, nil, http.StatusBadRequest, reasonBadRequest, "bad min_risk %q", v)
			return
		}
		minRisk = n
	}
	all := s.store.All()
	out := all[:0]
	for _, d := range all {
		if d.RiskFactor >= minRisk {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].RiskFactor != out[j].RiskFactor {
			return out[i].RiskFactor > out[j].RiskFactor
		}
		return out[i].SessionID < out[j].SessionID
	})
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(out); err != nil {
		s.logWarn(nil, "collect: encode flagged failed", "err", err.Error())
	}
}

// MemoryStore retains the most recent flagged decisions in a sharded
// ring, safe for concurrent use. Production would forward to the risk
// pipeline; the reproduction keeps them queryable.
type MemoryStore struct {
	shards [16]storeShard
	cap    int
}

type storeShard struct {
	mu      sync.Mutex
	entries []Decision
	next    int
	full    bool
}

// NewMemoryStore bounds the total retained decisions (rounded up to a
// multiple of the shard count).
func NewMemoryStore(capacity int) *MemoryStore {
	if capacity < 16 {
		capacity = 16
	}
	return &MemoryStore{cap: (capacity + 15) / 16}
}

func (m *MemoryStore) shardFor(sessionID string) *storeShard {
	h := uint32(2166136261)
	for i := 0; i < len(sessionID); i++ {
		h = (h ^ uint32(sessionID[i])) * 16777619
	}
	return &m.shards[h%16]
}

// Record stores a decision.
func (m *MemoryStore) Record(d Decision) {
	sh := m.shardFor(d.SessionID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if len(sh.entries) < m.cap {
		sh.entries = append(sh.entries, d)
		return
	}
	sh.entries[sh.next] = d
	sh.next = (sh.next + 1) % m.cap
	sh.full = true
}

// Len counts retained decisions.
func (m *MemoryStore) Len() int {
	n := 0
	for i := range m.shards {
		m.shards[i].mu.Lock()
		n += len(m.shards[i].entries)
		m.shards[i].mu.Unlock()
	}
	return n
}

// All returns a copy of every retained decision (unspecified order).
func (m *MemoryStore) All() []Decision {
	var out []Decision
	for i := range m.shards {
		m.shards[i].mu.Lock()
		out = append(out, m.shards[i].entries...)
		m.shards[i].mu.Unlock()
	}
	return out
}
