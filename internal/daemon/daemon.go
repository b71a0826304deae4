package daemon

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dtbgc/dtbgc/internal/sim"
	"github.com/dtbgc/dtbgc/internal/trace"
)

// Config parameterizes a Server. The zero value serves with sensible
// defaults (see withDefaults).
type Config struct {
	// Workers bounds concurrent evaluations; 0 = GOMAXPROCS. Memo
	// hits, uploads and metrics never consume a worker slot.
	Workers int
	// QueueDepth bounds evaluations waiting for a worker slot beyond
	// the ones running; past it the server answers 429 immediately.
	// 0 = 2×Workers.
	QueueDepth int
	// TapeCacheBytes budgets the decoded-tape LRU; 0 = 256 MB.
	TapeCacheBytes int64
	// MemoEntries bounds the result memo table; 0 = 4096.
	MemoEntries int
	// MaxTraceBytes bounds one trace upload; 0 = 1 GB.
	MaxTraceBytes int64
	// RetryAfter is the hint sent with 429 responses; 0 = 1s.
	RetryAfter time.Duration
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 2 * c.Workers
	}
	if c.TapeCacheBytes <= 0 {
		c.TapeCacheBytes = 256 << 20
	}
	if c.MemoEntries <= 0 {
		c.MemoEntries = 4096
	}
	if c.MaxTraceBytes <= 0 {
		c.MaxTraceBytes = 1 << 30
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	return c
}

// Server is the dtbd daemon: caches, admission state and HTTP
// handlers. Create with NewServer, serve with Start (or mount
// Handler on a server of your own), stop with Shutdown.
type Server struct {
	cfg   Config
	tapes *tapeCache
	memo  *memoCache
	met   *metrics

	slots   chan struct{} // worker slots; a send acquires
	waiting atomic.Int64  // evaluations queued for a slot

	mu       sync.Mutex
	hs       *http.Server
	serveErr error
	wg       sync.WaitGroup
}

// NewServer builds a Server from cfg.
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	return &Server{
		cfg:   cfg,
		tapes: newTapeCache(cfg.TapeCacheBytes),
		memo:  newMemoCache(cfg.MemoEntries),
		met:   newMetrics(time.Now()),
		slots: make(chan struct{}, cfg.Workers),
	}
}

// Handler returns the daemon's HTTP API:
//
//	POST /v1/eval     evaluate (EvalRequest -> EvalResponse)
//	POST /v1/traces   upload a binary trace -> {digest, events, bytes}
//	GET  /v1/metrics  MetricsSnapshot
//	GET  /v1/healthz  {"ok":true}
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/eval", s.handleEval)
	mux.HandleFunc("POST /v1/traces", s.handleTraces)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	return mux
}

// Start serves the API on ln in a background goroutine until Shutdown
// (or a listener error). It returns immediately.
func (s *Server) Start(ln net.Listener) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.hs != nil {
		panic("daemon: Start called twice")
	}
	s.hs = &http.Server{Handler: s.Handler()}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		err := s.hs.Serve(ln)
		if errors.Is(err, http.ErrServerClosed) {
			err = nil // orderly Shutdown
		}
		s.mu.Lock()
		s.serveErr = err
		s.mu.Unlock()
	}()
}

// Shutdown drains the server: the listener closes immediately, every
// in-flight request (evaluations included) runs to completion, and
// only then does Shutdown return — the graceful-exit half of the
// admission story. ctx bounds the drain; past it, remaining requests
// are abandoned and ctx's error returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	hs := s.hs
	s.mu.Unlock()
	if hs == nil {
		return nil
	}
	err := hs.Shutdown(ctx)
	s.wg.Wait() // join the Serve goroutine: no daemon goroutine outlives Shutdown
	s.mu.Lock()
	defer s.mu.Unlock()
	if err == nil {
		err = s.serveErr
	}
	return err
}

// Metrics returns the current serving snapshot.
func (s *Server) Metrics() MetricsSnapshot {
	snap := s.met.snapshot(time.Now())
	snap.Workers = s.cfg.Workers
	snap.QueueDepth = s.cfg.QueueDepth
	snap.TapeCacheTraces, snap.TapeCacheBytes = s.tapes.stats()
	snap.MemoEntries = s.memo.len()
	return snap
}

// errOverloaded is the admission-control rejection (HTTP 429).
var errOverloaded = errors.New("daemon: overloaded: worker slots and queue are full")

// admit acquires a worker slot, waiting in the bounded queue if all
// slots are busy. It returns the release function, or errOverloaded
// when the queue is full — the backpressure signal, sent before any
// work is sunk into the request. In-flight evaluations are never
// affected by rejections; they hold their slots until done.
func (s *Server) admit(ctx context.Context) (release func(), err error) {
	release = func() {
		<-s.slots
		s.met.done1()
	}
	select {
	case s.slots <- struct{}{}:
		s.met.started1()
		return release, nil
	default:
	}
	if s.waiting.Add(1) > int64(s.cfg.QueueDepth) {
		s.waiting.Add(-1)
		return nil, errOverloaded
	}
	s.met.enqueue()
	defer func() {
		s.waiting.Add(-1)
		s.met.dequeue()
	}()
	select {
	case s.slots <- struct{}{}:
		s.met.started1()
		return release, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (s *Server) handleEval(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var req EvalRequest
	body := http.MaxBytesReader(w, r.Body, 1<<20)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	if err := req.normalize(); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	key := req.memoKey()
	if payload, ok := s.memo.get(key); ok {
		ms := msSince(start)
		s.met.servedMemo(ms)
		s.writePayload(w, "memo", ms, payload)
		return
	}

	release, err := s.admit(r.Context())
	if err != nil {
		if errors.Is(err, errOverloaded) {
			s.met.rejectedOne()
			w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
			s.writeError(w, http.StatusTooManyRequests, err)
			return
		}
		s.writeError(w, statusClientGone, err) // client cancelled while queued
		return
	}
	payload, tapeHit, err := s.evaluate(r.Context(), &req)
	release()
	if err != nil {
		s.met.failedOne()
		switch {
		case isBadRequest(err):
			s.writeError(w, http.StatusBadRequest, err)
		case isUnknownTrace(err):
			s.writeError(w, http.StatusNotFound, err)
		case isDeadline(err):
			s.writeError(w, http.StatusGatewayTimeout, fmt.Errorf("evaluation deadline exceeded: %w", err))
		case errors.Is(err, context.Canceled):
			s.writeError(w, statusClientGone, err)
		default:
			s.writeError(w, http.StatusInternalServerError, err)
		}
		return
	}
	s.memo.put(key, payload)
	ms := msSince(start)
	s.met.servedCold(tapeHit, ms)
	source := "cold"
	if tapeHit {
		source = "tape"
	}
	s.writePayload(w, source, ms, payload)
}

// TraceInfo is the POST /v1/traces response.
type TraceInfo struct {
	Digest string `json:"digest"`
	Events int    `json:"events"`
	Bytes  int64  `json:"bytes"`
}

func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxTraceBytes)
	dr := trace.NewDigestingReader(body)
	events, err := trace.NewReader(dr).ReadAll()
	if err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("decoding trace: %w", err))
		return
	}
	// A trace the simulator rejects would fail every eval on it, so it
	// is refused here, before it is cached or counted.
	if err := sim.Check(events); err != nil {
		s.writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	// The stream decoded to a clean EOF, so the digest covers the
	// whole canonical encoding — the same value DigestEvents computes.
	d := dr.Sum()
	s.tapes.put(d, events)
	s.met.uploadedOne()
	s.writeJSON(w, http.StatusOK, TraceInfo{
		Digest: d.String(),
		Events: len(events),
		Bytes:  tapeCost(events),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.Metrics())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

// statusClientGone is 499 (nginx convention): the client cancelled;
// nothing was wrong server-side.
const statusClientGone = 499

// errorBody is the JSON error envelope every non-2xx response uses.
type errorBody struct {
	Error string `json:"error"`
}

func (s *Server) writeError(w http.ResponseWriter, status int, err error) {
	s.writeJSON(w, status, errorBody{Error: err.Error()})
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// A failed response write means the client is gone; there is no
	// one left to tell, so the encode error is deliberately dropped.
	json.NewEncoder(w).Encode(v)
}

// writePayload assembles an EvalResponse around the memoized payload
// without re-marshaling the result bytes.
func (s *Server) writePayload(w http.ResponseWriter, source string, serviceMs float64, payload []byte) {
	var p evalPayload
	if err := json.Unmarshal(payload, &p); err != nil {
		s.writeError(w, http.StatusInternalServerError, fmt.Errorf("corrupt memo payload: %w", err))
		return
	}
	s.writeJSON(w, http.StatusOK, EvalResponse{
		Source:    source,
		ServiceMs: serviceMs,
		Result:    p.Result,
		Telemetry: p.Telemetry,
	})
}

func msSince(start time.Time) float64 {
	return float64(time.Since(start)) / float64(time.Millisecond)
}

func isBadRequest(err error) bool {
	var br *errBadRequest
	return errors.As(err, &br)
}

func isUnknownTrace(err error) bool {
	var ut *ErrUnknownTrace
	return errors.As(err, &ut)
}
