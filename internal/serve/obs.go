// The server's observability surface: the per-Server metrics registry
// (GET /metrics, Prometheus text exposition), the ingress trace
// middleware (X-QLA-Trace minted or accepted, stamped on the response,
// carried in the request context), per-route HTTP instruments, and the
// GET /buildinfo report.
package serve

import (
	"net/http"
	"runtime/debug"
	"strconv"
	"time"

	"qla/internal/engine"
	"qla/internal/obs"
)

// instrument registers the serve layer's own instruments: the
// admission counters, the per-route HTTP vecs (which also count the
// run and sweep submissions) and the uptime gauge. The subsystems
// register theirs on the same registry.
func (s *Server) instrument() {
	reg := s.reg
	s.runsExecuted = reg.Counter("qla_serve_runs_executed_total", "Fresh engine executions (cache misses that computed).")
	s.peerServes = reg.Counter("qla_serve_peer_serves_total", "GET /v1/cache/{hash} hits served to fleet peers.")
	s.throttled = reg.CounterVec("qla_serve_throttled_total",
		"Refused submissions by tenant and deciding limit: rate and quota answer 429, queue (load shed, queue-wait bound, full job store) 503.",
		"tenant", "limit")
	s.journalReplayed = reg.Counter("qla_journal_replayed_jobs_total", "Jobs re-admitted from the journal at startup.")
	reg.Gauge("qla_serve_max_queue", "The load-shed bound on queued acquirers (negative = unbounded).").Set(float64(s.cfg.MaxQueue))
	reg.Gauge("qla_experiments", "Experiments in the registry catalog.").Set(float64(len(engine.Experiments())))

	s.httpReqs = reg.CounterVec("qla_http_requests_total",
		"HTTP requests served, by route pattern, status code and tenant.", "route", "status", "tenant")
	s.httpDur = reg.HistogramVec("qla_http_request_duration_seconds",
		"Wall time of one HTTP request, by route pattern.", obs.LatencyBuckets, "route")
	s.httpInflight = reg.Gauge("qla_http_requests_inflight", "Requests currently being served.")

	reg.GaugeFunc("qla_uptime_seconds", "Seconds since the server was built.", nil, func() float64 {
		return time.Since(s.started).Seconds()
	})
}

// trace is the ingress middleware: accept a well-formed client
// X-QLA-Trace or mint one, stamp it on the response up front (error
// envelopes read it back), and carry it in the request context — from
// where it rides into the cache flight the request starts (a flight's
// context keeps its first caller's values) and on outbound fleet
// requests.
func (s *Server) trace(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := obs.SanitizeTraceID(r.Header.Get(obs.TraceHeader))
		if id == "" {
			id = obs.NewTraceID()
		}
		w.Header().Set(obs.TraceHeader, id)
		next.ServeHTTP(w, r.WithContext(obs.WithTrace(r.Context(), id)))
	})
}

// observe wraps one route's handler with the HTTP instruments. The
// tenant label reuses the admission header (invalid names collapse to
// "invalid" rather than growing the vec); the vec's own cardinality
// cap bounds hostile tenant spreads.
func (s *Server) observe(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.httpInflight.Add(1)
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r)
		s.httpInflight.Add(-1)
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		tenant, err := tenantFrom(r)
		if err != nil {
			tenant = "invalid"
		}
		s.httpReqs.With(route, strconv.Itoa(status), tenant).Inc()
		s.httpDur.With(route).Observe(time.Since(start).Seconds())
	}
}

// statusWriter records the status code while passing Flush through —
// the SSE route needs the flusher.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap lets http.ResponseController reach the underlying writer.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// handleMetrics is GET /metrics: the whole registry in Prometheus text
// exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WriteText(w)
}

// BuildInfo is the GET /buildinfo payload, read once from the binary's
// embedded module metadata.
type BuildInfo struct {
	GoVersion string `json:"go_version"`
	Path      string `json:"path,omitempty"`
	Version   string `json:"version,omitempty"`
	// Revision/Time/Modified carry the vcs stamp when the binary was
	// built inside a checkout.
	Revision string `json:"vcs_revision,omitempty"`
	Time     string `json:"vcs_time,omitempty"`
	Modified bool   `json:"vcs_modified,omitempty"`
}

// ReadBuildInfo assembles the /buildinfo payload.
func ReadBuildInfo() BuildInfo {
	out := BuildInfo{}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return out
	}
	out.GoVersion = bi.GoVersion
	out.Path = bi.Main.Path
	out.Version = bi.Main.Version
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			out.Revision = s.Value
		case "vcs.time":
			out.Time = s.Value
		case "vcs.modified":
			out.Modified = s.Value == "true"
		}
	}
	return out
}

// handleBuildinfo is GET /buildinfo: module version and vcs revision
// from the binary's embedded build metadata.
func (s *Server) handleBuildinfo(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, ReadBuildInfo())
}
