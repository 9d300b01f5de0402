package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"log/slog"
)

// TraceHeader is the HTTP header carrying a request's trace ID. It is
// minted at ingress when absent, echoed on every response (including
// error envelopes), and propagated on fleet forwards and peer cache
// fetches so one sweep's life can be followed across replicas.
const TraceHeader = "X-QLA-Trace"

// maxTraceLen bounds accepted client-supplied trace IDs.
const maxTraceLen = 64

type traceKey struct{}

// NewTraceID returns a fresh 16-byte random trace ID in hex.
func NewTraceID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; a fixed
		// fallback keeps tracing non-fatal regardless.
		return "0000deadbeef0000"
	}
	return hex.EncodeToString(b[:])
}

// SanitizeTraceID validates a client-supplied trace ID: printable
// ASCII subset safe for headers and log lines, at most 64 bytes.
// Returns "" when the ID is unusable.
func SanitizeTraceID(id string) string {
	if id == "" || len(id) > maxTraceLen {
		return ""
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		ok := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
			c == '-' || c == '_' || c == '.' || c == ':'
		if !ok {
			return ""
		}
	}
	return id
}

// WithTrace returns ctx carrying the trace ID. Like sched.Identity,
// the value survives context.WithoutCancel, which is how a cache
// flight carries the trace of the request that started it.
func WithTrace(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, id)
}

// TraceFrom returns the trace ID carried by ctx, or "".
func TraceFrom(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	id, _ := ctx.Value(traceKey{}).(string)
	return id
}

// L returns base (slog.Default if nil) with the ctx's trace ID
// attached as a "trace" attribute, when present.
func L(ctx context.Context, base *slog.Logger) *slog.Logger {
	if base == nil {
		base = slog.Default()
	}
	if id := TraceFrom(ctx); id != "" {
		return base.With("trace", id)
	}
	return base
}
