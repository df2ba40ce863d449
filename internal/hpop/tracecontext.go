package hpop

import (
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
)

// TraceparentHeader is the W3C Trace Context header name carried on every
// cross-process hop (loader→peer fetches, peer→origin uploads, replicator
// WebDAV operations, DCol signaling). It is spelled in the canonical form
// net/http files and writes the header under, so Get and Set take it
// without building a new key string; header names are case-insensitive, so
// this is W3C's "traceparent".
const TraceparentHeader = "Traceparent"

// TraceID is a 128-bit trace identifier shared by every span of one
// distributed trace, across processes. The zero value is invalid (W3C
// reserves the all-zero trace-id as malformed).
type TraceID [16]byte

// IsZero reports whether the trace ID is the invalid all-zero value.
func (id TraceID) IsZero() bool { return id == TraceID{} }

// String renders the trace ID as 32 lowercase hex characters.
func (id TraceID) String() string { return hex.EncodeToString(id[:]) }

// ParseTraceID parses a 32-character lowercase-hex trace ID. The all-zero ID
// is rejected, as the W3C spec requires.
func ParseTraceID(s string) (TraceID, error) {
	var id TraceID
	if len(s) != 32 || !isLowerHex(s) {
		return TraceID{}, fmt.Errorf("hpop: malformed trace id %q", s)
	}
	if _, err := hex.Decode(id[:], []byte(s)); err != nil {
		return TraceID{}, fmt.Errorf("hpop: malformed trace id %q: %v", s, err)
	}
	if id.IsZero() {
		return TraceID{}, fmt.Errorf("hpop: all-zero trace id")
	}
	return id, nil
}

// TraceContext is a span's position in a distributed trace, as carried
// between processes by the traceparent header: which trace, which span is
// the remote parent, and whether the trace is being recorded. The zero value
// is invalid; StartRemote treats it as "no parent" and opens a fresh root.
type TraceContext struct {
	TraceID TraceID
	SpanID  uint64
	Sampled bool
}

// Valid reports whether the context names a real trace position (non-zero
// trace and span IDs).
func (tc TraceContext) Valid() bool { return !tc.TraceID.IsZero() && tc.SpanID != 0 }

// Traceparent renders the context as a W3C traceparent header value
// ("00-<trace-id>-<parent-id>-<flags>"), or "" when the context is invalid —
// callers can unconditionally set the result and skip empty values.
func (tc TraceContext) Traceparent() string {
	if !tc.Valid() {
		return ""
	}
	flags := "00"
	if tc.Sampled {
		flags = "01"
	}
	return fmt.Sprintf("00-%s-%016x-%s", tc.TraceID, tc.SpanID, flags)
}

// errNoTraceparent is ParseTraceparent's answer to an absent header: most
// requests and records carry none, so it allocates nothing.
var errNoTraceparent = errors.New("hpop: no traceparent")

// ParseTraceparent parses a W3C traceparent header value. Only version 00 is
// accepted; field lengths, lowercase hex, and the non-zero trace-id/parent-id
// requirements are enforced strictly, so a corrupted header degrades to an
// error (and the receiver to a fresh root span) rather than a poisoned trace.
func ParseTraceparent(s string) (TraceContext, error) {
	if s == "" {
		return TraceContext{}, errNoTraceparent
	}
	// 00-xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx-xxxxxxxxxxxxxxxx-xx
	if len(s) != 55 || s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return TraceContext{}, fmt.Errorf("hpop: malformed traceparent %q", s)
	}
	if s[:2] != "00" {
		return TraceContext{}, fmt.Errorf("hpop: unsupported traceparent version %q", s[:2])
	}
	traceID, err := ParseTraceID(s[3:35])
	if err != nil {
		return TraceContext{}, err
	}
	spanHex := s[36:52]
	if !isLowerHex(spanHex) {
		return TraceContext{}, fmt.Errorf("hpop: malformed parent id %q", spanHex)
	}
	var spanID uint64
	for i := 0; i < len(spanHex); i++ {
		spanID = spanID<<4 | uint64(hexVal(spanHex[i]))
	}
	if spanID == 0 {
		return TraceContext{}, fmt.Errorf("hpop: all-zero parent id")
	}
	flagsHex := s[53:]
	if !isLowerHex(flagsHex) {
		return TraceContext{}, fmt.Errorf("hpop: malformed flags %q", flagsHex)
	}
	flags := hexVal(flagsHex[0])<<4 | hexVal(flagsHex[1])
	return TraceContext{TraceID: traceID, SpanID: spanID, Sampled: flags&0x01 != 0}, nil
}

// InjectTraceparent stamps the span's trace position onto outbound request
// headers. A nil span (unsampled, nil tracer) injects nothing, so downstream
// processes make their own fresh-root decision.
func InjectTraceparent(h http.Header, sp *Span) {
	if tp := sp.Context().Traceparent(); tp != "" {
		h.Set(TraceparentHeader, tp)
	}
}

// ExtractTraceparent reads the trace position from inbound request headers.
// An absent or malformed header yields the zero TraceContext, which
// StartRemote turns into a fresh root span — corruption never propagates.
func ExtractTraceparent(h http.Header) TraceContext {
	tc, err := ParseTraceparent(h.Get(TraceparentHeader))
	if err != nil {
		return TraceContext{}
	}
	return tc
}

func isLowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return len(s) > 0
}

func hexVal(c byte) int {
	if c <= '9' {
		return int(c - '0')
	}
	return int(c-'a') + 10
}
