package nocdn

// Real HTTP caching semantics for the peer tier. The paper's peers are
// "normal caching reverse proxies"; for the fleet to actually replace a
// commercial CDN edge they must honor the origin's Cache-Control/Expires,
// revalidate with conditional requests, and serve stale only inside the
// windows the origin granted (stale-while-revalidate / stale-if-error).
// This file is the pure-parsing half: the Cache-Control directive parser
// and the freshness arithmetic. The stateful half (per-entry metadata,
// revalidation, X-Cache emission) lives in peercache.go.
//
// The NoCDN twist on freshness is the hash-epoch rule: the wrapper page
// carries a per-object SHA-256, so a cache entry whose hash matches the
// *current* wrapper is definitionally current — age is irrelevant. Loaders
// send that expected hash with each peer fetch; peers treat a match as
// fresh and a mismatch as an unconditional refetch. Wall-clock TTLs only
// govern clients that cannot know the wrapper epoch (plain HTTP clients).

import (
	"strconv"
	"strings"
	"time"
)

// Cache-state header names and values — the observable edge state the
// acceptance suite (and operators) assert on without white-box access.
const (
	// XCacheHeader reports how the peer satisfied the request.
	XCacheHeader = "X-Cache"
	// AgeHeader is the entry's age in whole seconds at serve time.
	AgeHeader = "Age"
	// ExpectHashHeader carries the loader's wrapper hash for the object on
	// peer fetches (request) and the served entry's hash (response). A
	// cached entry matching the request's expected hash is fresh at any
	// age; a mismatch forces a refetch — never a stale serve. Like every
	// header name here it is in canonical form, so net/http's Set and Get
	// take it as it is instead of building the canonical key each time.
	ExpectHashHeader = "X-Nocdn-Hash"

	XCacheMiss        = "MISS"        // origin round trip fetched the body
	XCacheHit         = "HIT"         // fresh cache entry
	XCacheStale       = "STALE"       // expired entry inside a stale window (or hash-epoch fresh)
	XCacheRevalidated = "REVALIDATED" // expired entry, origin confirmed with 304
)

// CacheControl holds the response directives the peer tier honors.
type CacheControl struct {
	// NoStore forbids caching the response at all.
	NoStore bool
	// NoCache allows caching but demands revalidation before every serve.
	NoCache bool
	// MaxAge is the freshness lifetime (valid only when HasMaxAge).
	MaxAge    time.Duration
	HasMaxAge bool
	// SMaxAge overrides MaxAge for shared caches — the peer is one.
	SMaxAge    time.Duration
	HasSMaxAge bool
	// StaleWhileRevalidate extends serving past expiry while a background
	// revalidation runs (RFC 5861).
	StaleWhileRevalidate time.Duration
	HasSWR               bool
	// StaleIfError extends serving past expiry when the origin is
	// unreachable or erroring (RFC 5861).
	StaleIfError time.Duration
	HasSIE       bool
}

// ParseCacheControl parses a Cache-Control header value. It is tolerant by
// design — unknown directives are skipped, malformed or negative durations
// drop just their directive — and must never panic (there is a fuzz target
// holding it to that).
func ParseCacheControl(header string) CacheControl {
	var cc CacheControl
	for _, part := range strings.Split(header, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val := part, ""
		if eq := strings.IndexByte(part, '='); eq >= 0 {
			name, val = part[:eq], strings.TrimSpace(part[eq+1:])
			val = strings.Trim(val, `"`)
		}
		name = strings.ToLower(strings.TrimSpace(name))
		switch name {
		case "no-store":
			cc.NoStore = true
		case "no-cache":
			cc.NoCache = true
		case "max-age":
			if d, ok := parseDeltaSeconds(val); ok {
				cc.MaxAge, cc.HasMaxAge = d, true
			}
		case "s-maxage":
			if d, ok := parseDeltaSeconds(val); ok {
				cc.SMaxAge, cc.HasSMaxAge = d, true
			}
		case "stale-while-revalidate":
			if d, ok := parseDeltaSeconds(val); ok {
				cc.StaleWhileRevalidate, cc.HasSWR = d, true
			}
		case "stale-if-error":
			if d, ok := parseDeltaSeconds(val); ok {
				cc.StaleIfError, cc.HasSIE = d, true
			}
		}
	}
	return cc
}

// parseDeltaSeconds parses a delta-seconds directive value. Malformed or
// negative values report !ok (the directive is dropped, which degrades to
// the conservative default for that directive).
func parseDeltaSeconds(v string) (time.Duration, bool) {
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil || n < 0 {
		return 0, false
	}
	// Clamp absurd values so arithmetic on ttl+window can never overflow.
	const maxDelta = int64(10 * 365 * 24 * 3600)
	if n > maxDelta {
		n = maxDelta
	}
	return time.Duration(n) * time.Second, true
}

// TTL returns the freshness lifetime a shared cache must honor: s-maxage
// takes precedence over max-age. ok is false when neither was present.
func (c CacheControl) TTL() (time.Duration, bool) {
	if c.HasSMaxAge {
		return c.SMaxAge, true
	}
	if c.HasMaxAge {
		return c.MaxAge, true
	}
	return 0, false
}

// FormatCacheControl renders the origin's default object cache policy as a
// Cache-Control header value. Zero swr/sie windows omit their directives.
func FormatCacheControl(maxAge, swr, sie time.Duration) string {
	var b strings.Builder
	b.WriteString("max-age=")
	b.WriteString(strconv.FormatInt(int64(maxAge/time.Second), 10))
	if swr > 0 {
		b.WriteString(", stale-while-revalidate=")
		b.WriteString(strconv.FormatInt(int64(swr/time.Second), 10))
	}
	if sie > 0 {
		b.WriteString(", stale-if-error=")
		b.WriteString(strconv.FormatInt(int64(sie/time.Second), 10))
	}
	return b.String()
}
