package nocdn

import (
	"testing"
	"time"
)

func TestParseCacheControl(t *testing.T) {
	sec := func(n int64) time.Duration { return time.Duration(n) * time.Second }
	cases := []struct {
		name   string
		header string
		want   CacheControl
	}{
		{"empty", "", CacheControl{}},
		{"max-age", "max-age=60", CacheControl{MaxAge: sec(60), HasMaxAge: true}},
		{"no-store", "no-store", CacheControl{NoStore: true}},
		{"no-cache", "no-cache", CacheControl{NoCache: true}},
		{"s-maxage alongside max-age", "max-age=1, s-maxage=120",
			CacheControl{MaxAge: sec(1), HasMaxAge: true, SMaxAge: sec(120), HasSMaxAge: true}},
		{"rfc5861 windows", "max-age=60, stale-while-revalidate=30, stale-if-error=300",
			CacheControl{MaxAge: sec(60), HasMaxAge: true,
				StaleWhileRevalidate: sec(30), HasSWR: true,
				StaleIfError: sec(300), HasSIE: true}},
		{"case and spacing tolerated", "  Max-Age = 10 ,NO-STORE ",
			CacheControl{MaxAge: sec(10), HasMaxAge: true, NoStore: true}},
		{"quoted value", `max-age="45"`, CacheControl{MaxAge: sec(45), HasMaxAge: true}},
		{"unknown directives skipped", "public, immutable, max-age=5",
			CacheControl{MaxAge: sec(5), HasMaxAge: true}},
		{"malformed delta dropped", "max-age=banana, no-cache", CacheControl{NoCache: true}},
		{"negative delta dropped", "max-age=-5", CacheControl{}},
		{"missing value dropped", "max-age=, s-maxage", CacheControl{}},
		{"huge delta clamped", "max-age=99999999999999999999", CacheControl{}}, // overflows int64: malformed
		{"clamped at ten years", "max-age=9999999999",
			CacheControl{MaxAge: sec(10 * 365 * 24 * 3600), HasMaxAge: true}},
		{"empty parts tolerated", ",,, max-age=7 ,,", CacheControl{MaxAge: sec(7), HasMaxAge: true}},
		{"duplicate directive last wins", "max-age=10, max-age=20",
			CacheControl{MaxAge: sec(20), HasMaxAge: true}},
		// Known departure: RFC 9111 §4.2.1 says to use a repeated
		// directive's first value or to treat the response as stale. The
		// last value wins, so this response is fresh for a minute.
		{"repeated max-age=0 then 60 (known departure)", "max-age=0, max-age=60",
			CacheControl{MaxAge: sec(60), HasMaxAge: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := ParseCacheControl(tc.header); got != tc.want {
				t.Fatalf("ParseCacheControl(%q) = %+v, want %+v", tc.header, got, tc.want)
			}
		})
	}
}

func TestCacheControlTTL(t *testing.T) {
	cases := []struct {
		name   string
		header string
		want   time.Duration
		ok     bool
	}{
		{"none", "no-cache", 0, false},
		{"max-age only", "max-age=60", 60 * time.Second, true},
		{"s-maxage wins", "max-age=1, s-maxage=120", 120 * time.Second, true},
		{"s-maxage zero still wins", "max-age=60, s-maxage=0", 0, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, ok := ParseCacheControl(tc.header).TTL()
			if got != tc.want || ok != tc.ok {
				t.Fatalf("TTL(%q) = (%v, %v), want (%v, %v)", tc.header, got, ok, tc.want, tc.ok)
			}
		})
	}
}

func TestFormatCacheControlRoundTrips(t *testing.T) {
	cases := []struct {
		maxAge, swr, sie time.Duration
		want             string
	}{
		{time.Minute, 0, 0, "max-age=60"},
		{time.Minute, 30 * time.Second, 0, "max-age=60, stale-while-revalidate=30"},
		{time.Minute, 30 * time.Second, 5 * time.Minute,
			"max-age=60, stale-while-revalidate=30, stale-if-error=300"},
	}
	for _, tc := range cases {
		got := FormatCacheControl(tc.maxAge, tc.swr, tc.sie)
		if got != tc.want {
			t.Fatalf("FormatCacheControl = %q, want %q", got, tc.want)
		}
		cc := ParseCacheControl(got)
		if ttl, ok := cc.TTL(); !ok || ttl != tc.maxAge {
			t.Fatalf("round-trip TTL of %q = (%v, %v), want (%v, true)", got, ttl, ok, tc.maxAge)
		}
		if (cc.HasSWR && cc.StaleWhileRevalidate != tc.swr) || (tc.swr > 0 && !cc.HasSWR) {
			t.Fatalf("round-trip swr of %q = %+v", got, cc)
		}
		if (cc.HasSIE && cc.StaleIfError != tc.sie) || (tc.sie > 0 && !cc.HasSIE) {
			t.Fatalf("round-trip sie of %q = %+v", got, cc)
		}
	}
}

// FuzzParseCacheControl holds the parser to its contract: any input, never
// a panic, and every accepted duration non-negative and clamped.
func FuzzParseCacheControl(f *testing.F) {
	for _, seed := range []string{
		"", "max-age=60", "no-store, no-cache",
		"max-age=1, s-maxage=120, stale-while-revalidate=30, stale-if-error=300",
		`max-age="45"`, "max-age=-5", "max-age=99999999999999999999",
		",,,=,=,", "MAX-AGE=0007", "public, immutable", "\x00\xff=\x01",
	} {
		f.Add(seed)
	}
	const maxDelta = time.Duration(10*365*24*3600) * time.Second
	f.Fuzz(func(t *testing.T, header string) {
		cc := ParseCacheControl(header)
		for name, d := range map[string]time.Duration{
			"max-age":                cc.MaxAge,
			"s-maxage":               cc.SMaxAge,
			"stale-while-revalidate": cc.StaleWhileRevalidate,
			"stale-if-error":         cc.StaleIfError,
		} {
			if d < 0 || d > maxDelta {
				t.Fatalf("%s = %v out of [0, %v] for input %q", name, d, maxDelta, header)
			}
		}
		if ttl, ok := cc.TTL(); ok && (ttl < 0 || ttl > maxDelta) {
			t.Fatalf("TTL = %v out of range for input %q", ttl, header)
		}
	})
}
