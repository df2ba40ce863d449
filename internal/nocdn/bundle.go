package nocdn

// The bundle: one request from the loader to one peer for several whole
// objects, answered in one response.
//
//	GET /proxy/PROVIDER?o=PATH&h=HASH&o=PATH&h=HASH...
//
// names each object by its path and the wrapper's hash for it (the
// X-Nocdn-Hash a single GET would carry). The request is a GET, so net/http
// may replay it on a stale keep-alive connection. The answer is 200 under a
// declared Content-Length: BundleHeader lists, in request order, each item's
// length, or -STATUS for an item that failed, and the bodies of the items
// that did not fail follow, concatenated. X-Cache is MISS when any item was
// filled from the origin, else HIT.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"hpop/internal/faults"
	"hpop/internal/hpop"
)

// BundleHeader carries a bundle response's item lengths: comma-separated,
// in request order, -STATUS for an item the peer could not serve. It is in
// canonical form, as net/http writes it.
const BundleHeader = "X-Nocdn-Bundle"

// errBadBundle reports a bundle answer that does not follow the format.
var errBadBundle = errors.New("nocdn: malformed bundle response")

// parseBundleLengths reads a BundleHeader value. want is the number of items
// asked for (< 0: any number). A length is >= 0; a failed item is a status
// between -599 and -100.
func parseBundleLengths(h string, want int) ([]int, error) {
	n := strings.Count(h, ",") + 1
	if h == "" || (want >= 0 && n != want) {
		return nil, fmt.Errorf("%w: %d items declared in %q", errBadBundle, n, h)
	}
	out := make([]int, n)
	for i := range out {
		var f string
		f, h, _ = strings.Cut(h, ",")
		v, err := strconv.Atoi(f)
		if err != nil || (v < 0 && (v < -599 || v > -100)) {
			return nil, fmt.Errorf("%w: item %q", errBadBundle, f)
		}
		out[i] = v
	}
	return out, nil
}

// BundleItems splits a whole bundle response body into its items by the
// lengths its BundleHeader value declares. A failed item is nil.
func BundleItems(lengths string, body []byte) ([][]byte, error) {
	ns, err := parseBundleLengths(lengths, -1)
	if err != nil {
		return nil, err
	}
	items := make([][]byte, len(ns))
	at := 0
	for i, n := range ns {
		if n < 0 {
			continue
		}
		if n > len(body)-at {
			return nil, fmt.Errorf("%w: %d body bytes for lengths %q", errBadBundle, len(body), lengths)
		}
		items[i] = body[at : at+n : at+n]
		at += n
	}
	if at != len(body) {
		return nil, fmt.Errorf("%w: %d body bytes for lengths %q", errBadBundle, len(body), lengths)
	}
	return items, nil
}

// ---- the peer's side ----

// maxBundleItems bounds the objects one bundle may name, and maxBundleBytes
// the bodies a peer resolves for one bundle off the disk tier or from the
// origin: once a bundle's have reached it, each item left answers -503
// unserved, and the loader asks for it again. The loader's bundles keep
// within both — an object larger than maxBundleBytes travels alone — so a
// bundle's attempt needs no more time than its largest object's alone did,
// and one request, holding one admission slot, makes the peer resolve about
// one bundle's bytes however many items it names.
const (
	maxBundleItems = 64
	maxBundleBytes = 1 << 20
)

// bundleQuery reads a bundle request's o= and h= values, in order, from its
// raw query exactly as url.ParseQuery reads them: pairs split at '&', a pair
// holding ';' or whose key or value does not unescape skipped, '+' a space.
// Unescaping allocates only for a value that holds an escape, and the two
// lists share one allocation, sized for the pairs the query holds up to
// what a bundle may name.
func bundleQuery(raw string) (paths, hashes []string) {
	n := min(strings.Count(raw, "&")+1, maxBundleItems+1)
	vals := make([]string, 2*n)
	paths, hashes = vals[:0:n], vals[n:n]
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		if pair == "" || strings.Contains(pair, ";") {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		k, err := url.QueryUnescape(k)
		if err != nil || (k != "o" && k != "h") {
			continue
		}
		if v, err = url.QueryUnescape(v); err != nil {
			continue
		}
		if k == "o" {
			paths = append(paths, v)
		} else {
			hashes = append(hashes, v)
		}
	}
	return paths, hashes
}

// bundleBufSize is the buffer a bundle's in-memory items are gathered in
// before they are written, so that a bundle of small items leaves the peer in
// a few writes rather than one per item: net/http hands a write larger than
// its own 4 KiB buffer straight to the socket. An item at least this large
// is written as it is, uncopied.
const bundleBufSize = 32 << 10

var bundleBufs = sync.Pool{New: func() any { return new([bundleBufSize]byte) }}

// serveBundle answers a bundle. Each item runs the serve a single GET runs
// (lookup, finish), with its own expected hash, and moves the per-request
// counters, servedBytes and the hot-key sketch as one would. Items the
// memory tier answers resolve inline; the rest — origin fills and
// revalidations, and entries verified at rest for streaming — resolve
// concurrently, at most DefaultConcurrency at a time (as many as a loader
// would have had in flight as single GETs), misses coalescing through the
// flight group and each origin leg recorded as an origin_fill span. A
// disk-tier entry too large for the memory tier streams off its segment
// file as a single GET's does; its length is known before it is read. The
// bundle holds the one admission slot its caller took and records one proxy
// span.
func (p *Peer) serveBundle(w http.ResponseWriter, r *http.Request, provider string) {
	paths, hashes := bundleQuery(r.URL.RawQuery)
	if len(paths) == 0 || len(hashes) != len(paths) || len(paths) > maxBundleItems {
		http.Error(w, fmt.Sprintf("want /proxy/provider/path or /proxy/provider?o=path&h=hash... (at most %d)", maxBundleItems), http.StatusBadRequest)
		return
	}
	sp := p.tracer.StartRemote("nocdn.peer", "proxy", hpop.ExtractTraceparent(r.Header))
	sp.SetLabel("peer", p.ID)
	sp.SetLabel("provider", provider)
	sp.SetLabel("objects", strconv.Itoa(len(paths)))
	defer sp.End()

	items := make([]objectServe, len(paths))
	status := make([]int, len(paths)) // an item that failed: its status
	defer func() {
		for i := range items {
			if win := items[i].win; win != nil {
				win.release()
			}
		}
	}()
	var slow []int
	for i, path := range paths {
		if !strings.HasPrefix(path, "/") {
			// Not an object path: refused unserved, as a single GET's URL
			// could never carry it.
			status[i] = http.StatusBadRequest
			continue
		}
		items[i] = p.newServe(r, provider, path, hashes[i])
		if p.lookup(&items[i]) {
			slow = append(slow, i)
			continue
		}
		p.finish(&items[i], nil, sp)
	}
	if len(slow) > 0 {
		p.finishSlow(items, slow, status, sp)
	}

	lengths := make([]byte, 0, 8*len(items))
	var total int64
	xcache := XCacheHit
	for i := range items {
		s := &items[i]
		if i > 0 {
			lengths = append(lengths, ',')
		}
		if s.err != nil {
			sp.SetError(s.err)
			status[i] = http.StatusBadGateway
		}
		if status[i] != 0 {
			lengths = strconv.AppendInt(lengths, -int64(status[i]), 10)
			continue
		}
		lengths = strconv.AppendInt(lengths, s.size(), 10)
		total += s.size()
		if s.out.xcache == XCacheMiss {
			xcache = XCacheMiss
		}
	}
	sp.SetLabel("xcache", xcache)
	h := w.Header()
	h.Set(BundleHeader, string(lengths))
	h.Set(XCacheHeader, xcache)
	h.Set("Content-Type", "application/octet-stream")
	h.Set("Content-Length", strconv.FormatInt(total, 10))
	buf := bundleBufs.Get().(*[bundleBufSize]byte)
	defer bundleBufs.Put(buf)
	held := 0 // bytes gathered in buf, not yet written
	flush := func() {
		if held > 0 {
			w.Write(buf[:held])
			held = 0
		}
	}
	for i := range items {
		s := &items[i]
		if status[i] != 0 {
			continue
		}
		if data := s.out.data; s.win == nil {
			if len(data) >= bundleBufSize {
				flush()
				w.Write(data)
			} else {
				if held+len(data) > bundleBufSize {
					flush()
				}
				held += copy(buf[held:], data)
			}
			p.countBytes(s.out, s.size())
			continue
		}
		flush()
		n, err := io.Copy(w, s.win.reader())
		p.countBytes(s.out, n)
		if err != nil {
			return // the body is cut short: the loader asks again
		}
	}
	flush()
}

// finishSlow finishes the bundle items that lookup left more to do for,
// items[slow[k]], at most DefaultConcurrency at a time: once the bodies they
// resolved reach maxBundleBytes, each one left is marked 503 in status.
func (p *Peer) finishSlow(items []objectServe, slow, status []int, sp *hpop.Span) {
	var next, resolved atomic.Int64
	work := func() {
		for k := int(next.Add(1)) - 1; k < len(slow); k = int(next.Add(1)) - 1 {
			i := slow[k]
			if resolved.Load() >= maxBundleBytes {
				status[i] = http.StatusServiceUnavailable
				continue
			}
			p.finish(&items[i], nil, sp)
			resolved.Add(items[i].size())
		}
	}
	var wg sync.WaitGroup
	for n := min(len(slow), DefaultConcurrency); n > 1; n-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// ---- the loader's side ----

// bundleItem is one whole object a loader asks a peer for in a bundle, and
// what came back.
type bundleItem struct {
	ref *ObjectRef
	// dst is the object's payload memory (ref.Size bytes; nil for a ref the
	// wrapper did not size), shared by every peer tried and the origin.
	dst []byte
	// peer is the candidate asked; rest are the ones after it, health-ranked.
	peer PeerRef
	rest []PeerRef
	// data is the body once it arrived at the wrapper's size. err says why
	// there is none: errBodyLength for an answer of another length.
	data []byte
	err  error
	// tries counts the attempts that reached the item; settled marks an
	// item no further attempt at this peer can change.
	tries   int
	settled bool
}

// bundleURL names items on peerURL.
func bundleURL(peerURL, provider string, items []*bundleItem) string {
	var b strings.Builder
	// Sized for a 64-digit hash and a path of up to 42 bytes per item.
	b.Grow(len(peerURL) + len("/proxy/") + len(provider) + len(items)*len("&o=&h=") + len(items)*(64+42))
	b.WriteString(peerURL)
	b.WriteString("/proxy/")
	b.WriteString(provider)
	for i, it := range items {
		if i == 0 {
			b.WriteString("?o=")
		} else {
			b.WriteString("&o=")
		}
		writeQueryValue(&b, it.ref.Path)
		b.WriteString("&h=")
		writeQueryValue(&b, it.ref.Hash)
	}
	return b.String()
}

// writeQueryValue writes s to b escaped as url.QueryEscape escapes a query
// value, but leaves its slashes, so a bundle URL still shows the paths of the
// objects it names.
func writeQueryValue(b *strings.Builder, s string) {
	const hex = "0123456789ABCDEF"
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9',
			c == '-', c == '_', c == '.', c == '~', c == '/':
			b.WriteByte(c)
		case c == ' ':
			b.WriteByte('+')
		default:
			b.WriteByte('%')
			b.WriteByte(hex[c>>4])
			b.WriteByte(hex[c&15])
		}
	}
}

// bundleAttempt asks one peer for the pending items in one request, with
// sp's traceparent, and settles each item it reaches: a body of the
// wrapper's size lands in the item's dst; a body of another length is
// errBodyLength, read past; a failed item is final unless its status is
// 5xx. A failed response fails every item; a body cut short fails the item
// it cut and leaves the rest unreached. A 200 that does not follow the
// format is the peer answering with other bytes: errBodyLength for every
// item it has not settled. The error is what Policy.Do needs: transient
// while any item is unsettled, else permanent.
func (l *Loader) bundleAttempt(ctx context.Context, sp *hpop.Span, peerURL, provider string, pending []*bundleItem) error {
	fail := func(items []*bundleItem, err error, settled bool) {
		for _, it := range items {
			it.tries++
			it.err, it.settled = err, settled
		}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, bundleURL(peerURL, provider, pending), nil)
	if err != nil {
		fail(pending, err, true)
		return faults.Permanent(err)
	}
	hpop.InjectTraceparent(req.Header, sp)
	resp, err := l.client().Do(req)
	if err != nil {
		fail(pending, err, false)
		return err // transient: reset, blackout, timeout
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
		serr := fmt.Errorf("nocdn: status %d for a bundle of %d from %s", resp.StatusCode, len(pending), peerURL)
		fail(pending, serr, resp.StatusCode < 500)
		if resp.StatusCode >= 500 {
			return serr // transient: overloaded/faulting peer
		}
		return faults.Permanent(serr)
	}
	lengths, err := parseBundleLengths(resp.Header.Get(BundleHeader), len(pending))
	if err == nil && resp.ContentLength >= 0 {
		var sum int64
		for _, n := range lengths {
			sum += int64(max(n, 0))
		}
		if sum != resp.ContentLength {
			err = fmt.Errorf("%w: %d bytes declared by items, %d by Content-Length", errBadBundle, sum, resp.ContentLength)
		}
	}
	if err != nil {
		err = fmt.Errorf("%w: %w", errBodyLength, err)
		fail(pending, err, true)
		return faults.Permanent(err)
	}
	unsettled := false
	for i, it := range pending {
		n := lengths[i]
		if n != len(it.dst) && n > maxUnsizedBody {
			// Too long to read past: the answer ends here for every item.
			err := fmt.Errorf("%w: %w: item %d declared %d bytes", errBodyLength, errBadBundle, i, n)
			fail(pending[i:], err, true)
			return faults.Permanent(err)
		}
		it.tries++
		if n < 0 {
			it.err = fmt.Errorf("nocdn: status %d for %s from %s", -n, it.ref.Path, peerURL)
			it.settled = -n < 500
			unsettled = unsettled || !it.settled
			continue
		}
		if it.dst != nil && n != len(it.dst) {
			// The peer answered in full with other bytes: the tampered case.
			it.err, it.settled = errBodyLength, true
			_, err = io.CopyN(io.Discard, resp.Body, int64(n))
		} else {
			buf := it.dst
			if buf == nil {
				buf = make([]byte, n)
			}
			if _, err = io.ReadFull(resp.Body, buf); err == nil {
				it.data, it.err, it.settled = buf, nil, true
			}
		}
		if err != nil {
			// Cut short: this item failed, the rest were never reached.
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			it.err, it.settled = err, false
			for _, rest := range pending[i+1:] {
				rest.err = err
			}
			return err
		}
	}
	// Consume the end of a chunked body so the connection can be reused.
	var probe [1]byte
	resp.Body.Read(probe[:])
	if unsettled {
		return errors.New("nocdn: bundle items failed")
	}
	return nil
}
