package nocdn

import (
	"fmt"
	"mime"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"hpop/internal/hpop"
)

// catalog is the origin's content part. contentMu guards the published
// objects and pages and the per-object header overrides; the serving hot
// path takes only the read lock, and publishes are rare writes. Object
// hashes are computed once at publish time (AddObject), never on the
// serving path.
type catalog struct {
	contentMu  sync.RWMutex
	objects    map[string]*Object
	pages      map[string]*Page
	objHeaders map[string]http.Header

	// contentEpoch advances on every publish. Pooled wrappers record the
	// epoch they were built under, so a publish invalidates them immediately
	// (hash-epoch-aware expiry).
	contentEpoch atomic.Int64
	// originBytes counts the bytes /content served, an origin-bytes-out
	// figure E4 reports; atomic so serving never takes a lock.
	originBytes atomic.Int64
}

// AddObject registers content. The integrity hash is precomputed here, so
// neither wrapper generation nor content serving ever hashes on a hot path.
// The Content-Type is detected from the path extension (falling back to
// content sniffing); use AddObjectWithType to set it explicitly. Publishing
// advances the content epoch, which invalidates every pooled wrapper — they
// carry per-object hashes and must never outlive the bytes they attest.
func (o *Origin) AddObject(path string, data []byte) {
	o.AddObjectWithType(path, data, detectContentType(path, data))
}

// AddObjectWithType registers content with an explicit media type.
func (o *Origin) AddObjectWithType(path string, data []byte, contentType string) {
	obj := &Object{Path: path, Data: data, Hash: HashBytes(data), ContentType: contentType}
	o.contentMu.Lock()
	o.objects[path] = obj
	o.contentMu.Unlock()
	o.contentEpoch.Add(1)
}

// detectContentType resolves a published object's media type: the path
// extension first (stable across republish), content sniffing second.
func detectContentType(path string, data []byte) string {
	if dot := strings.LastIndexByte(path, '.'); dot >= 0 && !strings.ContainsRune(path[dot:], '/') {
		if ct := mime.TypeByExtension(path[dot:]); ct != "" {
			return ct
		}
	}
	return http.DetectContentType(data)
}

// SetObjectHeader overrides (or, with an empty value, clears) one response
// header /content sends for path — how a provider opts an object into
// no-store, a longer max-age, an Expires date, or Vary keying. Counts as a
// publish for the wrapper pool: policy changes take effect on the next
// wrapper.
func (o *Origin) SetObjectHeader(path, name, value string) {
	o.contentMu.Lock()
	h := o.objHeaders[path]
	if h == nil {
		h = make(http.Header)
		o.objHeaders[path] = h
	}
	if value == "" {
		h.Del(name)
	} else {
		h.Set(name, value)
	}
	o.contentMu.Unlock()
	o.contentEpoch.Add(1)
}

// AddPage registers a page (container + embedded object paths). All paths
// must already exist as objects, and the name must pass CheckName.
func (o *Origin) AddPage(p Page) error {
	if err := CheckName(p.Name); err != nil {
		return err
	}
	o.contentMu.Lock()
	defer o.contentMu.Unlock()
	if _, ok := o.objects[p.Container]; !ok {
		return fmt.Errorf("%w: container %s", ErrUnknownObject, p.Container)
	}
	for _, e := range p.Embedded {
		if _, ok := o.objects[e]; !ok {
			return fmt.Errorf("%w: %s", ErrUnknownObject, e)
		}
	}
	o.pages[p.Name] = &p
	return nil
}

// refMeta is the publish-time object metadata wrapper generation needs —
// snapshotted under the content read lock so generation itself never holds
// the content lock.
type refMeta struct {
	hash string
	size int
}

// pageMeta snapshots one page's layout and object metadata under the
// content read lock: the ordered paths (container first) and each object's
// publish-time hash and size.
func (o *Origin) pageMeta(page string) ([]string, map[string]refMeta, error) {
	o.contentMu.RLock()
	defer o.contentMu.RUnlock()
	p, ok := o.pages[page]
	if !ok {
		return nil, nil, ErrUnknownPage
	}
	paths := append([]string{p.Container}, p.Embedded...)
	meta := make(map[string]refMeta, len(paths))
	for _, path := range paths {
		obj := o.objects[path]
		meta[path] = refMeta{hash: obj.Hash, size: len(obj.Data)}
	}
	return paths, meta, nil
}

// TotalPageBytes returns the full byte weight of a page (what a CDN-less
// origin would serve per view).
func (o *Origin) TotalPageBytes(page string) (int64, error) {
	paths, meta, err := o.pageMeta(page)
	var total int64
	for _, path := range paths {
		total += int64(meta[path].size)
	}
	return total, err
}

// OriginBytes returns bytes served as raw content (peer cache-miss
// backfill plus any client integrity fallbacks).
func (o *Origin) OriginBytes() int64 { return o.originBytes.Load() }

// etagMatches implements the If-None-Match comparison: "*" matches any
// representation, otherwise each listed (possibly W/-prefixed) tag is
// weak-compared against the current one.
func etagMatches(ifNoneMatch, etag string) bool {
	if strings.TrimSpace(ifNoneMatch) == "*" {
		return true
	}
	for _, cand := range strings.Split(ifNoneMatch, ",") {
		if strings.TrimPrefix(strings.TrimSpace(cand), "W/") == etag {
			return true
		}
	}
	return false
}

func (o *Origin) handleContent(w http.ResponseWriter, r *http.Request) {
	sp := o.tracer.StartRemote("nocdn.origin", "serve_content", hpop.ExtractTraceparent(r.Header))
	defer sp.End()
	path := strings.TrimPrefix(r.URL.Path, "/content")
	sp.SetLabel("path", path)
	o.contentMu.RLock()
	obj, ok := o.objects[path]
	var overrides http.Header
	if h := o.objHeaders[path]; h != nil {
		overrides = h.Clone()
	}
	o.contentMu.RUnlock()
	if !ok {
		sp.SetError(ErrUnknownObject)
		http.Error(w, "unknown object", http.StatusNotFound)
		return
	}
	// The strong validator is the object's integrity hash itself, so a
	// 304 is exactly the hash-epoch check over plain HTTP.
	etag := `"` + obj.Hash + `"`
	hdr := w.Header()
	hdr.Set("ETag", etag)
	hdr.Set(ExpectHashHeader, obj.Hash)
	if obj.ContentType != "" {
		hdr.Set("Content-Type", obj.ContentType)
	}
	if o.ObjectMaxAge >= 0 {
		hdr.Set("Cache-Control", FormatCacheControl(o.ObjectMaxAge, o.StaleWhileRevalidate, o.StaleIfError))
	}
	for name, vals := range overrides {
		hdr.Del(name)
		for _, v := range vals {
			hdr.Add(name, v)
		}
	}
	if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatches(inm, etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	o.originBytes.Add(int64(len(obj.Data)))
	// Declared, so a peer's fill and a loader's fallback read into an
	// exact-size slice (net/http would chunk a body this large).
	hdr.Set("Content-Length", strconv.Itoa(len(obj.Data)))
	w.Write(obj.Data)
}
