package nocdn

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"hpop/internal/hpop"
)

// The warm tier of the two-tier peer cache: an append-only segment store on
// real disk. The paper's HPoP is a home appliance — "a big disk and a modest
// RAM budget" — so the working set must not be capped by RAM. Hot objects
// live in the sharded memory LRU; on eviction they spill here, into
// fixed-cap segment files with an in-memory index (key -> segment, offset,
// length, SHA-256). Disk hits are hash-verified before a single byte leaves
// the box (the PR 2 "no unverified bytes" invariant, now held at rest), and
// either promoted back to the memory tier or streamed off the segment file
// by http.ServeContent without ever being held whole in memory.
//
// What is verified when:
//
//   - promotion (readVerify) and the scrubber (verifyAtRest) hash the whole
//     object against the SHA-256 the record header carries;
//   - a streamed serve (verifyWindow) hashes the segBlockSize blocks that
//     cover the bytes the response will carry, against per-block sums kept in
//     the index entry. The sums are not on disk: the first streamed serve of
//     an entry (or a scrub pass that gets there first) earns them in the same
//     pass that checks the whole object against the header's sum, so they
//     are exactly as trustworthy as it is, and a restart, a supersede or a
//     refetch starts over from that check. Entries of one block or less keep
//     none and verify whole.
//
// Every path quarantines on a mismatch, on every serve, before a byte is
// written; nothing is remembered as "already verified".

// ErrCacheCorrupt reports an at-rest hash mismatch; the entry has been
// quarantined (dropped from the index) by the time a caller sees this.
var ErrCacheCorrupt = errors.New("nocdn: disk cache entry failed hash verification")

const (
	// segMagic starts every record so a recovery scan can tell a record
	// boundary from a torn tail or stray bytes.
	segMagic = "hSG1"

	// segHeaderSize is magic + keyLen(u16) + dataLen(u32) + SHA-256.
	segHeaderSize = 4 + 2 + 4 + sha256.Size

	// maxSegKeyLen bounds keys a record may carry; the recovery scan
	// rejects anything larger as corruption.
	maxSegKeyLen = 4096

	// DefaultSegmentBytes is the per-segment rotation cap.
	DefaultSegmentBytes = 64 << 20

	// DefaultDiskCacheBytes is the disk-tier budget when a cache dir is
	// configured without an explicit size.
	DefaultDiskCacheBytes = 1 << 30

	// segBlockSize is the unit a streamed serve verifies: one SHA-256 per
	// block of an entry's data, 32 B of index per 64 KiB at rest (0.05%).
	// It is chunkPool's buffer size, so one pooled read is one block.
	segBlockSize = 64 << 10
)

// segEntry locates one object inside a segment. off is the data offset (the
// record header and key precede it in the file).
type segEntry struct {
	seg uint64
	off int64
	n   int64
	sum [sha256.Size]byte
	// blocks holds one SHA-256 per segBlockSize block of the data once a
	// whole-object pass against sum has earned them (verifyAtRest); nil until
	// then, and always for entries of one block or less. Immutable once
	// published: readers share it without a lock.
	blocks [][sha256.Size]byte
	meta   *entryMeta // in the index only: nil after a restart, until cacheGet
}

// sameRecord reports whether o is the record e locates. This, not ==, is
// "the entry I read is still the one indexed": blocks may be attached to the
// indexed copy between a get and a quarantine.
func (e segEntry) sameRecord(o segEntry) bool {
	return e.seg == o.seg && e.off == o.off
}

// segment is one append-only file. Readers take a reference before touching
// the *os.File so reclamation can unlink a segment while a ServeContent
// stream is still draining it: the name disappears immediately, the fd (and
// the kernel's pages) live until the last reader releases.
type segment struct {
	id   uint64
	path string
	f    *os.File
	size int64 // bytes written (file size)
	dead int64 // bytes belonging to superseded/quarantined entries
	live map[string]struct{}

	refs      atomic.Int64 // store's own reference plus one per active reader
	condemned atomic.Bool
}

// acquire takes a read reference. It returns false when the segment is
// already condemned and the fd may be gone.
func (s *segment) acquire() bool {
	for {
		n := s.refs.Load()
		if n <= 0 {
			return false
		}
		if s.refs.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// release drops a reference; the last one out closes the file.
func (s *segment) release() {
	if s.refs.Add(-1) == 0 {
		s.f.Close()
	}
}

// segmentStore is the disk tier. All index and segment-set mutation happens
// under mu; reads resolve the entry under mu, take a segment reference, and
// do file IO outside the lock.
type segmentStore struct {
	dir      string
	maxBytes int64
	segMax   int64

	metrics atomic.Pointer[hpop.Metrics]

	mu       sync.Mutex
	index    map[string]segEntry
	segments map[uint64]*segment
	order    []uint64 // segment ids, oldest first
	active   *segment
	nextID   uint64
	total    int64 // sum of segment file sizes

	quarantined atomic.Int64
	// hashed counts entry bytes read through at-rest verification, so tests
	// can say how much a serve hashed; not exported as a metric.
	hashed atomic.Int64
}

// openSegmentStore opens (or creates) the store rooted at dir and rebuilds
// the index by scanning every segment file. A torn tail — a record whose
// header or payload extends past EOF, or whose magic does not match — ends
// that segment's scan and the file is truncated back to the last good
// record, so a crash mid-append costs exactly the in-flight entry.
func openSegmentStore(dir string, maxBytes, segBytes int64) (*segmentStore, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultDiskCacheBytes
	}
	if segBytes <= 0 {
		segBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("nocdn: cache dir: %w", err)
	}
	s := &segmentStore{
		dir:      dir,
		maxBytes: maxBytes,
		segMax:   segBytes,
		index:    make(map[string]segEntry),
		segments: make(map[uint64]*segment),
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	return s, nil
}

// setMetrics (re)wires the metrics registry; nil-safe like the registry
// itself.
func (s *segmentStore) setMetrics(m *hpop.Metrics) {
	s.metrics.Store(m)
	// Export the whole nocdn.cache.* / nocdn.scrub.* family at attach time
	// so dashboards and CI can assert the names before any traffic.
	for _, c := range []string{
		"nocdn.cache.hits.mem", "nocdn.cache.hits.disk",
		"nocdn.cache.bytes.mem", "nocdn.cache.bytes.disk", "nocdn.cache.bytes.origin",
		"nocdn.cache.spills", "nocdn.cache.spill_bytes", "nocdn.cache.promotions",
		"nocdn.cache.quarantined", "nocdn.cache.segments_rotated", "nocdn.cache.segments_reclaimed",
		"nocdn.scrub.passes", "nocdn.scrub.checked", "nocdn.scrub.quarantined",
	} {
		m.Add(c, 0)
	}
	s.publishGauges()
}

func (s *segmentStore) met() *hpop.Metrics { return s.metrics.Load() }

// publishGauges refreshes the disk-tier gauges.
func (s *segmentStore) publishGauges() {
	m := s.met()
	if m == nil {
		return
	}
	s.mu.Lock()
	entries, total, segs := len(s.index), s.total, len(s.segments)
	s.mu.Unlock()
	m.Set("nocdn.cache.disk_entries", float64(entries))
	m.Set("nocdn.cache.disk_bytes", float64(total))
	m.Set("nocdn.cache.segments", float64(segs))
}

// segPath names segment id's file.
func (s *segmentStore) segPath(id uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("seg-%08d.seg", id))
}

// recover scans existing segment files oldest-first, rebuilding the index.
// Later records supersede earlier ones for the same key (dead bytes are
// accounted to the superseded segment). The newest segment is reopened for
// append when it still has room.
func (s *segmentStore) recover() error {
	names, err := filepath.Glob(filepath.Join(s.dir, "seg-*.seg"))
	if err != nil {
		return err
	}
	sort.Strings(names)
	for _, name := range names {
		var id uint64
		if _, err := fmt.Sscanf(filepath.Base(name), "seg-%d.seg", &id); err != nil {
			continue // not ours
		}
		seg, err := s.scanSegment(id, name)
		if err != nil {
			return err
		}
		if seg == nil {
			continue // empty after truncation; removed
		}
		s.segments[seg.id] = seg
		s.order = append(s.order, seg.id)
		s.total += seg.size
		if seg.id >= s.nextID {
			s.nextID = seg.id + 1
		}
	}
	// Reuse the newest segment for appends when it has room; otherwise the
	// first put rotates.
	if n := len(s.order); n > 0 {
		last := s.segments[s.order[n-1]]
		if last.size < s.segMax {
			s.active = last
		}
	}
	// Drop segments made fully dead by supersession, and enforce the budget
	// in case it shrank between runs.
	s.reclaimLocked()
	return nil
}

// scanSegment replays one file's records into the index, truncating at the
// first sign of a torn or corrupt record. Returns nil when the file holds no
// valid records (it is deleted).
func (s *segmentStore) scanSegment(id uint64, path string) (*segment, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	size := fi.Size()
	seg := &segment{id: id, path: path, f: f, live: make(map[string]struct{})}
	seg.refs.Store(1)

	var (
		off    int64
		hdr    [segHeaderSize]byte
		keyBuf [maxSegKeyLen]byte
		good   int64 // end of the last intact record
	)
	for off+segHeaderSize <= size {
		if _, err := f.ReadAt(hdr[:], off); err != nil {
			break
		}
		if string(hdr[:4]) != segMagic {
			break // stray bytes or torn write: everything from here is waste
		}
		keyLen := int64(binary.LittleEndian.Uint16(hdr[4:6]))
		dataLen := int64(binary.LittleEndian.Uint32(hdr[6:10]))
		if keyLen == 0 || keyLen > maxSegKeyLen {
			break
		}
		end := off + segHeaderSize + keyLen + dataLen
		if end > size {
			break // torn tail: payload never finished hitting the disk
		}
		if _, err := f.ReadAt(keyBuf[:keyLen], off+segHeaderSize); err != nil {
			break
		}
		key := string(keyBuf[:keyLen])
		e := segEntry{seg: id, off: off + segHeaderSize + keyLen, n: dataLen}
		copy(e.sum[:], hdr[10:10+sha256.Size])
		if prev, ok := s.index[key]; ok {
			if prev.seg == id {
				// Superseded within the segment being scanned (it is not
				// in s.segments yet).
				seg.dead += prev.n
			} else {
				s.retireLocked(key, prev)
			}
		}
		s.index[key] = e
		seg.live[key] = struct{}{}
		good = end
		off = end
	}
	if good < size {
		// Discard the torn tail so the next append starts on a record
		// boundary.
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, err
		}
	}
	seg.size = good
	if len(seg.live) == 0 && good == 0 {
		f.Close()
		os.Remove(path)
		return nil, nil
	}
	return seg, nil
}

// retireLocked marks a previously-indexed entry's bytes dead and removes
// the key from its segment's live set (mu held; the index entry itself is
// the caller's to overwrite/delete).
func (s *segmentStore) retireLocked(key string, e segEntry) {
	if seg, ok := s.segments[e.seg]; ok {
		seg.dead += e.n
		delete(seg.live, key)
	}
}

// put appends one record carrying meta. A key already stored with the same
// hash only takes meta, unless it is older than the one held, so
// memory<->disk ping-pong (evict, promote, evict again) costs one write.
func (s *segmentStore) put(key string, data []byte, sum [sha256.Size]byte, meta *entryMeta) error {
	if int64(len(key)) > maxSegKeyLen {
		return fmt.Errorf("nocdn: cache key too long (%d bytes)", len(key))
	}
	recLen := int64(segHeaderSize + len(key) + len(data))
	if recLen > s.segMax {
		return nil // never store an object bigger than a whole segment
	}

	s.mu.Lock()
	if prev, ok := s.index[key]; ok {
		if prev.sum == sum { // identical bytes already at rest
			if prev.meta == nil || (meta != nil && !meta.fetchedAt.Before(prev.meta.fetchedAt)) {
				prev.meta = meta
				s.index[key] = prev
			}
			s.mu.Unlock()
			return nil
		}
		s.supersedeLocked(key, prev)
	}
	if s.active == nil || s.active.size+recLen > s.segMax {
		if err := s.rotateLocked(); err != nil {
			s.mu.Unlock()
			return err
		}
	}
	seg := s.active
	off := seg.size

	// Two sequential writes — header+key from a small buffer, then the
	// payload straight from the caller's slice — instead of assembling the
	// record in a payload-sized copy under mu. A crash between (or inside)
	// them leaves a record whose declared end lies past EOF, which is the
	// torn tail scanSegment already truncates (end > size); a failed second
	// write leaves seg.size unmoved, so the next append overwrites the
	// orphaned header.
	head := make([]byte, segHeaderSize+len(key))
	copy(head, segMagic)
	binary.LittleEndian.PutUint16(head[4:6], uint16(len(key)))
	binary.LittleEndian.PutUint32(head[6:10], uint32(len(data)))
	copy(head[10:10+sha256.Size], sum[:])
	copy(head[segHeaderSize:], key)
	_, err := seg.f.WriteAt(head, off)
	if err == nil {
		_, err = seg.f.WriteAt(data, off+int64(len(head)))
	}
	if err != nil {
		s.mu.Unlock()
		return fmt.Errorf("nocdn: segment append: %w", err)
	}
	seg.size += recLen
	s.total += recLen
	s.index[key] = segEntry{seg: seg.id, off: off + int64(segHeaderSize+len(key)), n: int64(len(data)), sum: sum, meta: meta}
	seg.live[key] = struct{}{}
	s.reclaimLocked()
	s.mu.Unlock()

	m := s.met()
	m.Inc("nocdn.cache.spills")
	m.Add("nocdn.cache.spill_bytes", float64(len(data)))
	s.publishGauges()
	return nil
}

// supersedeLocked retires key's previous entry (mu held).
func (s *segmentStore) supersedeLocked(key string, prev segEntry) {
	s.retireLocked(key, prev)
	delete(s.index, key)
}

// refresh swaps key's metadata old for m (a 304's, or nil for a record a
// restart recovered), provided the entry still carries old.
func (s *segmentStore) refresh(key string, old, m *entryMeta) {
	s.mu.Lock()
	if cur, ok := s.index[key]; ok && cur.meta == old {
		cur.meta = m
		s.index[key] = cur
	}
	s.mu.Unlock()
}

// adoptMeta gives each record the metadata a closed tier's index held for
// the same key and bytes.
func (s *segmentStore) adoptMeta(index map[string]segEntry) {
	s.mu.Lock()
	for key, e := range s.index {
		if old, ok := index[key]; ok && old.sum == e.sum {
			e.meta = old.meta
			s.index[key] = e
		}
	}
	s.mu.Unlock()
}

// remove drops key from the index — cache invalidation (no-store policy,
// hash-epoch supersession), distinct from quarantine: the corruption
// counters don't move. A no-op for unknown keys.
func (s *segmentStore) remove(key string) {
	s.mu.Lock()
	if cur, ok := s.index[key]; ok {
		s.supersedeLocked(key, cur)
		s.reclaimLocked()
	}
	s.mu.Unlock()
	s.publishGauges()
}

// rotateLocked seals the active segment and opens a fresh one (mu held).
func (s *segmentStore) rotateLocked() error {
	id := s.nextID
	s.nextID++
	path := s.segPath(id)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("nocdn: new segment: %w", err)
	}
	seg := &segment{id: id, path: path, f: f, live: make(map[string]struct{})}
	seg.refs.Store(1)
	s.segments[id] = seg
	s.order = append(s.order, id)
	s.active = seg
	s.met().Inc("nocdn.cache.segments_rotated")
	return nil
}

// reclaimLocked frees disk space (mu held): first any fully-dead sealed
// segment, then — while still over budget — whole oldest segments, dropping
// whatever live keys they carry (the disk tier's eviction is FIFO by
// segment, which is exactly what an append-only log can do cheaply).
func (s *segmentStore) reclaimLocked() {
	keep := s.order[:0]
	for _, id := range s.order {
		seg := s.segments[id]
		if seg != s.active && len(seg.live) == 0 {
			s.condemnLocked(seg)
			continue
		}
		keep = append(keep, id)
	}
	s.order = keep
	for s.total > s.maxBytes && len(s.order) > 0 {
		seg := s.segments[s.order[0]]
		if seg == s.active {
			break // never drop the segment being appended to
		}
		for key := range seg.live {
			delete(s.index, key)
		}
		seg.live = make(map[string]struct{})
		s.condemnLocked(seg)
		s.order = s.order[1:]
	}
}

// condemnLocked unlinks a segment and drops the store's reference; readers
// mid-stream keep the fd alive until they finish (mu held).
func (s *segmentStore) condemnLocked(seg *segment) {
	delete(s.segments, seg.id)
	s.total -= seg.size
	seg.condemned.Store(true)
	os.Remove(seg.path)
	seg.release()
	s.met().Inc("nocdn.cache.segments_reclaimed")
}

// get resolves key to its entry and pins the segment for reading. The
// caller must release() the returned segment exactly once on success.
func (s *segmentStore) get(key string) (segEntry, *segment, bool) {
	s.mu.Lock()
	e, ok := s.index[key]
	if !ok {
		s.mu.Unlock()
		return segEntry{}, nil, false
	}
	seg, ok := s.segments[e.seg]
	if !ok || !seg.acquire() {
		delete(s.index, key)
		s.mu.Unlock()
		return segEntry{}, nil, false
	}
	s.mu.Unlock()
	return e, seg, true
}

// sectionReader returns a reader over exactly the entry's data bytes. Only
// the verify paths and newWindowReader — the one reader a response is served
// from — may call it.
func sectionReader(e segEntry, seg *segment) *io.SectionReader {
	return io.NewSectionReader(seg.f, e.off, e.n)
}

// readVerify reads the entry's data into a fresh exact-size slice and
// checks it against the indexed SHA-256. A mismatch quarantines the entry
// and returns ErrCacheCorrupt: corrupt disk bytes are never handed to a
// caller. The returned slice is the caller's to own (it goes straight into
// the memory LRU on promotion).
func (s *segmentStore) readVerify(key string, e segEntry, seg *segment) ([]byte, error) {
	data := make([]byte, e.n)
	if _, err := seg.f.ReadAt(data, e.off); err != nil {
		s.quarantine(key, e)
		return nil, fmt.Errorf("nocdn: segment read: %w", err)
	}
	if sha256.Sum256(data) != e.sum {
		s.quarantine(key, e)
		return nil, ErrCacheCorrupt
	}
	return data, nil
}

// verifyAtRest streams the whole entry through SHA-256 one pooled block
// buffer at a time (no whole-object allocation) and quarantines on mismatch.
// For an entry of more than one block that has no block sums yet, the same
// pass hashes each buffer on its own and, once the whole object has checked
// out against e.sum, publishes the list — provided the index still holds the
// record that was read.
func (s *segmentStore) verifyAtRest(key string, e segEntry, seg *segment) error {
	var blocks [][sha256.Size]byte
	if e.blocks == nil && e.n > segBlockSize {
		blocks = make([][sha256.Size]byte, 0, (e.n+segBlockSize-1)/segBlockSize)
	}
	h := sha256.New()
	err := s.readBlocks(e, seg, 0, e.n, func(_ int64, b []byte) error {
		h.Write(b)
		if blocks != nil {
			blocks = append(blocks, sha256.Sum256(b))
		}
		return nil
	})
	if err == nil {
		var sum [sha256.Size]byte
		if h.Sum(sum[:0]); sum != e.sum {
			err = ErrCacheCorrupt
		}
	}
	if err != nil {
		s.quarantine(key, e)
		return err
	}
	if blocks != nil {
		s.mu.Lock()
		if cur, ok := s.index[key]; ok && cur.sameRecord(e) && cur.blocks == nil {
			cur.blocks = blocks
			s.index[key] = cur
		}
		s.mu.Unlock()
	}
	return nil
}

// verifyWindow verifies the bytes [start, end) of the entry's data for a
// streamed serve and returns the span [lo, hi) it vouches for: the blocks
// covering the window when the entry has earned its block sums (at most two
// blocks more than asked when the window is not block-aligned), otherwise
// the whole entry, through verifyAtRest, which earns them. A mismatch or
// read error quarantines, exactly as a whole-object check does.
func (s *segmentStore) verifyWindow(key string, e segEntry, seg *segment, start, end int64) (lo, hi int64, err error) {
	if e.blocks == nil {
		return 0, e.n, s.verifyAtRest(key, e, seg)
	}
	lo = start / segBlockSize * segBlockSize
	hi = min((end+segBlockSize-1)/segBlockSize*segBlockSize, e.n)
	err = s.readBlocks(e, seg, lo, hi, func(off int64, b []byte) error {
		if sha256.Sum256(b) != e.blocks[off/segBlockSize] {
			return ErrCacheCorrupt
		}
		return nil
	})
	if err != nil {
		s.quarantine(key, e)
		return 0, 0, err
	}
	return lo, hi, nil
}

// readBlocks reads the entry's data from the block-aligned offset lo up to
// hi into a pooled buffer, one segBlockSize block (the last may be short) at
// a time, and hands each with its offset to fn.
func (s *segmentStore) readBlocks(e segEntry, seg *segment, lo, hi int64, fn func(off int64, b []byte) error) error {
	s.hashed.Add(hi - lo)
	sec := sectionReader(e, seg)
	buf := chunkPool.Get().(*[]byte)
	defer chunkPool.Put(buf)
	for off := lo; off < hi; off += segBlockSize {
		b := (*buf)[:min(segBlockSize, hi-off)]
		if _, err := sec.ReadAt(b, off); err != nil {
			return fmt.Errorf("nocdn: segment read: %w", err)
		}
		if err := fn(off, b); err != nil {
			return err
		}
	}
	return nil
}

// errUnverifiedRead is what windowReader answers a Read outside its window.
var errUnverifiedRead = errors.New("nocdn: read outside the verified window of a disk entry")

// windowReader is the io.ReadSeeker a streamed serve hands http.ServeContent:
// the entry's section, failing closed outside [lo, hi) — the span verifyWindow
// vouched for in this request. Seeks are free (ServeContent seeks to the end
// to learn the size); a Read that would return a byte outside the window
// returns errUnverifiedRead instead, so if net/http ever resolves a request
// to other bytes than streamOutcome did, the body is cut (the loader retries
// into the same range) and no unverified at-rest byte is emitted.
type windowReader struct {
	sec    *io.SectionReader
	lo, hi int64
}

func newWindowReader(e segEntry, seg *segment, lo, hi int64) *windowReader {
	return &windowReader{sec: sectionReader(e, seg), lo: lo, hi: hi}
}

func (w *windowReader) Seek(offset int64, whence int) (int64, error) {
	return w.sec.Seek(offset, whence)
}

func (w *windowReader) Read(p []byte) (int, error) {
	pos, _ := w.sec.Seek(0, io.SeekCurrent)
	if pos >= w.sec.Size() {
		return 0, io.EOF
	}
	if pos < w.lo || pos >= w.hi {
		return 0, errUnverifiedRead
	}
	if room := w.hi - pos; int64(len(p)) > room {
		p = p[:room]
	}
	return w.sec.Read(p)
}

// quarantine drops a corrupt (or unreadable) entry from the index so it can
// never be served again; the next request for the key is a clean miss that
// refetches from the origin.
func (s *segmentStore) quarantine(key string, e segEntry) {
	s.mu.Lock()
	if cur, ok := s.index[key]; ok && cur.sameRecord(e) {
		s.supersedeLocked(key, cur)
		s.reclaimLocked()
	}
	s.mu.Unlock()
	s.quarantined.Add(1)
	s.met().Inc("nocdn.cache.quarantined")
	s.publishGauges()
}

// scrub hash-verifies every indexed entry at rest — the whole object against
// its header sum, whatever block sums it has earned — quarantining
// mismatches. It pins one segment at a time and never blocks writers for
// longer than an index snapshot.
func (s *segmentStore) scrub() (checked, quarantined int) {
	m := s.met()
	m.Inc("nocdn.scrub.passes")
	s.mu.Lock()
	keys := make([]string, 0, len(s.index))
	for k := range s.index {
		keys = append(keys, k)
	}
	s.mu.Unlock()
	sort.Strings(keys)
	for _, key := range keys {
		e, seg, ok := s.get(key)
		if !ok {
			continue // evicted or superseded since the snapshot
		}
		checked++
		err := s.verifyAtRest(key, e, seg)
		seg.release()
		if err != nil {
			quarantined++
		}
	}
	m.Add("nocdn.scrub.checked", float64(checked))
	m.Add("nocdn.scrub.quarantined", float64(quarantined))
	return checked, quarantined
}

// stats reports the disk tier's index and file footprint.
func (s *segmentStore) stats() (entries int, bytes int64, segments int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index), s.total, len(s.segments)
}

// close releases every segment and returns the index it drops. Readers
// mid-stream finish safely; new gets fail.
func (s *segmentStore) close() (index map[string]segEntry) {
	s.mu.Lock()
	segs := make([]*segment, 0, len(s.segments))
	for _, seg := range s.segments {
		segs = append(segs, seg)
	}
	s.segments = make(map[uint64]*segment)
	index, s.index = s.index, make(map[string]segEntry)
	s.order = nil
	s.active = nil
	s.mu.Unlock()
	for _, seg := range segs {
		seg.condemned.Store(true)
		seg.release()
	}
	return index
}

// chunkPool holds segBlockSize scratch buffers for at-rest verification, so
// a serve allocates nothing proportional to the object it checks.
var chunkPool = sync.Pool{
	New: func() any {
		b := make([]byte, segBlockSize)
		return &b
	},
}
