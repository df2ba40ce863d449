package nocdn

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// storePut spills data for key, computing the hash the way the peer does.
func storePut(t *testing.T, s *segmentStore, key string, data []byte) {
	t.Helper()
	if err := s.put(key, data, sha256.Sum256(data), nil); err != nil {
		t.Fatalf("put %s: %v", key, err)
	}
}

// storeGet reads and verifies key, failing the test on a miss.
func storeGet(t *testing.T, s *segmentStore, key string) []byte {
	t.Helper()
	e, seg, ok := s.get(key)
	if !ok {
		t.Fatalf("get %s: miss", key)
	}
	defer seg.release()
	data, err := s.readVerify(key, e, seg)
	if err != nil {
		t.Fatalf("readVerify %s: %v", key, err)
	}
	return data
}

// contains reports whether key is indexed (no segment pin).
func (s *segmentStore) contains(key string) bool {
	s.mu.Lock()
	_, ok := s.index[key]
	s.mu.Unlock()
	return ok
}

func obj(i, size int) []byte {
	data := make([]byte, size)
	for j := range data {
		data[j] = byte(i + j)
	}
	return data
}

func TestSegmentStoreRoundTrip(t *testing.T) {
	s, err := openSegmentStore(t.TempDir(), 1<<20, 8<<10)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	want := make(map[string][]byte)
	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("prov|/obj/%02d", i)
		want[key] = obj(i, 512)
		storePut(t, s, key, want[key])
	}
	for key, data := range want {
		if got := storeGet(t, s, key); !bytes.Equal(got, data) {
			t.Fatalf("%s: got %d bytes, want %d", key, len(got), len(data))
		}
	}
	entries, total, segs := s.stats()
	if entries != 20 {
		t.Fatalf("entries = %d, want 20", entries)
	}
	if total <= 0 || segs < 2 {
		t.Fatalf("total=%d segments=%d, want rotation across >= 2 segments", total, segs)
	}
}

// TestSegmentStoreDedupeRewrite: re-spilling identical bytes (the
// memory<->disk ping-pong of a hot object) must not grow the store.
func TestSegmentStoreDedupeRewrite(t *testing.T) {
	s, err := openSegmentStore(t.TempDir(), 1<<20, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	data := obj(1, 2048)
	storePut(t, s, "k", data)
	_, total1, _ := s.stats()
	for i := 0; i < 10; i++ {
		storePut(t, s, "k", data)
	}
	_, total2, _ := s.stats()
	if total2 != total1 {
		t.Fatalf("identical re-put grew the store: %d -> %d", total1, total2)
	}
	// A changed value is a real supersede.
	storePut(t, s, "k", obj(2, 2048))
	if got := storeGet(t, s, "k"); !bytes.Equal(got, obj(2, 2048)) {
		t.Fatal("superseding put did not win")
	}
}

// TestSegmentStoreSameSumPutKeepsNewerMeta puts one key's bytes again with
// metadata fetched later, then earlier. The later one replaces what the
// record holds; the earlier one, a promoted copy spilling back after a 304
// refreshed the record, must not roll it back.
func TestSegmentStoreSameSumPutKeepsNewerMeta(t *testing.T) {
	dir := t.TempDir()
	s, err := openSegmentStore(dir, 1<<20, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	data := obj(1, 2048)
	sum := sha256.Sum256(data)
	at := time.Unix(1_700_000_000, 0)
	put := func(m *entryMeta) {
		t.Helper()
		if err := s.put("k", data, sum, m); err != nil {
			t.Fatal(err)
		}
	}
	metaOf := func(s *segmentStore) *entryMeta {
		t.Helper()
		e, seg, ok := s.get("k")
		if !ok {
			t.Fatal("k missing")
		}
		seg.release()
		return e.meta
	}
	first, refreshed, stale := &entryMeta{fetchedAt: at}, &entryMeta{fetchedAt: at.Add(time.Minute)}, &entryMeta{fetchedAt: at}
	put(first)
	put(refreshed)
	if got := metaOf(s); got != refreshed {
		t.Fatalf("same-sum put of newer metadata: record holds %v, want %v", got, refreshed)
	}
	put(stale)
	if got := metaOf(s); got != refreshed {
		t.Fatalf("same-sum put of older metadata: record holds %v, want %v kept", got, refreshed)
	}

	// Closed and reopened in one process, the record takes back its
	// metadata; a record whose bytes changed meanwhile does not.
	index := s.close()
	s, err = openSegmentStore(dir, 1<<20, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	s.adoptMeta(index)
	if got := metaOf(s); got != refreshed {
		t.Fatalf("reopened record holds %v, want %v", got, refreshed)
	}
	s.adoptMeta(map[string]segEntry{"k": {sum: sha256.Sum256(obj(2, 2048)), meta: first}})
	if got := metaOf(s); got != refreshed {
		t.Fatalf("metadata of other bytes adopted: %v", got)
	}
}

// TestSegmentStoreCrashRecovery kills the store mid-append at every byte of
// the in-flight record. put writes header+key and payload as two sequential
// writes, so a crash can leave any prefix of the record — a partial header,
// header+key with no payload at all (the boundary between the two writes),
// or a partial payload. Each is a torn tail (a header promising more bytes
// than the file holds, or too short to be a header): the recovery scan must
// discard it, truncate the file back to the previous record boundary, keep
// every complete record, and leave the segment appendable.
func TestSegmentStoreCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := openSegmentStore(dir, 1<<20, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string][]byte)
	for i := 0; i < 8; i++ {
		key := fmt.Sprintf("prov|/ok/%d", i)
		want[key] = obj(i, 1024)
		storePut(t, s, key, want[key])
	}
	s.close()

	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segment files: %v", err)
	}
	last := segs[len(segs)-1]
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	intactSize := fi.Size()
	const tornKey = "prov|/torn"
	{
		s2, err := openSegmentStore(dir, 1<<20, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		storePut(t, s2, tornKey, obj(99, 300))
		s2.close()
	}
	raw, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	if want := intactSize + segHeaderSize + int64(len(tornKey)) + 300; int64(len(raw)) != want {
		t.Fatalf("torn-record setup failed: file is %d bytes, want %d", len(raw), want)
	}
	betweenWrites := intactSize + segHeaderSize + int64(len(tornKey))

	// Crash with the file cut at every offset inside the in-flight record.
	for cut := intactSize + 1; cut < int64(len(raw)); cut++ {
		if err := os.WriteFile(last, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s3, err := openSegmentStore(dir, 1<<20, 1<<20)
		if err != nil {
			t.Fatalf("cut at +%d: %v", cut-intactSize, err)
		}
		where := fmt.Sprintf("cut at +%d", cut-intactSize)
		if cut == betweenWrites {
			where += " (header+key written, payload not)"
		}
		if s3.contains(tornKey) {
			t.Fatalf("%s: torn tail entry survived recovery", where)
		}
		if fi, err := os.Stat(last); err != nil || fi.Size() != intactSize {
			t.Fatalf("%s: file is %d bytes after recovery (%v), want the previous record boundary %d",
				where, fi.Size(), err, intactSize)
		}
		for key, data := range want {
			if got := storeGet(t, s3, key); !bytes.Equal(got, data) {
				t.Fatalf("%s: recovered %s differs", where, key)
			}
		}
		// The file ends on a record boundary again, so appends work.
		storePut(t, s3, "prov|/after", obj(7, 512))
		if got := storeGet(t, s3, "prov|/after"); !bytes.Equal(got, obj(7, 512)) {
			t.Fatalf("%s: append after recovery failed", where)
		}
		s3.close()
	}
}

// TestSegmentStoreRecoveryGarbageTail: garbage (bad magic) after the last
// good record is also discarded.
func TestSegmentStoreRecoveryGarbageTail(t *testing.T) {
	dir := t.TempDir()
	s, err := openSegmentStore(dir, 1<<20, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	storePut(t, s, "k1", obj(1, 256))
	s.close()
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	f, err := os.OpenFile(segs[0], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(bytes.Repeat([]byte{0xAB}, 100))
	f.Close()

	s2, err := openSegmentStore(dir, 1<<20, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.close()
	if got := storeGet(t, s2, "k1"); !bytes.Equal(got, obj(1, 256)) {
		t.Fatal("good record lost to garbage tail")
	}
	storePut(t, s2, "k2", obj(2, 256))
	if got := storeGet(t, s2, "k2"); !bytes.Equal(got, obj(2, 256)) {
		t.Fatal("append after garbage-tail truncation failed")
	}
}

// TestSegmentStoreQuarantine flips a byte at rest: readVerify must refuse
// to return the bytes, quarantine the entry, and leave the next get a miss.
func TestSegmentStoreQuarantine(t *testing.T) {
	dir := t.TempDir()
	s, err := openSegmentStore(dir, 1<<20, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	storePut(t, s, "victim", obj(3, 4096))
	e, seg, ok := s.get("victim")
	if !ok {
		t.Fatal("victim missing")
	}
	// Flip one data byte directly in the segment file.
	var b [1]byte
	if _, err := seg.f.ReadAt(b[:], e.off+100); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xFF
	if _, err := seg.f.WriteAt(b[:], e.off+100); err != nil {
		t.Fatal(err)
	}
	if _, err := s.readVerify("victim", e, seg); !errors.Is(err, ErrCacheCorrupt) {
		t.Fatalf("readVerify on flipped bytes: err=%v, want ErrCacheCorrupt", err)
	}
	seg.release()
	if s.contains("victim") {
		t.Fatal("corrupt entry still indexed after quarantine")
	}
	if got := s.quarantined.Load(); got != 1 {
		t.Fatalf("quarantined = %d, want 1", got)
	}
}

// TestSegmentStoreScrub verifies the at-rest pass catches corruption the
// serve path hasn't touched yet.
func TestSegmentStoreScrub(t *testing.T) {
	dir := t.TempDir()
	s, err := openSegmentStore(dir, 1<<20, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	for i := 0; i < 5; i++ {
		storePut(t, s, fmt.Sprintf("k%d", i), obj(i, 1024))
	}
	checked, quarantined := s.scrub()
	if checked != 5 || quarantined != 0 {
		t.Fatalf("clean scrub: checked=%d quarantined=%d", checked, quarantined)
	}
	// Corrupt k2 at rest.
	e, seg, ok := s.get("k2")
	if !ok {
		t.Fatal("k2 missing")
	}
	if _, err := seg.f.WriteAt([]byte{0x00, 0x01, 0x02}, e.off+10); err != nil {
		t.Fatal(err)
	}
	seg.release()
	checked, quarantined = s.scrub()
	if checked != 5 || quarantined != 1 {
		t.Fatalf("dirty scrub: checked=%d quarantined=%d, want 5/1", checked, quarantined)
	}
	if s.contains("k2") {
		t.Fatal("scrub left the corrupt entry indexed")
	}
	for _, k := range []string{"k0", "k1", "k3", "k4"} {
		if !s.contains(k) {
			t.Fatalf("scrub dropped intact entry %s", k)
		}
	}
}

// TestSegmentStoreBudgetReclaim: pushing past the disk budget drops whole
// oldest segments (and their live keys), keeping the footprint bounded.
func TestSegmentStoreBudgetReclaim(t *testing.T) {
	s, err := openSegmentStore(t.TempDir(), 64<<10, 16<<10)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	for i := 0; i < 64; i++ {
		storePut(t, s, fmt.Sprintf("k%02d", i), obj(i, 4<<10))
	}
	_, total, _ := s.stats()
	// One in-flight segment may exceed the cap before its next reclaim, so
	// allow a segment of slack.
	if total > 64<<10+16<<10 {
		t.Fatalf("disk footprint %d exceeds budget+slack", total)
	}
	if s.contains("k00") {
		t.Fatal("oldest entry survived budget reclamation")
	}
	if !s.contains("k63") {
		t.Fatal("newest entry was reclaimed")
	}
	// On-disk files agree with accounting.
	var fsTotal int64
	segs, _ := filepath.Glob(filepath.Join(s.dir, "seg-*.seg"))
	for _, p := range segs {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		fsTotal += fi.Size()
	}
	if fsTotal != total {
		t.Fatalf("fs bytes %d != accounted bytes %d", fsTotal, total)
	}
}

// TestSegmentStoreReaderSurvivesReclaim: a reader holding a section of a
// segment keeps its fd alive across condemnation (unlink-while-open).
func TestSegmentStoreReaderSurvivesReclaim(t *testing.T) {
	s, err := openSegmentStore(t.TempDir(), 1<<20, 8<<10)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	data := obj(9, 4<<10)
	storePut(t, s, "pinned", data)
	// A second object forces rotation so "pinned"'s segment is sealed
	// (reclaim never touches the active segment).
	storePut(t, s, "rotator", obj(10, 4<<10))
	e, seg, ok := s.get("pinned")
	if !ok {
		t.Fatal("pinned missing")
	}
	// Force the segment out from under the reader.
	s.mu.Lock()
	for key := range seg.live {
		delete(s.index, key)
	}
	seg.live = make(map[string]struct{})
	s.reclaimLocked()
	s.mu.Unlock()
	if !seg.condemned.Load() {
		t.Fatal("segment not condemned")
	}
	got, err := io.ReadAll(sectionReader(e, seg))
	if err != nil {
		t.Fatalf("read after condemnation: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("bytes differ after condemnation")
	}
	seg.release() // last ref: closes the fd
	if _, _, ok := s.get("pinned"); ok {
		t.Fatal("condemned entry still reachable")
	}
}

// flipAtRest inverts the data byte at off of key's indexed entry.
func flipAtRest(t *testing.T, s *segmentStore, key string, off int64) {
	t.Helper()
	e, seg, ok := s.get(key)
	if !ok {
		t.Fatalf("flip %s: miss", key)
	}
	defer seg.release()
	var b [1]byte
	if _, err := seg.f.ReadAt(b[:], e.off+off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xFF
	if _, err := seg.f.WriteAt(b[:], e.off+off); err != nil {
		t.Fatal(err)
	}
}

// verifyWindowOf runs one streamed-serve verification of key's bytes
// [start, end) on a fresh get and reports the span vouched for and how many
// bytes were hashed to do it.
func verifyWindowOf(t *testing.T, s *segmentStore, key string, start, end int64) (lo, hi, hashed int64, err error) {
	t.Helper()
	e, seg, ok := s.get(key)
	if !ok {
		t.Fatalf("get %s: miss", key)
	}
	defer seg.release()
	before := s.hashed.Load()
	lo, hi, err = s.verifyWindow(key, e, seg, start, end)
	return lo, hi, s.hashed.Load() - before, err
}

func blocksOf(s *segmentStore, key string) [][sha256.Size]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.index[key].blocks
}

// TestSegmentStoreWindowedVerifyHashesTheWindow pins what a streamed serve
// hashes: the whole object on an entry's first verification (which earns
// the block sums), then only the blocks covering the window — at most two
// more than the window when it is not block-aligned — and the whole object
// again after a reopen, because the sums are kept nowhere but the index.
func TestSegmentStoreWindowedVerifyHashesTheWindow(t *testing.T) {
	const size, mib = 4 << 20, 1 << 20
	dir := t.TempDir()
	s, err := openSegmentStore(dir, 64<<20, 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	storePut(t, s, "big", obj(5, size))
	storePut(t, s, "small", obj(6, segBlockSize)) // one block: never keeps sums

	if blocksOf(s, "big") != nil {
		t.Fatal("put stored block sums; they are earned by a verified read, not written")
	}
	lo, hi, hashed, err := verifyWindowOf(t, s, "big", mib, 2*mib)
	if err != nil || lo != 0 || hi != size || hashed != size {
		t.Fatalf("first verify: span [%d,%d) hashed %d err %v; want the whole object", lo, hi, hashed, err)
	}
	if got := len(blocksOf(s, "big")); got != size/segBlockSize {
		t.Fatalf("earned %d block sums, want %d", got, size/segBlockSize)
	}
	for _, w := range []struct{ start, end, lo, hi int64 }{
		{mib, 2 * mib, mib, 2 * mib},                                   // a loader chunk: aligned
		{mib + 1, 2*mib + 1, mib, 2*mib + segBlockSize},                // one byte off: one block more
		{mib - 1, 2*mib + 1, mib - segBlockSize, 2*mib + segBlockSize}, // straddles both ends: two more
		{size - 10, size, size - segBlockSize, size},                   // the tail
		{0, size, 0, size},                                             // no Range
	} {
		lo, hi, hashed, err := verifyWindowOf(t, s, "big", w.start, w.end)
		if err != nil || lo != w.lo || hi != w.hi || hashed != w.hi-w.lo {
			t.Errorf("window [%d,%d): span [%d,%d) hashed %d err %v; want [%d,%d)",
				w.start, w.end, lo, hi, hashed, err, w.lo, w.hi)
		}
		if hashed > (w.end-w.start)+2*segBlockSize {
			t.Errorf("window [%d,%d) hashed %d bytes, more than the window and two blocks", w.start, w.end, hashed)
		}
	}
	if lo, hi, hashed, err := verifyWindowOf(t, s, "small", 10, 20); err != nil || lo != 0 || hi != segBlockSize || hashed != segBlockSize {
		t.Errorf("one-block entry: span [%d,%d) hashed %d err %v; want whole", lo, hi, hashed, err)
	}
	if blocksOf(s, "small") != nil {
		t.Error("a one-block entry was given block sums")
	}
	// The scrubber checks whole objects whatever sums they have earned.
	before := s.hashed.Load()
	if checked, q := s.scrub(); checked != 2 || q != 0 {
		t.Fatalf("scrub: checked=%d quarantined=%d", checked, q)
	}
	if got := s.hashed.Load() - before; got != size+segBlockSize {
		t.Errorf("scrub hashed %d bytes, want every byte at rest (%d)", got, size+segBlockSize)
	}
	s.close()

	s2, err := openSegmentStore(dir, 64<<20, 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.close()
	if blocksOf(s2, "big") != nil {
		t.Fatal("block sums survived a reopen; the record format has nowhere to keep them")
	}
	if _, _, hashed, err := verifyWindowOf(t, s2, "big", mib, 2*mib); err != nil || hashed != size {
		t.Fatalf("first verify after reopen hashed %d (err %v), want the whole object", hashed, err)
	}
	if _, _, hashed, err := verifyWindowOf(t, s2, "big", mib, 2*mib); err != nil || hashed != mib {
		t.Fatalf("second verify after reopen hashed %d (err %v), want the window", hashed, err)
	}
}

// TestSegmentStoreWindowedVerifyCatchesFlips: with the sums earned, a flip
// fails exactly the windows whose blocks cover it; without them, any window
// fails (the whole-object pass); and the scrubber needs no request at all.
func TestSegmentStoreWindowedVerifyCatchesFlips(t *testing.T) {
	const size = 300 << 10 // four whole blocks and a 44 KiB tail
	data := obj(8, size)
	s, err := openSegmentStore(t.TempDir(), 64<<20, 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	earn := func() {
		t.Helper()
		storePut(t, s, "k", data)
		if _, _, _, err := verifyWindowOf(t, s, "k", 0, 1); err != nil {
			t.Fatal(err)
		}
		if blocksOf(s, "k") == nil {
			t.Fatal("sums not earned")
		}
	}
	blocks := int64((size + segBlockSize - 1) / segBlockSize)
	for b := int64(0); b < blocks; b++ {
		earn()
		flipAt := b*segBlockSize + 7
		flipAtRest(t, s, "k", flipAt)
		for w := int64(0); w < blocks; w++ {
			if w == b {
				continue
			}
			start, end := w*segBlockSize, min((w+1)*segBlockSize, size)
			if _, _, _, err := verifyWindowOf(t, s, "k", start, end); err != nil {
				t.Fatalf("flip in block %d failed the window over block %d: %v", b, w, err)
			}
		}
		q := s.quarantined.Load()
		if _, _, _, err := verifyWindowOf(t, s, "k", flipAt, flipAt+1); !errors.Is(err, ErrCacheCorrupt) {
			t.Fatalf("flip in block %d: one-byte window over it: err=%v, want ErrCacheCorrupt", b, err)
		}
		if s.contains("k") || s.quarantined.Load() != q+1 {
			t.Fatalf("flip in block %d: entry not quarantined", b)
		}
	}

	// Before the sums are earned, the whole-object pass answers for every
	// window, so a flip anywhere fails a window nowhere near it.
	storePut(t, s, "k", data)
	flipAtRest(t, s, "k", size-1)
	if _, _, _, err := verifyWindowOf(t, s, "k", 0, 10); !errors.Is(err, ErrCacheCorrupt) {
		t.Fatalf("flip before first verify: err=%v, want ErrCacheCorrupt", err)
	}
	if blocksOf(s, "k") != nil || s.contains("k") {
		t.Fatal("a failed whole-object pass published sums or left the entry indexed")
	}

	// Earned, flipped, never requested: the scrubber finds it.
	earn()
	flipAtRest(t, s, "k", 3*segBlockSize)
	if checked, q := s.scrub(); checked != 1 || q != 1 || s.contains("k") {
		t.Fatalf("scrub after flip: checked=%d quarantined=%d indexed=%v", checked, q, s.contains("k"))
	}
}

// TestSegmentStoreQuarantineAfterSumsPublished is the identity trap: a
// reader that took its entry before another reader's first verification
// attached block sums to the indexed copy must still be able to quarantine
// it. Comparing entries by value would see "a different entry" and leave
// the corrupt one indexed.
func TestSegmentStoreQuarantineAfterSumsPublished(t *testing.T) {
	s, err := openSegmentStore(t.TempDir(), 64<<20, 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	storePut(t, s, "k", obj(2, 256<<10))
	stale, seg, ok := s.get("k") // no sums yet
	if !ok {
		t.Fatal("miss")
	}
	defer seg.release()
	if _, _, _, err := verifyWindowOf(t, s, "k", 0, 1); err != nil || blocksOf(s, "k") == nil {
		t.Fatalf("sums not published (err %v)", err)
	}
	flipAtRest(t, s, "k", 100)
	if _, _, err := s.verifyWindow("k", stale, seg, 0, 1); !errors.Is(err, ErrCacheCorrupt) {
		t.Fatalf("verify through the stale entry: err=%v, want ErrCacheCorrupt", err)
	}
	if s.contains("k") {
		t.Fatal("corrupt entry still indexed: quarantine did not recognise the record it read")
	}
	// A superseding record is a different entry and must survive a late
	// quarantine of the old one.
	storePut(t, s, "k", obj(3, 256<<10))
	s.quarantine("k", stale)
	if !s.contains("k") {
		t.Fatal("quarantining a superseded record dropped its successor")
	}
}

// TestSegmentStoreConcurrentFirstVerify: racing first serves of one entry
// each run the whole-object pass, and exactly one list is published — every
// later reader sees the same one.
func TestSegmentStoreConcurrentFirstVerify(t *testing.T) {
	const size = 1 << 20
	s, err := openSegmentStore(t.TempDir(), 64<<20, 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	storePut(t, s, "k", obj(4, size))
	const readers = 8
	start := make(chan struct{})
	firsts := make(chan *[sha256.Size]byte, readers)
	errs := make(chan error, readers)
	for i := 0; i < readers; i++ {
		go func(i int) {
			<-start
			e, seg, ok := s.get("k")
			if !ok {
				errs <- errors.New("miss")
				return
			}
			defer seg.release()
			off := int64(i) * segBlockSize
			if _, _, err := s.verifyWindow("k", e, seg, off, off+segBlockSize); err != nil {
				errs <- err
				return
			}
			errs <- nil
			firsts <- &blocksOf(s, "k")[0]
		}(i)
	}
	close(start)
	for i := 0; i < readers; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	published := &blocksOf(s, "k")[0]
	for i := 0; i < readers; i++ {
		if got := <-firsts; got != published {
			t.Fatal("two block-sum lists were published for one record")
		}
	}
	s.scrub()
	if &blocksOf(s, "k")[0] != published || len(blocksOf(s, "k")) != size/segBlockSize {
		t.Fatal("a later whole-object pass replaced the published list")
	}
}

// TestSegmentStoreWindowReaderFailsClosed drives the reader a streamed
// serve hands net/http outside the span it was given: it answers an error
// and no bytes, from either side of the window, and never lets one Read run
// past the window's end.
func TestSegmentStoreWindowReaderFailsClosed(t *testing.T) {
	const size = 256 << 10
	data := obj(11, size)
	s, err := openSegmentStore(t.TempDir(), 64<<20, 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	storePut(t, s, "k", data)
	e, seg, ok := s.get("k")
	if !ok {
		t.Fatal("miss")
	}
	defer seg.release()
	const lo, hi = segBlockSize, 3 * segBlockSize
	r := newWindowReader(e, seg, lo, hi)

	if n, err := r.Seek(0, io.SeekEnd); err != nil || n != size {
		t.Fatalf("Seek(end) = %d, %v; want the entry's size (ServeContent sizes by seeking)", n, err)
	}
	buf := make([]byte, 4096)
	if n, err := r.Read(buf); n != 0 || err != io.EOF {
		t.Fatalf("Read at the end = %d, %v; want EOF", n, err)
	}
	for _, off := range []int64{0, lo - 1, hi, size - 1} {
		r.Seek(off, io.SeekStart)
		if n, err := r.Read(buf); n != 0 || !errors.Is(err, errUnverifiedRead) {
			t.Errorf("Read at %d, outside [%d,%d) = %d bytes, err %v; want none and errUnverifiedRead", off, lo, hi, n, err)
		}
	}
	// A read that starts inside is cut at the window's end...
	r.Seek(hi-100, io.SeekStart)
	if n, err := r.Read(buf); n != 100 || err != nil || !bytes.Equal(buf[:n], data[hi-100:hi]) {
		t.Fatalf("Read straddling the end = %d bytes, err %v; want the 100 verified ones", n, err)
	}
	// ...and a copy of the whole window delivers exactly it, then fails.
	r.Seek(lo, io.SeekStart)
	got, err := io.ReadAll(r)
	if !errors.Is(err, errUnverifiedRead) || !bytes.Equal(got, data[lo:hi]) {
		t.Fatalf("ReadAll from the window's start = %d bytes, err %v; want %d and errUnverifiedRead", len(got), err, hi-lo)
	}
	// A window that reaches the end of the entry ends in EOF, not an error.
	tail := newWindowReader(e, seg, hi, size)
	tail.Seek(hi, io.SeekStart)
	if got, err := io.ReadAll(tail); err != nil || !bytes.Equal(got, data[hi:]) {
		t.Fatalf("ReadAll of a tail window = %d bytes, err %v", len(got), err)
	}
}

// TestSegmentStoreOpensParentFormat writes a segment file byte by byte in
// the record format this store has always had (hSG1 | keyLen u16 | dataLen
// u32 | SHA-256 | key | data — no block sums anywhere) and serves it
// windowed: per-block verification changed the index, not the disk.
func TestSegmentStoreOpensParentFormat(t *testing.T) {
	if segMagic != "hSG1" || segHeaderSize != 42 {
		t.Fatalf("record framing changed: magic %q, header %d bytes", segMagic, segHeaderSize)
	}
	const key = "prov|/legacy"
	data := obj(21, 200<<10)
	sum := sha256.Sum256(data)
	frame := func(key string) []byte {
		rec := []byte("hSG1")
		rec = binary.LittleEndian.AppendUint16(rec, uint16(len(key)))
		rec = binary.LittleEndian.AppendUint32(rec, uint32(len(data)))
		rec = append(rec, sum[:]...)
		rec = append(rec, key...)
		return append(rec, data...)
	}
	rec := frame(key)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "seg-00000000.seg"), rec, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := openSegmentStore(dir, 64<<20, 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	if got := storeGet(t, s, key); !bytes.Equal(got, data) {
		t.Fatal("hand-framed record did not read back")
	}
	if _, _, hashed, err := verifyWindowOf(t, s, key, 0, 100); err != nil || hashed != int64(len(data)) {
		t.Fatalf("first windowed verify: hashed %d, err %v", hashed, err)
	}
	if lo, hi, hashed, err := verifyWindowOf(t, s, key, 70000, 70100); err != nil || lo != segBlockSize || hi != 2*segBlockSize || hashed != segBlockSize {
		t.Fatalf("second windowed verify: span [%d,%d) hashed %d, err %v", lo, hi, hashed, err)
	}
	// And what this store appends is still that format, byte for byte.
	storePut(t, s, "prov|/new", data)
	s.close()
	raw, err := os.ReadFile(filepath.Join(dir, "seg-00000000.seg"))
	if err != nil {
		t.Fatal(err)
	}
	if want := append(rec, frame("prov|/new")...); !bytes.Equal(raw, want) {
		t.Fatalf("segment file is %d bytes and differs from two hand-framed records (%d bytes)", len(raw), len(want))
	}
}
