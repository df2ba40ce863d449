package nocdn

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// storePut spills data for key, computing the hash the way the peer does.
func storePut(t *testing.T, s *segmentStore, key string, data []byte) {
	t.Helper()
	if err := s.put(key, data, sha256.Sum256(data)); err != nil {
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
