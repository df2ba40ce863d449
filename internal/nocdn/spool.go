package nocdn

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"hpop/internal/hpop"
)

// spoolFileName is the durable usage-record spool inside a peer's cache dir.
const spoolFileName = "records.spool"

// recordSpool persists a peer's unflushed usage records so a peer crash
// doesn't vaporize earned-but-unsettled credit. The format is one leaf per
// line, each the bytes the peer took at /record and will upload, appended
// as records arrive and compacted (tmp + rename) whenever the in-memory
// queue is rewritten — after a flush settles or sheds. Appends are
// buffered-write best-effort (no per-record fsync: this is a credit spool on
// a home appliance, not a ledger; the origin's WAL is the settlement
// authority). Loading counts only lines ended by '\n' and stops at the first
// line that is not a record, so it tolerates a torn final line exactly like
// the segment store tolerates a torn tail: a cut leaf may still parse, but
// it has no '\n'. A line in the older JSON shape loads as its leaf
// (legacyrecords.go), and the compaction at attach rewrites it as one.
type recordSpool struct {
	mu      sync.Mutex
	path    string
	f       *os.File
	bw      *bufio.Writer
	metrics *hpop.Metrics
}

// openRecordSpool opens (creating if needed) the spool in dir and loads any
// previously spooled leaves.
func openRecordSpool(dir string, m *hpop.Metrics) (*recordSpool, []string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	s := &recordSpool{path: filepath.Join(dir, spoolFileName), metrics: m}
	leaves := s.load()
	if err := s.openAppend(); err != nil {
		return nil, nil, err
	}
	return s, leaves, nil
}

// load reads every intact line; a line with no '\n' after it, or one that
// is not a record, ends the spool (a crash mid-append can only tear the
// last line).
func (s *recordSpool) load() []string {
	raw, _ := os.ReadFile(s.path)
	var leaves []string
	for len(raw) > 0 {
		line, rest, ended := bytes.Cut(raw, []byte{'\n'})
		leaf, _, err := parseRecordLine(line)
		if !ended || err != nil {
			s.metrics.Inc("nocdn.peer.spool_torn_tail")
			break
		}
		leaves = append(leaves, leaf)
		raw = rest
	}
	s.metrics.Add("nocdn.peer.spool_loaded", float64(len(leaves)))
	return leaves
}

// parseRecordLine reads one record as the door takes it and the spool holds
// it: a leaf, or a record in the older JSON shape (a line starting with
// '{'), which it converts to its leaf. It returns the leaf and the record
// parsed from it, whose strings share the leaf. A line or leaf holding
// '\n', the spool's separator, is refused.
func parseRecordLine(line []byte) (string, UsageRecord, error) {
	leaf := line
	if len(line) > 0 && line[0] == '{' {
		var err error
		if leaf, err = legacyLeaf(line); err != nil {
			return "", UsageRecord{}, fmt.Errorf("%w: %w", errLeaf, err)
		}
	}
	if bytes.IndexByte(line, '\n') >= 0 || bytes.IndexByte(leaf, '\n') >= 0 {
		return "", UsageRecord{}, fmt.Errorf("%w: holds a newline", errLeaf)
	}
	text := string(leaf)
	rec, err := parseLeaf(text)
	return text, rec, err
}

func (s *recordSpool) openAppend() error {
	f, err := os.OpenFile(s.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	s.f = f
	s.bw = bufio.NewWriterSize(f, 16<<10)
	return nil
}

// append spools one newly accepted leaf.
func (s *recordSpool) append(leaf string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.bw == nil {
		return
	}
	s.bw.WriteString(leaf)
	s.bw.WriteByte('\n')
	s.bw.Flush()
	s.metrics.Inc("nocdn.peer.spool_appends")
}

// rewrite compacts the spool to exactly the given queue (tmp + rename), so
// settled or shed records stop being replayed on the next boot.
func (s *recordSpool) rewrite(leaves []string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.bw == nil {
		return
	}
	var buf bytes.Buffer
	for _, leaf := range leaves {
		buf.WriteString(leaf)
		buf.WriteByte('\n')
	}
	tmp := s.path + ".tmp"
	if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
		return
	}
	s.bw.Flush()
	s.f.Close()
	if err := os.Rename(tmp, s.path); err != nil {
		os.Remove(tmp)
		s.openAppend()
		return
	}
	s.openAppend()
	s.metrics.Inc("nocdn.peer.spool_rewrites")
}

// close flushes and closes the spool handle (the file stays for next boot).
func (s *recordSpool) close() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.bw != nil {
		s.bw.Flush()
		s.f.Close()
		s.bw, s.f = nil, nil
	}
}

// AttachRecordSpool makes the peer's usage-record queue durable under dir
// (typically the same -cache-dir as the disk tier): previously spooled
// records are requeued — flowing to the origin through the normal Flush
// path, backoff gate included — and every accepted record is spooled until
// its batch settles. A requeued leaf is not checked against the current
// sign-ups: it waits for a Flush to its provider's origin.
func (p *Peer) AttachRecordSpool(dir string) error {
	spool, leaves, err := openRecordSpool(dir, p.metrics)
	if err != nil {
		return err
	}
	p.recordsMu.Lock()
	p.spool = spool
	if len(leaves) > 0 {
		p.records = append(leaves, p.records...)
		if over := len(p.records) - p.maxPendingLocked(); over > 0 {
			p.records = append([]string(nil), p.records[over:]...)
			p.droppedRecords.Add(int64(over))
		}
	}
	// Compact immediately (still under recordsMu, ordered with appends):
	// drops any torn tail and the over-cap shed.
	spool.rewrite(p.records)
	p.recordsMu.Unlock()
	return nil
}

// CloseRecordSpool persists the current queue and detaches the spool.
func (p *Peer) CloseRecordSpool() {
	p.recordsMu.Lock()
	spool := p.spool
	p.spool = nil
	spool.rewrite(p.records)
	spool.close()
	p.recordsMu.Unlock()
}
