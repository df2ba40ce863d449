package nocdn

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"hpop/internal/hpop"
)

// spoolFileName is the durable usage-record spool inside a peer's cache dir.
const spoolFileName = "records.spool"

// recordSpool persists a peer's unflushed usage records so a peer crash
// doesn't vaporize earned-but-unsettled credit. The format is one leaf per
// line, each the bytes the peer took at /record and will upload, appended
// as records arrive and compacted (tmp + rename) whenever a lane's queue
// is rewritten — after a flush settles or sheds. Appends are
// buffered-write best-effort (no per-record fsync: this is a credit spool on
// a home appliance, not a ledger; the origin's WAL is the settlement
// authority). A failed append or rewrite counts in nocdn.peer.spool_errors;
// appends then fail until a rewrite reopens the file, never gluing a line to
// a torn one. Loading drops an unterminated last line, the only thing a
// crash mid-append leaves, exactly like the segment store tolerates a torn
// tail: a cut leaf may still parse, but it has no '\n'. A complete line that
// is not a leaf — the JSON shape of older peers included — refuses the load
// with errStateFormat, before anything is queued or rewritten. The peer's
// recordsMu orders every call, so the spool takes no lock of its own.
type recordSpool struct {
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
	leaves, err := s.load()
	if err != nil {
		return nil, nil, err
	}
	if err := s.openAppend(); err != nil {
		return nil, nil, err
	}
	return s, leaves, nil
}

// load reads every line ended by '\n'; an unterminated last line is a torn
// tail (a crash mid-append can only tear the last line) and is dropped. A
// complete line that is not a leaf fails the load with errStateFormat, and
// a spool it cannot read fails it too: loading nothing would let the
// compaction at attach erase the file.
func (s *recordSpool) load() ([]string, error) {
	raw, err := os.ReadFile(s.path)
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	var leaves []string
	for n := 1; len(raw) > 0; n++ {
		line, rest, ended := bytes.Cut(raw, []byte{'\n'})
		if !ended {
			s.metrics.Inc("nocdn.peer.spool_torn_tail")
			break
		}
		leaf, _, err := parseRecordLine(line)
		if err != nil {
			return nil, fmt.Errorf("%s line %d: %w: %w; the previous release's peer rewrites an older "+
				"spool as leaves when it attaches it, and any other line needs repairing by hand",
				spoolFileName, n, errStateFormat, err)
		}
		leaves = append(leaves, leaf)
		raw = rest
	}
	s.metrics.Add("nocdn.peer.spool_loaded", float64(len(leaves)))
	return leaves, nil
}

// parseRecordLine reads one record as the door takes it and the spool holds
// it: a leaf. It returns the leaf and the record parsed from it, whose
// strings share the leaf. A line holding '\n', the spool's separator, is
// refused.
func parseRecordLine(line []byte) (string, UsageRecord, error) {
	if bytes.IndexByte(line, '\n') >= 0 {
		return "", UsageRecord{}, fmt.Errorf("%w: holds a newline", errLeaf)
	}
	text := string(line)
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
	if s == nil || s.bw == nil {
		return
	}
	s.bw.WriteString(leaf)
	s.bw.WriteByte('\n')
	if err := s.bw.Flush(); err != nil {
		s.metrics.Inc("nocdn.peer.spool_errors")
		return
	}
	s.metrics.Inc("nocdn.peer.spool_appends")
}

// rewrite compacts the spool to exactly the given queue (tmp + rename), so
// settled or shed records stop being replayed on the next boot.
func (s *recordSpool) rewrite(leaves []string) {
	if s == nil || s.bw == nil {
		return
	}
	var buf bytes.Buffer
	for _, leaf := range leaves {
		buf.WriteString(leaf)
		buf.WriteByte('\n')
	}
	tmp := s.path + ".tmp"
	if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
		s.metrics.Inc("nocdn.peer.spool_errors")
		return
	}
	s.bw.Flush()
	s.f.Close()
	err := os.Rename(tmp, s.path)
	if err != nil {
		os.Remove(tmp)
	}
	if err = errors.Join(err, s.openAppend()); err != nil {
		s.metrics.Inc("nocdn.peer.spool_errors")
		return
	}
	s.metrics.Inc("nocdn.peer.spool_rewrites")
}

// close flushes and closes the spool handle (the file stays for next boot).
func (s *recordSpool) close() {
	if s != nil && s.bw != nil {
		s.bw.Flush()
		s.f.Close()
		s.bw, s.f = nil, nil
	}
}
