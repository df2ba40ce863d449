package nocdn

import (
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"hpop/internal/sim"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/settlement_golden_v4.txt from this tree")

// goldenAt is the fixed clock of the golden settlement history.
var goldenAt = time.Unix(1_700_000_000, 0)

// goldenOrigin is an origin on the golden history's clock and a fixed
// origin secret.
func goldenOrigin() *Origin {
	o := NewOrigin("x", WithRNG(sim.NewRNG(7)), WithClock(func() time.Time { return goldenAt }))
	o.setKeySecret([]byte("the golden history's origin key."))
	return o
}

// goldenAttach attaches the golden history's journal options to o in dir.
func goldenAttach(o *Origin, dir string) (RecoveryStats, error) {
	return o.AttachWAL(dir, WALOptions{Fsync: FsyncAlways, SnapshotEvery: -1})
}

// goldenBoot opens a goldenOrigin, journal in dir, and publishes its one
// page. A journal that holds a secret already keeps it.
func goldenBoot(t *testing.T, dir string) (*Origin, RecoveryStats) {
	t.Helper()
	o := goldenOrigin()
	stats, err := goldenAttach(o, dir)
	if err != nil {
		t.Fatal(err)
	}
	o.AddObject("/c", make([]byte, 400))
	o.AddObject("/a", make([]byte, 300))
	if err := o.AddPage(Page{Name: "p", Container: "/c", Embedded: []string{"/a"}}); err != nil {
		t.Fatal(err)
	}
	return o, stats
}

// goldenCapture writes o's /debug/audit answer and each peer's /accounting
// answer to out, one "LABEL GET URL STATUS BODY" line each.
func goldenCapture(out *bytes.Buffer, o *Origin, label string, peers []string) {
	h := o.Handler()
	get := func(url string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		fmt.Fprintf(out, "%s GET %s %d %s", label, url, rec.Code, rec.Body.String())
	}
	get("/debug/audit")
	for _, id := range peers {
		get("/accounting?peer=" + id)
	}
}

// TestSettlementFormatsGolden runs one fixed settlement history and compares
// everything it leaves behind with a committed capture: every journal
// payload, and the /debug/audit and /accounting answers and the snapshot
// file of the live origin, of one recovered from the journal alone, and of
// one recovered from the live origin's snapshot. The comparison is byte for
// byte once each 64-hex-digit value is renamed by its order of first
// appearance, which keeps the origin secret out of the capture. Everything
// (clock, origin secret and so key IDs and secrets, nonces, trace IDs) is
// fixed.
//
// testdata/settlement_golden.txt is the capture of the writer before
// settlement verified every record, settlement_golden_v2.txt the one before
// the audit flag writer was deleted, and settlement_golden_v3.txt the one
// before keys derived from the origin secret. This release reads none of
// their journals, and TestParentSettlementGoldenReplays keeps each refusing.
// The v4 journal is the one this writer and its parent both write.
//
// Regenerate with: go test ./internal/nocdn -run TestSettlementFormatsGolden -update-golden
func TestSettlementFormatsGolden(t *testing.T) {
	got := settlementHistory(t)
	path := filepath.Join("testdata", "settlement_golden_v4.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(gl), len(wl)); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("line %d differs from %s:\n got: %s\nwant: %s", i+1, path, g, w)
		}
	}
}

// settlementHistory drives the fixed history and returns its normalized
// capture.
func settlementHistory(t *testing.T) []byte {
	t.Helper()
	dir := t.TempDir()
	var out bytes.Buffer
	snapshot := func(o *Origin, dir, label string) {
		if err := o.SnapshotNow(); err != nil {
			t.Fatal(err)
		}
		c := snapshotCandidates(dir)
		if len(c) == 0 {
			t.Fatal("no snapshot written")
		}
		state, err := readSnapshotFile(c[0].path)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "%s snap-%d %s\n", label, c[0].seq, state)
	}

	o, _ := goldenBoot(t, dir)
	var peers []string
	for i := 0; i < 5; i++ {
		id := fmt.Sprintf("peer-%02d", i)
		peers = append(peers, id)
		o.RegisterPeer(id, "http://"+id, 10)
	}
	// Pooled serves: each visitor's second serve is a pool hit that charges
	// the same map again. The first key issued for a peer signs its records.
	keys := make(map[string]PeerKey)
	for c := 0; c < 6; c++ {
		var w *Wrapper
		for range 2 {
			var err error
			if w, err = o.AssignWrapper("p", fmt.Sprintf("visitor-%d", c)); err != nil {
				t.Fatal(err)
			}
		}
		named := make([]string, 0, len(w.Keys))
		for id := range w.Keys {
			named = append(named, id)
		}
		slices.Sort(named)
		for _, id := range named {
			if _, ok := keys[id]; !ok {
				keys[id] = w.Keys[id]
			}
		}
	}
	var named []string
	for id := range keys {
		named = append(named, id)
	}
	slices.Sort(named)
	var idle []string
	for _, id := range peers {
		if !slices.Contains(named, id) {
			idle = append(idle, id)
		}
	}
	if len(named) < 3 || len(idle) < 2 {
		t.Fatalf("pooled maps name %v of %v, want at least three and two left out", named, peers)
	}
	a, b, c := named[0], named[1], named[2]

	seq := 0
	record := func(peer string, n int64, secret []byte) UsageRecord {
		seq++
		k := keys[peer]
		if secret == nil {
			var err error
			if secret, err = hex.DecodeString(k.Secret); err != nil {
				t.Fatal(err)
			}
		}
		r := UsageRecord{
			Provider: "x", PeerID: peer, KeyID: k.KeyID, Page: "p", Bytes: n, Objects: 1,
			Nonce: fmt.Sprintf("golden-%d", seq), IssuedAt: goldenAt,
			Traceparent: fmt.Sprintf("00-%032x-%016x-01", seq, seq),
		}
		r.Sign(secret)
		return r
	}
	settle := func(label string, batch RecordBatch) {
		n, err := o.SettleBatch(batch)
		fmt.Fprintf(&out, "settle %s: credited %d, err %v\n", label, n, err)
	}

	rA1 := record(a, 100, nil)
	settle("credited", NewRecordBatch(a, []UsageRecord{rA1, record(a, 50, nil)}))
	settle("one replayed record", NewRecordBatch(a, []UsageRecord{rA1, record(a, 70, nil)}))
	// A root mismatch and a batch from an unregistered uploader are refused
	// before any record is read: neither leaves a ledger row, an audit row
	// or a journal record.
	mismatch := NewRecordBatch(idle[0], []UsageRecord{record(idle[0], 100, nil)})
	mismatch.Root = strings.Repeat("ab", 32)
	settle("root mismatch", mismatch)
	settle("unregistered uploader", NewRecordBatch("stranger", mismatch.Records))
	// A bad signature costs its record only: c is rejected once, and
	// neither flagged nor suspended.
	settle("bad signature", NewRecordBatch(c, []UsageRecord{record(c, 100, []byte("not the key"))}))
	// Over-claim: enough whole-key records that credit passes 1.5 times
	// what b was assigned, so the anomaly verdict suspends it.
	kb, _ := parseKeyID(keys[b].KeyID)
	maxBytes := kb.MaxBytes
	var over []UsageRecord
	for credit := int64(0); 2*credit <= 3*o.AccountingFor(b).AssignedBytes; credit += maxBytes {
		over = append(over, record(b, maxBytes, nil))
	}
	settle("over-claim", NewRecordBatch(b, over))

	if _, err := scanWALDir(dir, 0, [32]byte{}, func(fr walFrame) error {
		fmt.Fprintf(&out, "journal %d %s %s\n", fr.seq, fr.typ, fr.payload)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// A copy of the journal before any snapshot: what replay alone restores.
	journalOnly := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err == nil {
			err = os.WriteFile(filepath.Join(journalOnly, e.Name()), data, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	goldenCapture(&out, o, "live", peers)
	snapshot(o, dir, "live")
	if err := o.wal.close(); err != nil {
		t.Fatal(err)
	}

	for _, r := range []struct{ label, dir string }{{"replayed", journalOnly}, {"restored", dir}} {
		o, stats := goldenBoot(t, r.dir)
		fmt.Fprintf(&out, "%s: snapshotSeq %d replayed %d\n", r.label, stats.SnapshotSeq, stats.RecordsReplayed)
		goldenCapture(&out, o, r.label, peers)
		snapshot(o, r.dir, r.label)
		if err := o.wal.close(); err != nil {
			t.Fatal(err)
		}
	}
	return normalizeHex(out.Bytes())
}

// TestParentSettlementGoldenReplays: each fixture's "journal N TYPE PAYLOAD"
// lines are appended as they stand into an empty journal, and an origin
// boots on it. The payloads keep their normalized "<hexN>" placeholders;
// replay reads them as opaque strings.
//
// State format window: this release reads what it and its parent write,
// settlement_golden_v4.txt. That journal replays to /debug/audit and
// /accounting answers that match the fixture's "replayed GET" lines byte
// for byte, and its replayed suspension still ejects: peer-02 is in no
// fresh map. The older writers' journals — settlement_golden.txt, written
// while settlement sampled leaves and flagged the uploader of a failed one,
// settlement_golden_v2.txt, while an audit flag could still be planted, and
// settlement_golden_v3.txt, while every key was a journaled row — refuse
// the boot with errStateFormat and leave the dir as it was. Each is refused
// at its first keys_issued record, seq 6, whose key rows have not expired
// at goldenAt; the first two also hold audit_flag records.
func TestParentSettlementGoldenReplays(t *testing.T) {
	for _, tc := range []struct {
		fixture   string
		refusedAt uint64 // 0: the journal replays
		ejected   []string
	}{
		{"settlement_golden.txt", 6, nil},
		{"settlement_golden_v2.txt", 6, nil},
		{"settlement_golden_v3.txt", 6, nil},
		{"settlement_golden_v4.txt", 0, []string{"peer-02"}},
	} {
		t.Run(tc.fixture, func(t *testing.T) {
			dir, want, ids := writeGoldenJournal(t, tc.fixture)
			if tc.refusedAt != 0 {
				before := dirFiles(t, dir)
				_, err := goldenAttach(goldenOrigin(), dir)
				assertRefused(t, err, dir, before)
				if at := fmt.Sprintf(" seq %d: ", tc.refusedAt); !strings.Contains(err.Error(), at) {
					t.Errorf("refusal %q is not at%s", err, at)
				}
				return
			}
			o, stats := goldenBoot(t, dir)
			t.Cleanup(func() { o.wal.close() })
			if stats.RecordsReplayed == 0 {
				t.Fatal("nothing replayed")
			}
			var got bytes.Buffer
			goldenCapture(&got, o, "replayed", ids)
			if got.String() != want {
				t.Fatalf("parent journal replays to\n%s\nwant\n%s", got.String(), want)
			}
			for c := 0; c < 32; c++ {
				w, err := o.AssignWrapper("p", fmt.Sprintf("fresh-%d", c))
				if err != nil {
					t.Fatal(err)
				}
				for _, id := range tc.ejected {
					if _, ok := w.Keys[id]; ok {
						t.Fatalf("replayed ejected %s is in a fresh map", id)
					}
				}
			}
		})
	}
}

// writeGoldenJournal appends one fixture's journal lines to an empty
// journal in a new dir, and returns the dir, the fixture's "replayed GET"
// lines and the peers they name. The fixture's record types are read by
// name; audit_flag, retired, is kind 5.
func writeGoldenJournal(t *testing.T, fixtureName string) (dir, want string, peers []string) {
	t.Helper()
	fixture, err := os.ReadFile(filepath.Join("testdata", fixtureName))
	if err != nil {
		t.Fatal(err)
	}
	types := map[string]walRecType{"audit_flag": 5}
	for typ := walPeerRegister; typ <= walKeySecret; typ++ {
		types[typ.String()] = typ
	}
	dir = t.TempDir()
	w, err := openControlWAL(dir, FsyncNever, nil)
	if err != nil {
		t.Fatal(err)
	}
	var replayed strings.Builder
	named := make(map[string]bool)
	for _, line := range strings.SplitAfter(string(fixture), "\n") {
		if rest, ok := strings.CutPrefix(line, "replayed GET "); ok {
			replayed.WriteString(line)
			if id, ok := strings.CutPrefix(rest, "/accounting?peer="); ok {
				named[id[:strings.IndexByte(id, ' ')]] = true
			}
			continue
		}
		fields := strings.SplitN(strings.TrimSuffix(line, "\n"), " ", 4)
		if len(fields) != 4 || fields[0] != "journal" {
			continue
		}
		typ, ok := types[fields[2]]
		if !ok {
			t.Fatalf("fixture journal line of unknown type %q", fields[2])
		}
		if seq, err := w.append(typ, []byte(fields[3])); err != nil || fmt.Sprint(seq) != fields[1] {
			t.Fatalf("appended %s as seq %d (%v), fixture says %s", fields[2], seq, err, fields[1])
		}
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	if len(named) == 0 {
		t.Fatal("the fixture has no replayed /accounting lines")
	}
	for id := range named {
		peers = append(peers, id)
	}
	slices.Sort(peers)
	return dir, replayed.String(), peers
}

var hex64 = regexp.MustCompile(`[0-9a-f]{64}`)

// normalizeHex renames every 64-hex-digit value by its order of first
// appearance, so a capture compares equal across runs that drew different
// random secrets.
func normalizeHex(b []byte) []byte {
	names := make(map[string]string)
	return hex64.ReplaceAllFunc(b, func(m []byte) []byte {
		n, ok := names[string(m)]
		if !ok {
			n = fmt.Sprintf("<hex%d>", len(names)+1)
			names[string(m)] = n
		}
		return []byte(n)
	})
}
