package nocdn

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"hpop/internal/auth"
	"hpop/internal/sim"
)

// referenceCanonical is CanonicalBytes as it was first written, with
// strings.Join and fmt.Sprint: the definition the append version must match
// byte for byte, since every signature in flight covers these bytes.
func referenceCanonical(r UsageRecord) []byte {
	return []byte(strings.Join([]string{
		"v2",
		r.Provider,
		r.PeerID,
		r.KeyID,
		r.Page,
		fmt.Sprint(r.Bytes),
		fmt.Sprint(r.Objects),
		r.Nonce,
		r.IssuedAt.UTC().Format(time.RFC3339Nano),
		r.Traceparent,
	}, "|"))
}

// quickRecord generates usage records for testing/quick: unicode, empty
// and long fields, negative and extreme counts, zero and non-UTC times,
// with and without a traceparent.
type quickRecord UsageRecord

func (quickRecord) Generate(rnd *rand.Rand, size int) reflect.Value {
	str := func() string {
		switch rnd.Intn(5) {
		case 0:
			return ""
		case 1:
			return strings.Repeat("ü日x", 1+rnd.Intn(4096))
		case 2:
			return fmt.Sprintf("peer-%d", rnd.Intn(1000))
		default:
			b := make([]rune, rnd.Intn(size+1))
			for i := range b {
				b[i] = rune(0x20 + rnd.Intn(0x3000))
			}
			return string(b)
		}
	}
	n := func() int64 {
		switch rnd.Intn(4) {
		case 0:
			return -rnd.Int63()
		case 1:
			return [...]int64{0, -1, 1<<63 - 1, -1 << 63}[rnd.Intn(4)]
		default:
			return rnd.Int63n(1 << 30)
		}
	}
	var at time.Time
	switch rnd.Intn(3) {
	case 1:
		at = time.Unix(rnd.Int63n(1<<34), rnd.Int63n(1e9)).UTC()
	case 2:
		zone := time.FixedZone("test", (rnd.Intn(48)-24)*1800)
		at = time.Unix(rnd.Int63n(1<<34), rnd.Int63n(1e9)).In(zone)
	}
	r := quickRecord{
		Provider: str(), PeerID: str(), KeyID: str(), Page: str(),
		Bytes: n(), Objects: int(n()), Nonce: str(), IssuedAt: at,
		Signature: hex.EncodeToString([]byte(str())),
	}
	if rnd.Intn(2) == 0 {
		r.Traceparent = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	}
	return reflect.ValueOf(r)
}

// TestCanonicalBytesMatchesReference: the append-built canonical form and
// leaf are byte-identical to the reference, and a record whose fields hold
// no '|' comes back from its leaf exactly.
func TestCanonicalBytesMatchesReference(t *testing.T) {
	same := func(q quickRecord) bool {
		r := UsageRecord(q)
		ref := referenceCanonical(r)
		if !bytes.Equal(r.CanonicalBytes(), ref) {
			t.Logf("canonical %q\nreference %q", r.CanonicalBytes(), ref)
			return false
		}
		leaf := r.LeafBytes()
		if !bytes.Equal(leaf, append(append(ref, '|'), r.Signature...)) {
			return false
		}
		back, err := parseLeaf(string(leaf))
		if strings.Contains(r.Provider+r.PeerID+r.KeyID+r.Page+r.Nonce, "|") {
			return err != nil
		}
		if err != nil {
			t.Logf("parseLeaf(%q): %v", leaf, err)
			return false
		}
		want := r
		want.IssuedAt = r.IssuedAt.UTC()
		return back == want && bytes.Equal(back.LeafBytes(), leaf)
	}
	if err := quick.Check(same, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestCanonicalBytesOneAllocation: CanonicalBytes and LeafBytes build into
// one exactly-sized allocation, whatever the time zone.
func TestCanonicalBytesOneAllocation(t *testing.T) {
	for _, at := range []time.Time{{}, time.Date(2026, 10, 17, 2, 42, 35, 123456789, time.FixedZone("x", -7*3600))} {
		r := UsageRecord{
			Provider: "example.com", PeerID: "peer-0001", KeyID: "peer-0001-17", Page: "blog/post",
			Bytes: -1 << 63, Objects: 1<<63 - 1, Nonce: "0123456789abcdef0123456789abcdef", IssuedAt: at,
			Traceparent: "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		}
		r.Sign([]byte("secret"))
		for name, f := range map[string]func() []byte{"CanonicalBytes": r.CanonicalBytes, "LeafBytes": r.LeafBytes} {
			if n := testing.AllocsPerRun(100, func() { f() }); n != 1 {
				t.Errorf("%s at %v: %v allocations, want 1", name, at, n)
			}
		}
	}
}

// TestParseLeafRefusesNonCanonical: a leaf that is not exactly some
// record's LeafBytes does not parse.
func TestParseLeafRefusesNonCanonical(t *testing.T) {
	r := UsageRecord{Provider: "x", PeerID: "p", KeyID: "p-1", Page: "home", Bytes: 5, Objects: 1,
		Nonce: "n", IssuedAt: time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC), Signature: "ab"}
	good := string(r.LeafBytes())
	if _, err := parseLeaf(good); err != nil {
		t.Fatalf("parseLeaf(%q): %v", good, err)
	}
	for _, bad := range []string{
		strings.Replace(good, "v2|", "v1|", 1),
		strings.Replace(good, "|5|", "|+5|", 1),
		strings.Replace(good, "|5|", "|05|", 1),
		strings.Replace(good, "|1|n|", "|-0|n|", 1),
		strings.Replace(good, "|5|", "|99999999999999999999|", 1),
		strings.Replace(good, "03:04:05Z", "04:04:05+01:00", 1),
		strings.Replace(good, "03:04:05Z", "03:04:05.000Z", 1),
		strings.Replace(good, "|ab", "|a|b", 1),
		strings.TrimSuffix(good, "|ab"),
		"",
	} {
		if rec, err := parseLeaf(bad); err == nil {
			t.Errorf("parseLeaf(%q) accepted: %+v", bad, rec)
		}
	}
}

// TestSettleHandlerAllocBudget holds one 64-record batch through
// POST /usage/batch to an allocation budget, counted the way bench/ counts
// allocs_per_op: the whole process's Mallocs. Decoding each record as a JSON
// object and rebuilding its canonical form to hash it cost about 800
// allocations a batch; hashing the uploaded leaves and verifying 16 sampled
// signatures with auth.Verify, about 306. Verifying every signature under
// one reused HMAC state costs about 183. Under -race the batches still
// settle and the count is logged, but not judged.
func TestSettleHandlerAllocBudget(t *testing.T) {
	const budget = 201 // measured 183, plus 10%
	const batches, n = 20, 64
	o := controlOrigin(t, 4)
	w, err := o.AssignWrapper("p", "alloc-budget")
	if err != nil {
		t.Fatal(err)
	}
	var peer string
	for id := range w.Keys {
		peer = id
		break
	}
	reqs := make([]*http.Request, batches)
	recs := make([]*httptest.ResponseRecorder, batches)
	for b := range reqs {
		records := make([]UsageRecord, n)
		for i := range records {
			records[i] = signedRecord(t, w, peer, 1, fmt.Sprintf("alloc-%d-%d", b, i))
		}
		body, err := EncodeBatch(NewRecordBatch(peer, records))
		if err != nil {
			t.Fatal(err)
		}
		reqs[b] = httptest.NewRequest(http.MethodPost, "/usage/batch", bytes.NewReader(body))
		recs[b] = httptest.NewRecorder()
	}
	h := o.Handler()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for b := range reqs {
		h.ServeHTTP(recs[b], reqs[b])
	}
	runtime.ReadMemStats(&after)
	for b, rec := range recs {
		if want := fmt.Sprintf(`{"credited":%d,"submitted":%d}`, n, n); rec.Code != http.StatusOK || rec.Body.String() != want {
			t.Fatalf("batch %d: %d %s, want 200 %s", b, rec.Code, rec.Body, want)
		}
	}
	perBatch := float64(after.Mallocs-before.Mallocs) / batches
	t.Logf("%.0f allocations per %d-record batch (budget %d)", perBatch, n, budget)
	if perBatch > budget && !raceEnabled {
		t.Errorf("a %d-record batch allocates %.0f times, budget %d", n, perBatch, budget)
	}
}

// TestSettleVerifyAllocatesNothing: settlement checks a record's signature
// over its leaf with the HMAC state the batch's previous record left, so
// once that state is set up, a record under the same key verifies without
// allocating (auth.Verify allocates 8 times per record).
func TestSettleVerifyAllocatesNothing(t *testing.T) {
	o := controlOrigin(t, 4)
	w, err := o.AssignWrapper("p", "verify-allocs")
	if err != nil {
		t.Fatal(err)
	}
	peer := anyPeer(w)
	first, second := signedRecord(t, w, peer, 1, "first"), signedRecord(t, w, peer, 1, "second")
	firstLeaf, secondLeaf := first.LeafBytes(), second.LeafBytes()
	var v leafVerifier
	if err := o.checkRecord(&v, first, peer, firstLeaf); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := o.checkRecord(&v, second, peer, secondLeaf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 && !raceEnabled {
		t.Errorf("checking a second record under the same key allocates %v times, want 0", allocs)
	}
	// The reused state still tells a bad signature from a good one.
	forged := second
	forged.Signature = strings.Repeat("0", len(second.Signature))
	if err := o.checkRecord(&v, forged, peer, forged.LeafBytes()); !errors.Is(err, auth.ErrBadSignature) {
		t.Errorf("forged signature: %v, want ErrBadSignature", err)
	}
	if err := o.checkRecord(&v, second, peer, secondLeaf); err != nil {
		t.Errorf("after a forged record, the good one fails: %v", err)
	}
}

// TestLegacyBatchIs415: a body in the shape before leaves (testdata holds
// one written by that version's EncodeBatch, its records under key
// peer-00-1) answers 415, never 400, and leaves no trace: nothing
// journaled, credited, rejected or flagged. The 415 is decided before any
// key is looked up. Its records still hash to its root through today's
// LeafBytes, so the canonical form did not change.
func TestLegacyBatchIs415(t *testing.T) {
	body, err := os.ReadFile(filepath.Join("testdata", "legacy_batch.json"))
	if err != nil {
		t.Fatal(err)
	}
	var legacy struct {
		Root    string        `json:"root"`
		Records []UsageRecord `json:"records"`
	}
	if err := json.Unmarshal(body, &legacy); err != nil {
		t.Fatal(err)
	}
	if got := MerkleRoot(recordLeaves(legacy.Records)); got != legacy.Root {
		t.Fatalf("legacy records hash to %s, their root is %s", got, legacy.Root)
	}
	o := controlOrigin(t, 1)
	if _, err := o.AttachWAL(t.TempDir(), WALOptions{Fsync: FsyncNever, SnapshotEvery: -1}); err != nil {
		t.Fatal(err)
	}
	seq, _ := o.wal.position()
	rec := httptest.NewRecorder()
	o.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/usage/batch", bytes.NewReader(body)))
	if rec.Code != http.StatusUnsupportedMediaType {
		t.Fatalf("legacy body: %d %s, want 415", rec.Code, rec.Body)
	}
	if got, _ := o.wal.position(); got != seq {
		t.Errorf("journal moved from seq %d to %d", seq, got)
	}
	if acct := o.AccountingFor("peer-00"); acct.CreditedBytes != 0 || acct.Rejected != 0 || acct.Suspended {
		t.Errorf("accounting after a legacy body: %+v", acct)
	}
	for _, row := range o.Audit().Snapshot().Peers {
		if row.PeerID == "peer-00" && (row.Records != 0 || row.Flagged) {
			t.Errorf("audit row after a legacy body: %+v", row)
		}
	}
}

// TestFlushKeepsRecordsOn415: an origin that wants another batch shape
// decides nothing about a peer's records. The peer keeps its queue and its
// spool, and backs off.
func TestFlushKeepsRecordsOn415(t *testing.T) {
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, errLegacyBatch.Error(), http.StatusUnsupportedMediaType)
	}))
	t.Cleanup(origin.Close)
	dir := t.TempDir()
	p := NewPeer("peer-a", 0)
	p.SignUp("x", origin.URL)
	if err := p.AttachRecordSpool(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.CloseRecordSpool)
	srv := httptest.NewServer(p.Handler())
	t.Cleanup(srv.Close)
	for i := 0; i < 3; i++ {
		rec := UsageRecord{Provider: "x", PeerID: "peer-a", KeyID: "peer-a-1", Page: "p",
			Bytes: 100, Objects: 1, Nonce: fmt.Sprintf("n-%d", i), IssuedAt: time.Now(), Signature: "ab"}
		if code := postRecord(t, srv.URL, rec); code != http.StatusAccepted {
			t.Fatalf("record %d: %d", i, code)
		}
	}
	spooled, err := os.ReadFile(filepath.Join(dir, spoolFileName))
	if err != nil {
		t.Fatal(err)
	}
	n, err := p.Flush(origin.URL)
	if err == nil || n != 0 || !strings.Contains(err.Error(), "415") {
		t.Fatalf("flush to a 415 origin = %d, %v; want 0 and a 415", n, err)
	}
	if got := p.PendingRecords(); got != 3 {
		t.Errorf("records after 415 = %d, want 3", got)
	}
	if after, err := os.ReadFile(filepath.Join(dir, spoolFileName)); err != nil || !bytes.Equal(after, spooled) {
		t.Errorf("spool after 415 = %q (%v), want %q", after, err, spooled)
	}
	if _, err := p.Flush(origin.URL); !errors.Is(err, ErrFlushDeferred) {
		t.Errorf("flush right after a 415 = %v, want ErrFlushDeferred", err)
	}
}

// postRecord POSTs one usage record's leaf to a peer's /record.
func postRecord(t *testing.T, peerURL string, rec UsageRecord) int {
	t.Helper()
	resp, err := http.Post(peerURL+"/record", "text/plain", bytes.NewReader(rec.LeafBytes()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestSeparatorRefusedWhereItEnters: a page name or peer ID holding '|'
// or '\n' is refused by AddPage and RegisterPeer, and the peer's /record
// refuses, and never spools, a record that could never settle: one that
// would not travel as a leaf, one holding '\n' (the spool's separator), one
// naming another peer, or one for a provider the peer never signed up for.
func TestSeparatorRefusedWhereItEnters(t *testing.T) {
	o := controlOrigin(t, 1)
	for _, name := range []string{"a|b", "a\nb"} {
		if err := o.AddPage(Page{Name: name, Container: "/c"}); !errors.Is(err, ErrFieldSeparator) {
			t.Errorf("AddPage(%q) = %v, want ErrFieldSeparator", name, err)
		}
		if _, err := o.AssignWrapper(name, "c"); !errors.Is(err, ErrUnknownPage) {
			t.Errorf("a refused page %q serves a wrapper: %v", name, err)
		}
	}
	for _, id := range []string{"peer|x", "peer\nx"} {
		if err := o.RegisterPeer(id, "http://x", 1); !errors.Is(err, ErrFieldSeparator) {
			t.Errorf("RegisterPeer(%q) = %v, want ErrFieldSeparator", id, err)
		}
		for _, p := range o.Peers() {
			if p.ID == id {
				t.Errorf("a refused peer ID %q is registered", id)
			}
		}
	}

	dir := t.TempDir()
	p := NewPeer("peer-a", 0)
	p.SignUp("x", "http://origin.x")
	if err := p.AttachRecordSpool(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.CloseRecordSpool)
	srv := httptest.NewServer(p.Handler())
	t.Cleanup(srv.Close)
	good := UsageRecord{Provider: "x", PeerID: "peer-a", KeyID: "peer-a-1", Page: "p",
		Bytes: 100, Objects: 1, Nonce: "n", IssuedAt: time.Now(), Signature: "ab"}
	for name, mutate := range map[string]func(*UsageRecord){
		"page":                   func(r *UsageRecord) { r.Page = "a|b" },
		"peer":                   func(r *UsageRecord) { r.PeerID = "peer|a" },
		"provider":               func(r *UsageRecord) { r.Provider = "x|y" },
		"nonce":                  func(r *UsageRecord) { r.Nonce = "n|" },
		"signature":              func(r *UsageRecord) { r.Signature = "a|b" },
		"newline":                func(r *UsageRecord) { r.Page = "a\nb" },
		"other peer":             func(r *UsageRecord) { r.PeerID = "peer-b" },
		"provider not signed up": func(r *UsageRecord) { r.Provider = "y" },
	} {
		rec := good
		mutate(&rec)
		if code := postRecord(t, srv.URL, rec); code != http.StatusBadRequest {
			t.Errorf("%s: /record answered %d, want 400", name, code)
		}
	}
	if n := p.PendingRecords(); n != 0 {
		t.Errorf("%d refused records queued", n)
	}
	if spooled, err := os.ReadFile(filepath.Join(dir, spoolFileName)); err != nil || len(spooled) != 0 {
		t.Errorf("spool after refusals = %q (%v), want empty", spooled, err)
	}
	if code := postRecord(t, srv.URL, good); code != http.StatusAccepted {
		t.Errorf("a good record answered %d, want 202", code)
	}
}

// TestLargeRecordsDoNotWedgeSettlement: nine validly signed ~1 MiB records
// reach a peer through /record, and an honest page view's records queue
// behind them. Flush used to send the whole queue as one body past the
// origin's 8 MiB limit, get 413 and requeue it, every time — so the honest
// records were never credited, and the spool kept the wedge across
// restarts. It now uploads batches that each fit, and every record is
// credited.
func TestLargeRecordsDoNotWedgeSettlement(t *testing.T) {
	s := newTestSite(t, 1)
	p := s.peers[0]
	resp, err := http.Get(s.originSrv.URL + "/wrapper?page=home&client=big")
	if err != nil {
		t.Fatal(err)
	}
	var w Wrapper
	err = json.NewDecoder(resp.Body).Decode(&w)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	k := w.Keys[p.ID]
	secret, err := hex.DecodeString(k.Secret)
	if err != nil {
		t.Fatal(err)
	}
	page := strings.Repeat("x", 1_000_000) // a record body just under /record's 1 MiB
	const big = 9
	for i := 0; i < big; i++ {
		rec := UsageRecord{Provider: "example.com", PeerID: p.ID, KeyID: k.KeyID, Page: page,
			Bytes: 1, Objects: 1, Nonce: fmt.Sprintf("big-%d", i), IssuedAt: time.Now()}
		rec.Sign(secret)
		if code := postRecord(t, s.peerSrvs[0].URL, rec); code != http.StatusAccepted {
			t.Fatalf("big record %d: /record answered %d", i, code)
		}
	}
	res, err := s.loader.LoadPage("home")
	if err != nil {
		t.Fatal(err)
	}
	honest := res.PeerBytes[p.ID]
	if honest == 0 {
		t.Fatal("the page view credited the peer nothing to settle")
	}
	queued := p.PendingRecords()
	n, err := p.Flush(s.originSrv.URL)
	if err != nil || n != queued {
		t.Fatalf("flush = %d, %v; want all %d records settled", n, err, queued)
	}
	if got := p.PendingRecords(); got != 0 {
		t.Errorf("%d records still queued", got)
	}
	if got, want := s.origin.AccountingFor(p.ID).CreditedBytes, honest+big; got != want {
		t.Errorf("credited %d bytes, want %d (the view's %d and 1 per large record)", got, want, honest)
	}
}

// leafOrigin is an origin for provider with one page, "p", and peer-a
// registered, served over HTTP.
func leafOrigin(t *testing.T, provider string) (*Origin, *httptest.Server) {
	t.Helper()
	o := NewOrigin(provider, WithRNG(sim.NewRNG(7)))
	o.AddObject("/c", make([]byte, 400))
	if err := o.AddPage(Page{Name: "p", Container: "/c"}); err != nil {
		t.Fatal(err)
	}
	if err := o.RegisterPeer("peer-a", "http://peer-a", 10); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(o.Handler())
	t.Cleanup(srv.Close)
	return o, srv
}

// viewRecord is the record a loader signs for peer-a after one view of o's
// page p: bytes bytes under the key o's wrapper hands out.
func viewRecord(t *testing.T, o *Origin, bytes int64, nonce string) UsageRecord {
	t.Helper()
	w, err := o.AssignWrapper("p", "client")
	if err != nil {
		t.Fatal(err)
	}
	k, ok := w.Keys["peer-a"]
	if !ok {
		t.Fatalf("the wrapper names no key for peer-a: %v", w.Keys)
	}
	secret, err := hex.DecodeString(k.Secret)
	if err != nil {
		t.Fatal(err)
	}
	rec := UsageRecord{Provider: w.Provider, PeerID: "peer-a", KeyID: k.KeyID, Page: w.Page,
		Bytes: bytes, Objects: 1, Nonce: nonce, IssuedAt: time.Now()}
	rec.Sign(secret)
	return rec
}

// TestFlushSettlesEachProviderAtItsOrigin: a peer signed up with two
// providers holds one record for each. Flushing A's origin settles only A's
// record, so A rejects nothing; B's stays queued and spooled, across a
// restart, until B's origin is flushed and credits it.
func TestFlushSettlesEachProviderAtItsOrigin(t *testing.T) {
	oa, sa := leafOrigin(t, "a.example")
	ob, sb := leafOrigin(t, "b.example")
	signUp := func(p *Peer) {
		p.SignUp("a.example", sa.URL)
		p.SignUp("b.example", sb.URL+"/")
	}
	dir := t.TempDir()
	p := NewPeer("peer-a", 0)
	signUp(p)
	if err := p.AttachRecordSpool(dir); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(p.Handler())
	t.Cleanup(srv.Close)
	for _, rec := range []UsageRecord{viewRecord(t, ob, 200, "b-0"), viewRecord(t, oa, 100, "a-0")} {
		if code := postRecord(t, srv.URL, rec); code != http.StatusAccepted {
			t.Fatalf("%s record: /record answered %d", rec.Provider, code)
		}
	}
	if n, err := p.Flush(sa.URL + "/"); err != nil || n != 1 {
		t.Errorf("flush A = %d, %v; want 1, nil", n, err)
	}
	if acct := oa.AccountingFor("peer-a"); acct.CreditedBytes != 100 || acct.Rejected != 0 {
		t.Errorf("A after its flush: credited %d, rejected %d; want 100, 0", acct.CreditedBytes, acct.Rejected)
	}
	if got := p.PendingRecords(); got != 1 {
		t.Fatalf("%d records queued after flushing A, want B's 1", got)
	}
	p.CloseRecordSpool()

	p2 := NewPeer("peer-a", 0)
	signUp(p2)
	if err := p2.AttachRecordSpool(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p2.CloseRecordSpool)
	if got := p2.PendingRecords(); got != 1 {
		t.Fatalf("%d records requeued after the restart, want B's 1", got)
	}
	if n, err := p2.Flush(sb.URL); err != nil || n != 1 {
		t.Fatalf("flush B = %d, %v; want 1, nil", n, err)
	}
	if acct := ob.AccountingFor("peer-a"); acct.CreditedBytes != 200 || acct.Rejected != 0 {
		t.Errorf("B after its flush: credited %d, rejected %d; want 200, 0", acct.CreditedBytes, acct.Rejected)
	}
	if acct := oa.AccountingFor("peer-a"); acct.CreditedBytes != 100 || acct.Rejected != 0 {
		t.Errorf("A after B's flush: credited %d, rejected %d; want 100, 0", acct.CreditedBytes, acct.Rejected)
	}
}

// TestFlushToUnknownOriginSendsNothing: /flush names the URL a peer
// uploads to, so a URL no provider signed the peer up at must not drain it.
// Flush refuses it, GET /flush answers 400, no request is sent, and the
// queue, the spool bytes and the backoff gate are as they were.
func TestFlushToUnknownOriginSendsNothing(t *testing.T) {
	var requests atomic.Int32
	sink := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		w.WriteHeader(http.StatusOK)
	}))
	t.Cleanup(sink.Close)
	s := newTestSite(t, 1)
	if _, err := s.loader.LoadPage("home"); err != nil {
		t.Fatal(err)
	}
	p := s.peers[0]
	dir := t.TempDir()
	if err := p.AttachRecordSpool(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.CloseRecordSpool)
	pending := p.PendingRecords()
	if pending == 0 {
		t.Fatal("no records to flush")
	}
	spooled, err := os.ReadFile(filepath.Join(dir, spoolFileName))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := p.Flush(sink.URL); !errors.Is(err, ErrUnknownOrigin) || n != 0 {
		t.Errorf("Flush(sink) = %d, %v; want 0, ErrUnknownOrigin", n, err)
	}
	resp, err := http.Get(s.peerSrvs[0].URL + "/flush?origin=" + url.QueryEscape(sink.URL))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("GET /flush?origin=sink answered %d, want 400", resp.StatusCode)
	}
	if got := requests.Load(); got != 0 {
		t.Errorf("the sink saw %d requests, want 0", got)
	}
	if got := p.PendingRecords(); got != pending {
		t.Errorf("%d records queued, want %d", got, pending)
	}
	if after, err := os.ReadFile(filepath.Join(dir, spoolFileName)); err != nil || !bytes.Equal(after, spooled) {
		t.Errorf("spool = %q (%v), want %q", after, err, spooled)
	}
	if n, err := p.Flush(s.originSrv.URL); err != nil || n != pending {
		t.Errorf("flush to the signed-up origin = %d, %v; want %d, nil", n, err, pending)
	}
}

// TestFlushGateIsPerOrigin: a peer signed up for provider a at an origin
// that answers 503, and for provider b at a live one, holds one record for
// each. The failed flush to a's origin closes that origin's backoff gate
// only: b's flush still uploads its record, and a's stays queued behind its
// own gate.
func TestFlushGateIsPerOrigin(t *testing.T) {
	var deadRequests atomic.Int32
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		deadRequests.Add(1)
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	t.Cleanup(dead.Close)
	oa, _ := leafOrigin(t, "a.example")
	ob, sb := leafOrigin(t, "b.example")
	p := NewPeer("peer-a", 0)
	p.SignUp("a.example", dead.URL)
	p.SignUp("b.example", sb.URL)
	srv := httptest.NewServer(p.Handler())
	t.Cleanup(srv.Close)
	for _, rec := range []UsageRecord{viewRecord(t, oa, 100, "a-0"), viewRecord(t, ob, 200, "b-0")} {
		if code := postRecord(t, srv.URL, rec); code != http.StatusAccepted {
			t.Fatalf("%s record: /record answered %d", rec.Provider, code)
		}
	}
	if n, err := p.Flush(dead.URL); err == nil || errors.Is(err, ErrFlushDeferred) || n != 0 {
		t.Fatalf("flush a = %d, %v; want 0 and the upload's failure", n, err)
	}
	if n, err := p.Flush(sb.URL + "/"); err != nil || n != 1 {
		t.Fatalf("flush b after a failed = %d, %v; want 1, nil", n, err)
	}
	if acct := ob.AccountingFor("peer-a"); acct.CreditedBytes != 200 {
		t.Errorf("b credited %d bytes, want 200", acct.CreditedBytes)
	}
	if n, err := p.Flush(dead.URL + "/"); !errors.Is(err, ErrFlushDeferred) || n != 0 {
		t.Errorf("flush a again = %d, %v; want 0, ErrFlushDeferred", n, err)
	}
	if got := deadRequests.Load(); got != 1 {
		t.Errorf("a's origin saw %d uploads, want 1", got)
	}
	if got := p.PendingRecords(); got != 1 {
		t.Errorf("%d records queued, want a's 1", got)
	}
}

// TestParentLoaderRecordSettles: a loader from before records traveled as
// leaves posts the record as JSON. The peer answers 400 as it does to any
// body that is not a leaf, and queues and spools nothing.
func TestParentLoaderRecordSettles(t *testing.T) {
	s := newTestSite(t, 1)
	p := s.peers[0]
	dir := t.TempDir()
	if err := p.AttachRecordSpool(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.CloseRecordSpool)
	w, err := s.origin.AssignWrapper("home", "parent-loader")
	if err != nil {
		t.Fatal(err)
	}
	k := w.Keys[p.ID]
	secret, err := hex.DecodeString(k.Secret)
	if err != nil {
		t.Fatal(err)
	}
	rec := UsageRecord{Provider: w.Provider, PeerID: p.ID, KeyID: k.KeyID, Page: w.Page,
		Bytes: 1000, Objects: 1, Nonce: auth.NewNonce(), IssuedAt: time.Now()}
	rec.Sign(secret)
	body, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(s.peerSrvs[0].URL+"/record", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("a parent loader's record answered %d, want 400", resp.StatusCode)
	}
	if n := p.PendingRecords(); n != 0 {
		t.Errorf("queued %d records, want 0", n)
	}
	if spooled := dirFiles(t, dir)[spoolFileName]; spooled != "" {
		t.Errorf("spooled %q, want nothing", spooled)
	}
}
