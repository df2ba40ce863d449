package nocdn

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"hpop/internal/auth"
	"hpop/internal/hpop"
	"hpop/internal/sim"
)

// FuzzRecordLine hardens the line parser that a peer's /record and its
// spool share: arbitrary bytes must never panic; nothing holding '\n' is
// accepted, and nothing starting with '{' (the JSON shape older loaders
// posted and older peers spooled); and an accepted leaf is byte for byte
// the LeafBytes of its parse and the input itself.
func FuzzRecordLine(f *testing.F) {
	traced := UsageRecord{Provider: "example.com", PeerID: "peer-a", KeyID: "peer-a-3", Page: "blog/<ü>",
		Bytes: 1 << 40, Objects: 7, Nonce: "n\"1", IssuedAt: time.Date(2026, 10, 17, 2, 42, 35, 5, time.UTC),
		Traceparent: "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"}
	traced.Sign([]byte("k"))
	f.Add(traced.LeafBytes())
	f.Add(traced.LeafBytes()[:len(traced.LeafBytes())-9])
	f.Add(append(traced.LeafBytes(), '\n'))
	legacy, _ := json.Marshal(traced)
	f.Add(legacy)
	f.Add([]byte(`{"provider":"p","peerId":"x","page":"a\nb","issuedAt":"2026-01-01T00:00:00Z"}`))
	f.Add([]byte("{\n}"))
	f.Add([]byte("v2|p|x|k|p|5|0|n|2026-01-01T00:00:00+01:00||ab"))
	if spool, err := os.ReadFile(filepath.Join("testdata", "parent_records.spool")); err == nil {
		for _, line := range bytes.Split(spool, []byte{'\n'}) {
			f.Add(line)
		}
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		leaf, rec, err := parseRecordLine(line)
		if err != nil {
			return
		}
		if bytes.IndexByte(line, '\n') >= 0 || strings.IndexByte(leaf, '\n') >= 0 {
			t.Fatalf("accepted %q as the leaf %q: a newline got through", line, leaf)
		}
		if line[0] == '{' {
			t.Fatalf("accepted the JSON-shaped line %q", line)
		}
		if got := string(rec.LeafBytes()); got != leaf {
			t.Fatalf("leaf %q re-encodes as %q", leaf, got)
		}
		if leaf != string(line) {
			t.Fatalf("leaf %q is not the line %q", leaf, line)
		}
	})
}

// The wire decoders (decodeWrapper, decodeBatch) are fuzzed against
// encoding/json (refDecodeWrapper, refDecodeBatch): a body the decoder
// accepts, json.Unmarshal accepts, and the two results are reflect.DeepEqual.
// The converse does not hold on purpose. json.Unmarshal takes a repeated key
// (the last one wins, and a repeated "keys" object merges into the first)
// and a key that matches a field only in another case ("PeerId" for
// "peerId"); the decoders refuse both, so a batch spelling "records" in
// another case answers 400 where encoding/json made it 415. No encoder here
// writes either.

// FuzzDecodeRecords hardens the usage-record batch parser (the body of POST
// /usage/batch): arbitrary bytes must never panic; a batch it accepts,
// refDecodeBatch accepts with equal records and leaves, and a legacy batch
// is legacy to both; every accepted leaf is byte for byte the LeafBytes of
// the record parsed from it; and a decoded batch re-encodes and decodes
// again to equal records.
func FuzzDecodeRecords(f *testing.F) {
	good, _ := EncodeBatch(NewRecordBatch("x", []UsageRecord{{Provider: "p", PeerID: "x", Bytes: 5}}))
	f.Add(good)
	f.Add([]byte("null"))
	f.Add([]byte(`{"records":[{}]}`))
	f.Add([]byte("not json at all"))
	f.Add([]byte(`{"peerId":"x","root":"00","records":[{"bytes": -1}]}`))
	traced := UsageRecord{Provider: "example.com", PeerID: "peer-a", KeyID: "peer-a-3", Page: "blog/<ü>",
		Bytes: 1 << 40, Objects: 7, Nonce: "n\"1", IssuedAt: time.Date(2026, 10, 17, 2, 42, 35, 5, time.UTC),
		Traceparent: "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"}
	traced.Sign([]byte("k"))
	twoLeaves, _ := EncodeBatch(NewRecordBatch("peer-a", []UsageRecord{traced, {Bytes: -1}}))
	f.Add(twoLeaves)
	f.Add([]byte(`{"peerId":"x","root":"00","leaves":["v2|p|x||p|+5|0||0001-01-01T00:00:00Z||"]}`))
	f.Add([]byte(`{"peerId":"x","root":"00","leaves":["v2|p|x|k|p|5|0|n|2026-01-01T00:00:00+01:00||ab"]}`))
	if legacy, err := os.ReadFile(filepath.Join("testdata", "legacy_batch.json")); err == nil {
		f.Add(legacy)
	}
	f.Add([]byte(`{"peerId":"x","root":"00","leaves":["v2|p|x|k|a\u0026b \u003cx\u003e|5|0|n|2026-01-01T00:00:00Z||ab"],"future":[1.5,{"a":null}]}`))
	f.Add([]byte(`{"leaves":null,"peerId":null}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		batch, leaves, err := decodeBatch(data)
		refBatch, refLeaves, refErr := refDecodeBatch(data)
		if errors.Is(err, errLegacyBatch) && !errors.Is(refErr, errLegacyBatch) {
			t.Fatalf("legacy here, %v to encoding/json", refErr)
		}
		if err != nil {
			return
		}
		if refErr != nil {
			t.Fatalf("accepted a batch encoding/json refuses: %v", refErr)
		}
		if !reflect.DeepEqual(batch, refBatch) || !reflect.DeepEqual(leaves, refLeaves) {
			t.Fatalf("decoded %+v %q, encoding/json %+v %q", batch, leaves, refBatch, refLeaves)
		}
		for i, r := range batch.Records {
			if got := r.LeafBytes(); !bytes.Equal(got, leaves[i]) {
				t.Fatalf("leaf %d %q re-encodes as %q", i, leaves[i], got)
			}
		}
		enc, err := EncodeBatch(batch)
		if err != nil {
			t.Fatalf("decoded batch failed to re-encode: %v", err)
		}
		again, err := DecodeBatch(enc)
		if err != nil {
			t.Fatalf("re-encoded batch does not decode: %v", err)
		}
		if again.PeerID != batch.PeerID || again.Root != batch.Root || !slices.Equal(again.Records, batch.Records) {
			t.Fatalf("round trip changed the batch: %+v, want %+v", again, batch)
		}
	})
}

// FuzzWrapperDecode hardens the loader's wrapper decoder: arbitrary bytes
// must never panic; a wrapper it accepts, refDecodeWrapper accepts with a
// DeepEqual result; and json.Marshal of any wrapper encoding/json decodes is
// accepted, decodes as encoding/json decodes it, and re-encodes to the same
// bytes.
func FuzzWrapperDecode(f *testing.F) {
	for _, w := range sampleWrappers() {
		b, err := json.Marshal(w)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"objects":null,"keys":null,"future":{"a":[1,-0.5e+3,true,"\ud800"]}}`))
	f.Add([]byte(`{"objects":[{"size":1.0}],"Page":"x","page":"y","page":"z"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		w, err := decodeWrapper(data)
		ref, refErr := refDecodeWrapper(data)
		if err == nil {
			if refErr != nil {
				t.Fatalf("accepted a wrapper encoding/json refuses: %v", refErr)
			}
			if !reflect.DeepEqual(w, ref) {
				t.Fatalf("decoded %+v, encoding/json %+v", w, ref)
			}
		}
		if refErr != nil {
			return
		}
		enc, err := json.Marshal(ref)
		if err != nil {
			return // a time json.Marshal cannot write
		}
		again, err := decodeWrapper(enc)
		if err != nil {
			t.Fatalf("a marshalled wrapper does not decode: %v\n%s", err, enc)
		}
		refAgain, _ := refDecodeWrapper(enc)
		if !reflect.DeepEqual(again, refAgain) {
			t.Fatalf("marshalled wrapper decoded %+v, encoding/json %+v", again, refAgain)
		}
		if re, _ := json.Marshal(again); !bytes.Equal(re, enc) {
			t.Fatalf("round trip changed the bytes:\n%s\n%s", enc, re)
		}
	})
}

// FuzzSettleLeaves drives POST /usage/batch with arbitrary leaves under an
// arbitrary uploader, the root either recomputed over the leaves or not.
// Nothing may panic; a 400 changes no settlement row; and a 200 moves only
// the uploader's row, with every leaf it submitted either credited or
// counted in its Rejected. A reference check bounds the credit: no more
// leaves, and no more bytes, are credited than the leaves that name the
// uploader, are signed under HMAC(HMAC(origin secret, key ID), prefix), and
// claim no more than the budget their key ID parses to, before its expiry.
// Seeds: an honest batch, one forged leaf among honest ones, a root
// mismatch, an unregistered uploader, the honest key ID with its budget,
// expiry or build raised and re-signed with the honest secret, and a key ID
// that does not parse.
func FuzzSettleLeaves(f *testing.F) {
	o := controlOrigin(f, 4)
	w, err := o.AssignWrapper("p", "fuzz")
	if err != nil {
		f.Fatal(err)
	}
	peer := anyPeer(w)
	leaves := func(records ...UsageRecord) string {
		out := make([]string, len(records))
		for i, r := range records {
			out[i] = string(r.LeafBytes())
		}
		return strings.Join(out, "\n")
	}
	honest := func(prefix string) []UsageRecord {
		out := make([]UsageRecord, 3)
		for i := range out {
			out[i] = signedRecord(f, w, peer, 10, fmt.Sprintf("%s-%d", prefix, i))
		}
		return out
	}
	forged := honest("forged")
	forged[1].Signature = strings.Repeat("0", len(forged[1].Signature))
	stranger := signedRecord(f, w, peer, 10, "stranger")
	stranger.PeerID = "stranger"
	f.Add(peer, leaves(honest("honest")...), true)
	f.Add(peer, leaves(forged...), true)
	f.Add(peer, leaves(honest("mismatch")...), false)
	f.Add("stranger", leaves(stranger), true)
	honestSecret, _ := hex.DecodeString(w.Keys[peer].Secret)
	for field := 1; field <= 3; field++ { // build, budget, expiry
		r := signedRecord(f, w, peer, 10, fmt.Sprintf("raised-%d", field))
		parts := strings.Split(r.KeyID, "-")
		n, _ := strconv.ParseInt(parts[len(parts)-field], 36, 64)
		parts[len(parts)-field] = strconv.FormatInt(n+1<<20, 36)
		r.KeyID = strings.Join(parts, "-")
		r.Sign(honestSecret)
		f.Add(peer, leaves(r), true)
	}
	unparsed := signedRecord(f, w, peer, 10, "unparsed")
	unparsed.KeyID = "not-a-key"
	unparsed.Sign(honestSecret)
	f.Add(peer, leaves(unparsed), true)
	// admitted is the reference check of one leaf from uploader.
	admitted := func(uploader string, leaf []byte) (int64, bool) {
		r, err := parseLeaf(string(leaf))
		if err != nil || r.Provider != o.Provider || r.PeerID != uploader {
			return 0, false
		}
		k, ok := parseKeyID(r.KeyID)
		mac := hmac.New(sha256.New, o.keySecret)
		mac.Write([]byte(r.KeyID))
		secret := mac.Sum(nil)
		prefix := leaf[:bytes.LastIndexByte(leaf, '|')]
		if !ok || k.PeerID != r.PeerID || auth.Verify(secret, prefix, r.Signature) != nil {
			return 0, false
		}
		return r.Bytes, r.Bytes >= 0 && r.Bytes <= k.MaxBytes && time.Now().UnixNano() <= k.Expires
	}
	h := o.Handler()
	f.Fuzz(func(t *testing.T, uploader, joined string, recommit bool) {
		var batch [][]byte
		if joined != "" {
			for _, l := range strings.Split(joined, "\n") {
				batch = append(batch, []byte(l))
			}
		}
		root := strings.Repeat("ab", 32)
		if recommit {
			root = MerkleRoot(batch)
		}
		body, err := encodeLeaves(uploader, root, batch)
		if err != nil {
			t.Fatal(err)
		}
		before := settlementRows(o)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/usage/batch", bytes.NewReader(body)))
		after := settlementRows(o)
		switch rec.Code {
		case http.StatusBadRequest:
			if !reflect.DeepEqual(before, after) {
				t.Fatalf("a 400 (%s) moved settlement rows:\n%+v\n->\n%+v", rec.Body, before, after)
			}
		case http.StatusOK:
			var ack struct{ Credited, Submitted int }
			if err := json.Unmarshal(rec.Body.Bytes(), &ack); err != nil || ack.Submitted != len(batch) {
				t.Fatalf("200 answer %q (%v) for %d leaves", rec.Body, err, len(batch))
			}
			if rejected := after[uploader].Rejected - before[uploader].Rejected; int64(ack.Credited)+rejected != int64(len(batch)) {
				t.Fatalf("%d leaves: %d credited, %d rejected", len(batch), ack.Credited, rejected)
			}
			var admits, admitBytes int64
			for _, leaf := range batch {
				if n, ok := admitted(uploader, leaf); ok {
					admits, admitBytes = admits+1, admitBytes+n
				}
			}
			if credit := after[uploader].Credited - before[uploader].Credited; int64(ack.Credited) > admits || credit > admitBytes {
				t.Fatalf("credited %d leaves, %d bytes; the reference admits %d leaves, %d bytes", ack.Credited, credit, admits, admitBytes)
			}
			delete(before, uploader)
			delete(after, uploader)
			if !reflect.DeepEqual(before, after) {
				t.Fatalf("a batch from %q moved other rows:\n%+v\n->\n%+v", uploader, before, after)
			}
		default:
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	})
}

// settlementRows copies every settlement row, money and evidence, by peer.
func settlementRows(o *Origin) map[string]peerRow {
	out := make(map[string]peerRow)
	for _, r := range o.ledger.rows() {
		out[r.ID] = peerRow{ledgerRow: r}
	}
	for _, pa := range o.ledger.evidence() {
		r := out[pa.PeerID]
		r.peerAudit = pa
		out[pa.PeerID] = r
	}
	return out
}

// FuzzGossipReport posts arbitrary bodies to the origin's /gossip. Nothing
// may panic, the health registry's snapshot never changes, no request
// reaches the probe client, and the nominations waiting for a probe pass
// never outnumber the registered peers, nor name one twice. Seeds: a true
// and a false report, a report in the older shape with latency and
// saturation, one about an unregistered ID, and bodies that do not decode.
func FuzzGossipReport(f *testing.F) {
	h := hpop.NewHealthRegistry(hpop.BreakerConfig{Cooldown: time.Hour})
	o := controlOrigin(f, 4, WithHealthRegistry(h))
	for range hpop.DefaultBreakerMinSamples {
		h.RecordFailure("peer-01")
	}
	probes := countProbes(o)
	f.Add([]byte(`{"from":"peer-00","observations":[{"peerId":"peer-01","healthy":false},{"peerId":"peer-02","healthy":true}]}`))
	f.Add([]byte(`{"from":"made-up","observations":[{"peerId":"peer-02","healthy":false}]}`))
	f.Add([]byte(`{"from":"peer-03","observations":[{"peerId":"peer-01","healthy":true,"latencySeconds":0.002,"saturation":0.4}]}`))
	f.Add([]byte(`{"from":"peer-00","observations":[{"peerId":"ghost","healthy":false},{"peerId":"","healthy":false}]}`))
	f.Add([]byte(`{"observations":null}`))
	f.Add([]byte("not json"))
	f.Add([]byte(""))
	before := h.Snapshot()
	handler := o.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/gossip", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK:
			var ack struct{ Nominated *int }
			if err := json.Unmarshal(rec.Body.Bytes(), &ack); err != nil || ack.Nominated == nil || *ack.Nominated < 0 {
				t.Fatalf("200 answer %q (%v)", rec.Body, err)
			}
		case http.StatusBadRequest:
		default:
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		if after := h.Snapshot(); !reflect.DeepEqual(before, after) {
			t.Fatalf("a gossip report moved the health registry:\n%+v\n->\n%+v", before, after)
		}
		if n := probes.total(); n != 0 {
			t.Fatalf("gossip sent %d probes", n)
		}
		got := nominations(o)
		distinct := slices.Clone(got)
		slices.Sort(distinct)
		if len(got) > o.registry.count() || len(slices.Compact(distinct)) != len(got) {
			t.Fatalf("nominations %v over %d registered peers", got, o.registry.count())
		}
	})
}

// FuzzTelemetryBatch hardens POST /telemetry/batch: no body panics it, and
// a batch it does not answer 200 changes nothing — /debug/fleet counts the
// same sources and reports, and the origin's registry holds the same metric
// names — so a peer that retries a refused batch is never counted twice.
func FuzzTelemetryBatch(f *testing.F) {
	o := controlOrigin(f, 0)
	m := hpop.NewMetrics()
	o.SetMetrics(m)
	handler := o.Handler()
	f.Add([]byte(`{"reports":[{"source":"good","seq":1,"counters":{"nocdn.peer.hits":1}},{"source":"","seq":0}]}`))
	f.Add([]byte(`{"reports":[{"source":"a","seq":2,"counters":{"nocdn.peer.shed":1}},null]}`))
	f.Add([]byte(`{"reports":[{"source":"b","seq":1,"histograms":{"nocdn.peer.serve_seconds":{"bounds":[0.1],"counts":[1,0],"sum":0.05}}}]}`))
	f.Add([]byte(`{"reports":[]}`))
	f.Add([]byte(`{"reports":[{"source":"c","seq":1}]} trailing`))
	f.Add([]byte("not json"))
	f.Add([]byte(""))
	state := func() string {
		snap := o.Fleet().Snapshot(1)
		return fmt.Sprint(snap.Sources, snap.Reports, m.Names())
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		before := state()
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/telemetry/batch", bytes.NewReader(body)))
		if rec.Code == http.StatusOK {
			return
		}
		if after := state(); after != before {
			t.Fatalf("a batch answered %d moved the fleet (sources, reports, names):\n%s\n->\n%s", rec.Code, before, after)
		}
	})
}

// FuzzParseRange hardens the Range-header parser used by the peer proxy.
func FuzzParseRange(f *testing.F) {
	f.Add("bytes=0-10", 100)
	f.Add("bytes=-5", 100)
	f.Add("bytes=9999999999999999999-", 100)
	f.Add("garbage", 0)
	f.Fuzz(func(t *testing.T, h string, size int) {
		if size < 0 {
			size = -size
		}
		start, end, ok := parseRange(h, size)
		if !ok {
			return
		}
		if start < 0 || end > size || start >= end {
			t.Fatalf("parseRange(%q,%d) accepted invalid range [%d,%d)", h, size, start, end)
		}
	})
}

// FuzzWALDecode hardens the journal frame decoder: arbitrary bytes with an
// arbitrary expected chain/sequence must never panic, and anything that
// decodes must round-trip through the encoder to identical bytes.
func FuzzWALDecode(f *testing.F) {
	var prev [32]byte
	payload := []byte(`{"assignEpoch":3}`)
	good := encodeWALFrame(walEpochTick, 1, payload, walChain(prev, walEpochTick, 1, payload))
	f.Add(good, []byte{}, uint64(1))
	f.Add(good[:len(good)-3], []byte{}, uint64(1)) // torn tail
	f.Add([]byte("hWL1garbage"), []byte{1}, uint64(0))
	f.Add([]byte{}, []byte{}, uint64(0))
	f.Fuzz(func(t *testing.T, data, chainSeed []byte, wantSeq uint64) {
		var chain [32]byte
		copy(chain[:], chainSeed)
		fr, n, err := decodeWALFrame(data, chain, wantSeq)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(data))
		}
		again := encodeWALFrame(fr.typ, fr.seq, fr.payload, walChain(chain, fr.typ, fr.seq, fr.payload))
		if string(again) != string(data[:n]) {
			t.Fatal("decoded frame does not re-encode to its own bytes")
		}
	})
}

// FuzzStateRecovery hardens recovery against the state dir it boots on:
// fuzzed snapshot state, sealed so that its bytes reach the decoder when
// they are JSON, and
// one journal frame of a fuzzed kind and payload, written through
// openControlWAL. AttachWAL must never panic, and whenever it refuses with
// errStateFormat or errWALUnrecoverable, every file in the dir keeps its
// name and bytes. Inputs past 4 KiB are skipped.
func FuzzStateRecovery(f *testing.F) {
	live, err := json.Marshal(controlOrigin(f, 3).captureState(0, [32]byte{}))
	if err != nil {
		f.Fatal(err)
	}
	future := time.Now().Add(time.Hour).UnixNano()
	register := []byte(`{"id":"peer-09","url":"http://peer-09","rtt":10,"assignEpoch":9}`)
	f.Add(live, byte(walPeerRegister), register)
	f.Add([]byte(fmt.Sprintf(`{"seq":0,"keys":[{"id":"peer-00-1","expiresUnixNano":%d}],"audit":{"peers":[]}}`, future)),
		byte(walPeerRegister), register)
	f.Add([]byte(`{"seq":1,"audit":{"peers":[{"peerId":"peer-00","records":1,"flagged":true}]}}`), byte(99), []byte(`{}`))
	f.Add([]byte(nil), byte(5), []byte(`{"id":"peer-00","cause":"audit_flag","assignEpoch":3}`))
	f.Add([]byte(nil), byte(99), []byte(`{"from":"a newer release"}`))
	f.Add([]byte(nil), byte(walKeysIssued), []byte(fmt.Sprintf(`{"keys":[{"expiresUnixNano":%d}],"assigned":{"peer-00":700}}`, future)))
	f.Add([]byte(nil), byte(walSettle), []byte(`{"peerId":"peer-00","credits":{"peer-00":100},"audit":[{"peerId":"peer-00","records":1}]}`))
	f.Fuzz(func(t *testing.T, state []byte, kind byte, payload []byte) {
		if len(state) > 4<<10 || len(payload) > 4<<10 {
			return
		}
		dir := t.TempDir()
		if len(state) > 0 && writeSnapshotFile(dir, 1, state) != nil {
			// Bytes that are not JSON cannot be sealed: the file holds them
			// as they are, a snapshot that fails its check.
			if err := os.WriteFile(filepath.Join(dir, snapFileName(1)), state, 0o600); err != nil {
				t.Fatal(err)
			}
		}
		writeParentJournal(t, dir, parentRecord{walRecType(kind), payload})
		before := dirFiles(t, dir)
		o := NewOrigin("x", WithRNG(sim.NewRNG(7)))
		_, err := o.AttachWAL(dir, WALOptions{Fsync: FsyncNever, SnapshotEvery: -1})
		switch {
		case err == nil:
			o.wal.close()
		case errors.Is(err, errStateFormat), errors.Is(err, errWALUnrecoverable):
			if after := dirFiles(t, dir); !maps.Equal(after, before) {
				t.Fatalf("refused with %v, and the dir changed", err)
			}
		}
	})
}

// FuzzSettleRecords throws arbitrary record fields at the settlement path:
// it must neither panic nor credit anything unsigned.
func FuzzSettleRecords(f *testing.F) {
	f.Add("prov", "peer", "key", "page", int64(100), "nonce", "sig")
	f.Fuzz(func(t *testing.T, provider, peer, key, page string, bytes int64, nonce, sig string) {
		o := NewOrigin("prov")
		o.RegisterPeer("peer", "http://p", 1)
		rec := UsageRecord{
			Provider: provider, PeerID: peer, KeyID: key, Page: page,
			Bytes: bytes, Nonce: nonce, Signature: sig,
		}
		if n := settlePerPeer(o, []UsageRecord{rec}); n != 0 {
			t.Fatalf("unsigned record credited: %+v", rec)
		}
	})
}

// FuzzBundleItems hardens the loader's split of a bundle answer, whose
// X-Nocdn-Bundle lengths and body both come from an untrusted peer: any
// input must not panic, and an accepted split must cover the body exactly —
// each served item the next sub-slice of body (capped, so appending to one
// cannot overwrite the next), their lengths summing to len(body), and each
// failed item nil.
func FuzzBundleItems(f *testing.F) {
	f.Add("3,-502,2", []byte("abcde"))
	f.Add("0,0", []byte{})
	f.Add("-503", []byte{})
	f.Add("5,", []byte("abcde"))
	f.Add("-99", []byte{})
	f.Add("99999999999999999999", []byte("x"))
	f.Add("", []byte("x"))
	f.Fuzz(func(t *testing.T, lengths string, body []byte) {
		items, err := BundleItems(lengths, body)
		if err != nil {
			return
		}
		ns, err := parseBundleLengths(lengths, len(items))
		if err != nil {
			t.Fatalf("BundleItems accepted lengths %q that do not parse: %v", lengths, err)
		}
		at := 0
		for i, it := range items {
			if ns[i] < 0 {
				if it != nil {
					t.Fatalf("failed item %d (%d) is %q, want nil", i, ns[i], it)
				}
				continue
			}
			if len(it) != ns[i] || cap(it) != len(it) {
				t.Fatalf("item %d: len %d cap %d, declared %d", i, len(it), cap(it), ns[i])
			}
			if len(it) > 0 && &it[0] != &body[at] {
				t.Fatalf("item %d does not start at body offset %d", i, at)
			}
			at += len(it)
		}
		if at != len(body) {
			t.Fatalf("items cover %d of %d body bytes", at, len(body))
		}
	})
}

// FuzzBundleURL: the peer reads back exactly the paths and hashes the
// loader's bundleURL wrote, whatever bytes they hold; bundleURL writes the
// URL it always wrote (url.QueryEscape with the slashes left as they are);
// and the peer's bundleQuery reads any raw query as url.ParseQuery reads it.
func FuzzBundleURL(f *testing.F) {
	f.Add("/obj/01", "ab12", "o=/a&h=1&o=/b&h=2")
	f.Add("/a b/c+d", "", "o=%2Fa+b&h=&x=1&o=/c")
	f.Add("/x%2Fy&z=1;w#frag", "=;&#%", "o=/a;h=1&o=/b&h=%zz&h=2")
	f.Add("/ünï/çødé/日本", "ff", "%6F=/k&%68=v&o&h&&=&o=%")
	f.Add("", "", "")
	f.Fuzz(func(t *testing.T, path, hash, raw string) {
		refs := []ObjectRef{{Path: path, Hash: hash}, {Path: "/second", Hash: hash + path}}
		items := []*bundleItem{{ref: &refs[0]}, {ref: &refs[1]}}
		u := bundleURL("http://peer.example", "prov", items)
		esc := func(v string) string { return strings.ReplaceAll(url.QueryEscape(v), "%2F", "/") }
		if want := "http://peer.example/proxy/prov?o=" + esc(refs[0].Path) + "&h=" + esc(refs[0].Hash) +
			"&o=" + esc(refs[1].Path) + "&h=" + esc(refs[1].Hash); u != want {
			t.Fatalf("bundleURL wrote %q, want %q", u, want)
		}
		parsed, err := url.Parse(u)
		if err != nil {
			t.Fatalf("bundleURL wrote %q, which does not parse: %v", u, err)
		}
		paths, hashes := bundleQuery(parsed.RawQuery)
		if !slices.Equal(paths, []string{refs[0].Path, refs[1].Path}) || !slices.Equal(hashes, []string{refs[0].Hash, refs[1].Hash}) {
			t.Fatalf("%q read back as paths %q, hashes %q", u, paths, hashes)
		}

		q, _ := url.ParseQuery(raw)
		paths, hashes = bundleQuery(raw)
		if len(paths) != len(q["o"]) || len(hashes) != len(q["h"]) ||
			(len(paths) > 0 && !slices.Equal(paths, q["o"])) || (len(hashes) > 0 && !slices.Equal(hashes, q["h"])) {
			t.Fatalf("raw query %q: paths %q, hashes %q; url.ParseQuery reads %q, %q", raw, paths, hashes, q["o"], q["h"])
		}
	})
}
