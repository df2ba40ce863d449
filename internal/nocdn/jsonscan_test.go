package nocdn

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"hpop/internal/hpop"
)

// refDecodeWrapper is the wrapper decode by encoding/json's reflection: the
// reference decodeWrapper is checked against.
func refDecodeWrapper(data []byte) (*Wrapper, error) {
	var w Wrapper
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, err
	}
	return &w, nil
}

// refDecodeBatch is the batch decode by encoding/json's reflection: the
// reference decodeBatch is checked against.
func refDecodeBatch(data []byte) (RecordBatch, [][]byte, error) {
	var w struct {
		batchWire
		Records json.RawMessage `json:"records,omitempty"`
	}
	if err := json.Unmarshal(data, &w); err != nil {
		return RecordBatch{}, nil, fmt.Errorf("nocdn: decode batch: %w", err)
	}
	if w.Records != nil {
		return RecordBatch{}, nil, errLegacyBatch
	}
	b := RecordBatch{PeerID: w.PeerID, Root: w.Root, Records: make([]UsageRecord, len(w.Leaves))}
	leaves := make([][]byte, len(w.Leaves))
	for i, l := range w.Leaves {
		r, err := parseLeaf(l)
		if err != nil {
			return RecordBatch{}, nil, fmt.Errorf("nocdn: decode batch: leaf %d: %w", i, err)
		}
		b.Records[i] = r
		leaves[i] = []byte(l)
	}
	return b, leaves, nil
}

// sampleWrappers are wrappers as the origin builds them, and the shapes at
// the edges of the wire: chunks, replicas, null and empty slices and maps,
// escapes json.Marshal writes, and runes outside the BMP.
func sampleWrappers() []Wrapper {
	issued := time.Date(2026, 10, 19, 4, 55, 56, 123456789, time.UTC)
	obj := func(path string, size int) ObjectRef {
		return ObjectRef{Path: path, Hash: strings.Repeat("ab", 32), Size: size, PeerID: "peer-a", PeerURL: "http://127.0.0.1:8101"}
	}
	chunked := obj("/big.bin", 3<<20)
	chunked.PeerID, chunked.PeerURL = "", ""
	chunked.Chunks = []ChunkRef{
		{PeerID: "peer-a", PeerURL: "http://a", Offset: 0, Length: 1 << 20},
		{PeerID: "peer-b", PeerURL: "http://b", Offset: 1 << 20, Length: 2 << 20},
	}
	replicated := obj("/style.css", 40000)
	replicated.Replicas = []PeerRef{{PeerID: "peer-b", PeerURL: "http://b"}, {PeerID: "peer-c", PeerURL: "http://c"}}
	keys := map[string]PeerKey{
		"peer-a": {KeyID: "peer-a-tn1uy1-h-1", Secret: strings.Repeat("0f", 32)},
		"peer-b": {KeyID: "peer-b-tn1uy1-h-1", Secret: strings.Repeat("f0", 32)},
	}
	return []Wrapper{
		{Provider: "example.com", Page: "index", Container: obj("/index.html", 17),
			Objects: []ObjectRef{replicated, chunked, obj("/app.js", 0)}, Keys: keys,
			Nonce: "6e6f6e6365", IssuedAt: issued, Loader: "v1"},
		{Provider: "example.com", Page: "a&b <x>", Container: obj("/a&b <x>/50%off+1.html", 3),
			Objects: []ObjectRef{}, Keys: map[string]PeerKey{}, IssuedAt: issued.In(time.FixedZone("", 3600))},
		{Page: "blog/\u2028\"ü\"\\\t😀\U0010FFFF", Nonce: "\x00\x1f\x7f", Keys: keys},
		{Provider: "p", Objects: []ObjectRef{{Replicas: []PeerRef{}, Chunks: []ChunkRef{}, Size: -1}}},
		{},
	}
}

// TestDecodeWrapperMatchesEncodingJSON decodes json.Marshal of each sample
// wrapper, and bodies at the edges of the grammar, with both decoders: an
// accepted body must decode as encoding/json decodes it, and each body
// listed as refused must be refused.
func TestDecodeWrapperMatchesEncodingJSON(t *testing.T) {
	var bodies []string
	for _, w := range sampleWrappers() {
		b, err := json.Marshal(w)
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, string(b))
	}
	bodies = append(bodies,
		`null`, ` {} `, `{"objects":null,"keys":null,"container":null}`,
		`{"objects":[null,{}],"keys":{"a":null,"a":{"keyId":"x"}}}`,
		`{"page":"\ud83d\ude00\ud800\u0041\udc00x\u00e9\/","provider":null,"nonce":"\u0000"}`,
		"{\"page\":\"\xff\xfe ok \xc3\"}",
		`{"future":{"a":[1,-0.5e+3,true,false,null,"\""]},"objects":[{"size":-0,"extra":[]}]}`,
		`{"issuedAt":null}`, `{"issuedAt":"2026-10-19T04:55:56.5+01:00"}`,
		`{"objects":[{"size":9223372036854775807,"chunks":[{"offset":-9223372036854775808}]}]}`,
	)
	for _, body := range bodies {
		got, err := decodeWrapper([]byte(body))
		want, werr := refDecodeWrapper([]byte(body))
		if err != nil || werr != nil {
			t.Errorf("%s: decodeWrapper %v, encoding/json %v", body, err, werr)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\n got %+v\nwant %+v", body, got, want)
		}
	}
	for _, body := range []string{
		``, `{`, `{}x`, `{} {}`, `[]`, `"x"`, `{"page":1}`, `{"objects":{}}`, `{"keys":[]}`,
		`{"objects":[{"size":1.0}]}`, `{"objects":[{"size":1e2}]}`, `{"objects":[{"size":"1"}]}`,
		`{"objects":[{"size":9223372036854775808}]}`, `{"objects":[{"size":01}]}`, `{"objects":[{"size":-}]}`,
		`{"page":"a\x"}`, `{"page":"\u12"}`, "{\"page\":\"a\nb\"}", `{"page":"x}`, `{"x":tru}`, `{"x":nul}`,
		`{"x":[1,]}`, `{"x":{"a":1,}}`, `{"x":+1}`, `{"x":.5}`, `{"x":1.}`, `{"x":1e}`, `{'x':1}`,
		`{"issuedAt":"2026-10-19"}`, `{"issuedAt":5}`, `{"page":"a","page":"b"}`, `{"Page":"a"}`,
		`{"objects":[{"PATH":"/x"}]}`, `{"keys":{"p":{"keyId":"a","keyId":"b"}}}`,
		"\xef\xbb\xbf{}", `{"x":` + strings.Repeat("[", maxJSONDepth) + strings.Repeat("]", maxJSONDepth) + `}`,
	} {
		if got, err := decodeWrapper([]byte(body)); err == nil {
			t.Errorf("%q decoded as %+v, want an error", body, got)
		}
	}
}

// TestDecodeWrapperShares checks what the decode allocates and what it
// shares: the wrapper's strings are substrings of one copy of the body, and
// a wrapper of many objects costs a handful of allocations, not a few per
// object.
func TestDecodeWrapperShares(t *testing.T) {
	w := sampleWrappers()[0]
	for i := 0; i < 22; i++ {
		w.Objects = append(w.Objects, ObjectRef{Path: fmt.Sprintf("/o/%02d", i), Hash: strings.Repeat("cd", 32), Size: 8192, PeerID: "peer-b", PeerURL: "http://b"})
	}
	body, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeWrapper(body)
	if err != nil {
		t.Fatal(err)
	}
	first := unsafe.StringData(got.Provider)
	for _, s := range []string{got.Page, got.Objects[0].Path, got.Objects[24].Hash, got.Keys["peer-b"].Secret} {
		if off := uintptr(unsafe.Pointer(unsafe.StringData(s))) - uintptr(unsafe.Pointer(first)); off >= uintptr(len(body)) {
			t.Errorf("%q is not a substring of the body's one copy", s)
		}
	}
	// The body's copy, the Wrapper, Objects, the keys map (two allocations
	// with Go 1.24's maps), one object's chunks and another's replicas: 7.
	if n := testing.AllocsPerRun(20, func() { decodeWrapper(body) }); n > 8 {
		t.Errorf("decodeWrapper of %d objects made %.0f allocations, want at most 8", len(w.Objects), n)
	}
}

// TestDecodeBatchSharesBody checks that an upload's leaves are subslices
// of its body, its records' strings substrings of the body's one copy, and
// that a leaf with an escape is unquoted as encoding/json unquotes it.
func TestDecodeBatchSharesBody(t *testing.T) {
	recs := make([]UsageRecord, 64)
	for i := range recs {
		recs[i] = UsageRecord{Provider: "example.com", PeerID: "peer-a", KeyID: "peer-a-1", Page: "index",
			Bytes: int64(1000 + i), Objects: 25, Nonce: fmt.Sprintf("n%02d", i), IssuedAt: time.Unix(1_700_000_000, 0).UTC()}
		recs[i].Sign([]byte("k"))
	}
	recs[3].Page = "a&b <x>"
	body, err := EncodeBatch(NewRecordBatch("peer-a", recs))
	if err != nil {
		t.Fatal(err)
	}
	b, leaves, err := decodeBatch(body)
	if err != nil {
		t.Fatal(err)
	}
	want, wantLeaves, err := refDecodeBatch(body)
	if err != nil || !reflect.DeepEqual(b, want) || !reflect.DeepEqual(leaves, wantLeaves) {
		t.Fatalf("decodeBatch differs from encoding/json (%v)", err)
	}
	within := func(p *byte) bool {
		return uintptr(unsafe.Pointer(p))-uintptr(unsafe.Pointer(&body[0])) < uintptr(len(body))
	}
	for i, l := range leaves {
		if within(&l[0]) != (i != 3) {
			t.Errorf("leaf %d shares the body: %v, want %v", i, within(&l[0]), i != 3)
		}
	}
	if _, _, err := decodeBatch(append(body[:len(body):len(body)], `{}`...)); err == nil {
		t.Error("trailing data after the batch was accepted")
	}
	if _, _, err := decodeBatch([]byte(`{"leaves":["not a leaf"],"records":null}`)); !errors.Is(err, errLegacyBatch) {
		t.Errorf("a body with records: %v, want errLegacyBatch", err)
	}
	// The body's copy, the uploader's, Records, the leaves' slice, and the
	// one unquoted leaf's string and bytes.
	if n := testing.AllocsPerRun(20, func() { decodeBatch(body) }); n > 6 {
		t.Errorf("decodeBatch of %d leaves made %.0f allocations, want at most 6", len(recs), n)
	}
}

// TestDecodeBatchBoundedBySize checks that what an upload costs to decode
// is a small multiple of its size, whatever its leaves array holds: leaves
// that are not strings, strings that are not leaves, or the shortest leaves
// that parse.
func TestDecodeBatchBoundedBySize(t *testing.T) {
	if _, err := parseLeaf(minLeaf); err != nil {
		t.Fatalf("minLeaf does not parse: %v", err)
	}
	const elems = 1 << 16
	for _, tc := range []struct {
		name, elem string
		ok         bool
	}{
		{"numbers", "0", false},
		{"empty strings", `""`, false},
		{"shortest leaves", `"` + minLeaf + `"`, true},
	} {
		body := []byte(`{"peerId":"p","root":"r","leaves":[` + strings.Repeat(tc.elem+",", elems-1) + tc.elem + "]}")
		b, _, err := decodeBatch(body)
		if (err == nil) != tc.ok || tc.ok && len(b.Records) != elems {
			t.Fatalf("%s: decoded %d records, err %v", tc.name, len(b.Records), err)
		}
		// The least of a few runs, so another goroutine's allocations do
		// not count against the decode.
		var least uint64
		for i := 0; i < 3; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			decodeBatch(body)
			runtime.ReadMemStats(&after)
			if n := after.TotalAlloc - before.TotalAlloc; i == 0 || n < least {
				least = n
			}
		}
		t.Logf("%s: a %d-byte body allocated %d bytes to decode (%.1f×)", tc.name, len(body), least, float64(least)/float64(len(body)))
		if least > 8*uint64(len(body)) {
			t.Errorf("%s: decoding a %d-byte body allocated %d bytes, want at most 8 times the body", tc.name, len(body), least)
		}
	}
}

// TestSettleSpansDoNotPinBody checks that no span the origin records for a
// settlement points into the decoded upload, which would keep the whole
// body alive in the tracer's ring, and that none holds more than a few
// hundred bytes of it: not for an honest batch padded with an unknown key,
// not for a record naming another peer, and not for an uploader that is
// not registered or whose ID is a megabyte long.
func TestSettleSpansDoNotPinBody(t *testing.T) {
	o := controlOrigin(t, 4)
	tr := hpop.NewTracer(0)
	o.SetTracer(tr)
	w, err := o.AssignWrapper("p", "client-a")
	if err != nil {
		t.Fatal(err)
	}
	peer, other := anyPeer(w), ""
	for id := range w.Keys {
		if id != peer {
			other = id
		}
	}
	pad := strings.Repeat("x", 1<<20)
	for i, uploader := range []string{peer, "nobody", strings.Repeat("q", 1<<20)} {
		records := []UsageRecord{
			signedRecord(t, w, peer, 10, fmt.Sprintf("pin-%d-0", i)),
			signedRecord(t, w, peer, 20, fmt.Sprintf("pin-%d-1", i)),
			signedRecord(t, w, other, 30, fmt.Sprintf("pin-%d-2", i)),
		}
		enc, err := EncodeBatch(NewRecordBatch(uploader, records))
		if err != nil {
			t.Fatal(err)
		}
		body := append([]byte(`{"pad":"`+pad+`",`), enc[1:]...)
		b, leaves, err := decodeBatch(body)
		if err != nil {
			t.Fatal(err)
		}
		// The reader's one string of the body, found from a record's
		// signature, which is a substring of it.
		sig := b.Records[0].Signature
		base := uintptr(unsafe.Pointer(unsafe.StringData(sig))) - uintptr(strings.Index(string(body), sig))
		pins := func(v string) bool {
			return len(v) > 0 && uintptr(unsafe.Pointer(unsafe.StringData(v)))-base < uintptr(len(body))
		}
		n, err := o.settle(hpop.TraceContext{}, b, leaves)
		if want := map[bool]int{true: 2, false: 0}[i == 0]; n != want {
			t.Fatalf("uploader %d: credited %d records, want %d (%v)", i, n, want, err)
		}
		for _, sp := range tr.Recent(0) {
			for k, v := range sp.Labels {
				if pins(v) || len(v) > 512 {
					t.Errorf("uploader %d: span %s label %s holds %d bytes of the body", i, sp.Name, k, len(v))
				}
			}
			if pins(sp.Error) || len(sp.Error) > 512 {
				t.Errorf("uploader %d: span %s error holds %d bytes of the body", i, sp.Name, len(sp.Error))
			}
		}
		runtime.KeepAlive(b)
	}
}

// benchWrapperBody is a wrapper shaped like the small page's: 25 objects
// on four peers, with their keys.
func benchWrapperBody(tb testing.TB) []byte {
	w := Wrapper{Provider: "bench.example", Page: "page-00", Container: ObjectRef{Path: "/p00/index.html", Hash: strings.Repeat("ab", 32), Size: 8192, PeerID: "peer-0", PeerURL: "http://127.0.0.1:40000"},
		Keys: map[string]PeerKey{}, Nonce: strings.Repeat("9f", 16), IssuedAt: time.Now().UTC(), Loader: "loader-v1"}
	for i := 0; i < 4; i++ {
		id := fmt.Sprintf("peer-%d", i)
		w.Keys[id] = PeerKey{KeyID: id + "-tn52gj-3a2g-1", Secret: strings.Repeat("0f", 32)}
	}
	for i := 0; i < 24; i++ {
		w.Objects = append(w.Objects, ObjectRef{Path: fmt.Sprintf("/p00/o%02d.bin", i), Hash: strings.Repeat("cd", 32), Size: 8192,
			PeerID: fmt.Sprintf("peer-%d", i%4), PeerURL: fmt.Sprintf("http://127.0.0.1:4000%d", i%4)})
	}
	body, err := json.Marshal(w)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// BenchmarkDecodeWrapper is the loader's per-view wrapper decode, with
// encoding/json's as the reference.
func BenchmarkDecodeWrapper(b *testing.B) {
	body := benchWrapperBody(b)
	for _, dec := range []struct {
		name string
		fn   func([]byte) (*Wrapper, error)
	}{{"scan", decodeWrapper}, {"encoding_json", refDecodeWrapper}} {
		b.Run(dec.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := dec.fn(body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecodeBatch is the origin's decode of one 64-leaf /usage/batch
// upload, with encoding/json's as the reference.
func BenchmarkDecodeBatch(b *testing.B) {
	recs := make([]UsageRecord, 64)
	for i := range recs {
		recs[i] = UsageRecord{Provider: "bench.example", PeerID: "peer-0001", KeyID: "peer-0001-tn52gj-3a2g-1", Page: "page-00",
			Bytes: 204800, Objects: 25, Nonce: fmt.Sprintf("%032x", i), IssuedAt: time.Now().UTC()}
		recs[i].Sign([]byte("k"))
	}
	body, err := EncodeBatch(NewRecordBatch("peer-0001", recs))
	if err != nil {
		b.Fatal(err)
	}
	for _, dec := range []struct {
		name string
		fn   func([]byte) (RecordBatch, [][]byte, error)
	}{{"scan", decodeBatch}, {"encoding_json", refDecodeBatch}} {
		b.Run(dec.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := dec.fn(body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
