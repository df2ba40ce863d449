package nocdn

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"
	"unicode/utf16"
	"unicode/utf8"
)

// The two JSON bodies on the hot paths — the wrapper page every view
// decodes, and the /usage/batch upload every settlement round decodes — are
// read in place by jsonReader instead of encoding/json's reflection. The
// encoders stay json.Marshal, so the wire does not change, and a body is
// read as json.Unmarshal into the same types would read it:
//
//   - a string without an escape is a substring of the body, converted to a
//     string once; one with an escape, or with bytes that are not UTF-8, is
//     unquoted as encoding/json unquotes it;
//   - an int is an integer literal in int's range: a fraction, an exponent
//     or an overflow is refused;
//   - null leaves a string, an int or a struct zero, and a slice or a map
//     nil; [] is an empty slice that is not nil;
//   - an unknown key is skipped, its value checked as JSON, so a newer
//     origin stays readable; trailing data and nesting past encoding/json's
//     limit are refused.
//
// Where encoding/json would accept a body this reader refuses it instead: a
// repeated key, and a key that matches a field only in another case. Every
// body this reader accepts, json.Unmarshal accepts with the same result;
// FuzzWrapperDecode and FuzzDecodeRecords hold it to that.

// errJSON reports a body that jsonReader refuses.
var errJSON = errors.New("malformed JSON")

// maxJSONDepth is encoding/json's nesting limit.
const maxJSONDepth = 10000

// jsonReader is a cursor over one JSON body.
type jsonReader struct {
	s     string // the body, converted once
	b     []byte // the same bytes: raw tokens and leaves are its subslices
	i     int    // the cursor, an offset into both
	depth int    // objects and arrays open at the cursor
}

func newJSONReader(body []byte) jsonReader {
	return jsonReader{s: string(body), b: body}
}

func (d *jsonReader) fail(what string) error {
	return fmt.Errorf("%w: %s at offset %d", errJSON, what, d.i)
}

// peek skips whitespace and returns the next byte, or 0 at the end.
func (d *jsonReader) peek() byte {
	for ; d.i < len(d.s); d.i++ {
		switch c := d.s[d.i]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// eat consumes c if it is the next byte.
func (d *jsonReader) eat(c byte) bool {
	if d.peek() == c {
		d.i++
		return true
	}
	return false
}

// null consumes a null literal if one is next.
func (d *jsonReader) null() bool {
	if d.peek() == 'n' && strings.HasPrefix(d.s[d.i:], "null") {
		d.i += 4
		return true
	}
	return false
}

// end refuses anything but whitespace after the top-level value.
func (d *jsonReader) end() error {
	if d.peek() != 0 || d.i != len(d.s) {
		return d.fail("trailing data")
	}
	return nil
}

// open consumes c, the byte that opens an object or an array.
func (d *jsonReader) open(c byte) error {
	if !d.eat(c) {
		return d.fail("want " + string(c))
	}
	if d.depth++; d.depth > maxJSONDepth {
		return d.fail("nesting too deep")
	}
	return nil
}

// object reads the object at the cursor, calling member with each key once
// the cursor is on its value; member must consume the value. A null is an
// object with no members, reported by null.
func (d *jsonReader) object(member func(key string) error) (null bool, err error) {
	if d.null() {
		return true, nil
	}
	if err := d.open('{'); err != nil {
		return false, err
	}
	if d.eat('}') {
		d.depth--
		return false, nil
	}
	for {
		key, err := d.str()
		if err != nil {
			return false, err
		}
		if !d.eat(':') {
			return false, d.fail("want :")
		}
		if err := member(key); err != nil {
			return false, err
		}
		if d.eat(',') {
			continue
		}
		if d.eat('}') {
			d.depth--
			return false, nil
		}
		return false, d.fail("want , or }")
	}
}

// array reads the array at the cursor, calling elem with the cursor on each
// element; elem must consume it. A null is reported by null.
func (d *jsonReader) array(elem func() error) (null bool, err error) {
	if d.null() {
		return true, nil
	}
	if err := d.open('['); err != nil {
		return false, err
	}
	if d.eat(']') {
		d.depth--
		return false, nil
	}
	for {
		if err := elem(); err != nil {
			return false, err
		}
		if d.eat(',') {
			continue
		}
		if d.eat(']') {
			d.depth--
			return false, nil
		}
		return false, d.fail("want , or ]")
	}
}

// count returns how many elements or members the array or object at the
// cursor holds, leaving the cursor where it was. A malformed value counts
// what precedes the fault; the read that follows refuses it.
func (d *jsonReader) count() int {
	i, depth, n := d.i, d.depth, 0
	switch d.peek() {
	case '[':
		d.array(func() error { n++; return d.skip() })
	case '{':
		d.object(func(string) error { n++; return d.skip() })
	}
	d.i, d.depth = i, depth
	return n
}

// skip consumes one value of any kind, checking that it is JSON.
func (d *jsonReader) skip() error {
	var err error
	switch c := d.peek(); {
	case c == '{':
		_, err = d.object(func(string) error { return d.skip() })
	case c == '[':
		_, err = d.array(d.skip)
	case c == '"':
		_, _, err = d.scanString()
	case c == '-' || c >= '0' && c <= '9':
		_, _, err = d.number()
	case d.null():
	case strings.HasPrefix(d.s[d.i:], "true"):
		d.i += 4
	case strings.HasPrefix(d.s[d.i:], "false"):
		d.i += 5
	default:
		err = d.fail("want a value")
	}
	return err
}

// number consumes a number token and reports whether it is an integer: no
// fraction and no exponent.
func (d *jsonReader) number() (tok string, integer bool, err error) {
	start := d.i
	digits := func() int {
		n := d.i
		for d.i < len(d.s) && d.s[d.i] >= '0' && d.s[d.i] <= '9' {
			d.i++
		}
		return d.i - n
	}
	if d.i < len(d.s) && d.s[d.i] == '-' {
		d.i++
	}
	switch {
	case d.i < len(d.s) && d.s[d.i] == '0':
		d.i++
	case digits() == 0:
		return "", false, d.fail("malformed number")
	}
	integer = true
	if d.i < len(d.s) && d.s[d.i] == '.' {
		d.i++
		if digits() == 0 {
			return "", false, d.fail("malformed number")
		}
		integer = false
	}
	if d.i < len(d.s) && (d.s[d.i] == 'e' || d.s[d.i] == 'E') {
		d.i++
		if d.i < len(d.s) && (d.s[d.i] == '+' || d.s[d.i] == '-') {
			d.i++
		}
		if digits() == 0 {
			return "", false, d.fail("malformed number")
		}
		integer = false
	}
	return d.s[start:d.i], integer, nil
}

// int reads an int, or a null as 0.
func (d *jsonReader) int() (int, error) {
	if d.null() {
		return 0, nil
	}
	if c := d.peek(); c != '-' && (c < '0' || c > '9') {
		return 0, d.fail("want a number")
	}
	tok, integer, err := d.number()
	if err != nil {
		return 0, err
	}
	n, perr := strconv.ParseInt(tok, 10, 0)
	if !integer || perr != nil {
		return 0, d.fail("number " + tok + " is not an int")
	}
	return int(n), nil
}

// scanString consumes a string token and returns the text between its
// quotes, and whether that text is the string itself: no escape, and UTF-8
// throughout.
func (d *jsonReader) scanString() (body string, plain bool, err error) {
	if d.peek() != '"' {
		return "", false, d.fail("want a string")
	}
	d.i++
	start, escaped, ascii := d.i, false, true
	for d.i < len(d.s) {
		if plainByte[d.s[d.i]] {
			d.i++
			continue
		}
		switch c := d.s[d.i]; {
		case c == '"':
			body = d.s[start:d.i]
			d.i++
			return body, !escaped && (ascii || utf8.ValidString(body)), nil
		case c == '\\':
			escaped = true
			if d.i+1 >= len(d.s) {
				return "", false, d.fail("unterminated string")
			}
			switch d.s[d.i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				d.i += 2
			case 'u':
				if hex4(d.s[d.i:]) < 0 {
					return "", false, d.fail(`malformed \u escape`)
				}
				d.i += 6
			default:
				return "", false, d.fail("malformed escape")
			}
		case c < ' ':
			return "", false, d.fail("control character in string")
		default:
			ascii = false
			d.i++
		}
	}
	return "", false, d.fail("unterminated string")
}

// plainByte marks the bytes a string holds as they are: ASCII, neither a
// control character, a quote nor a backslash.
var plainByte = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// str reads a string: a substring of the body when it needs no unquoting.
func (d *jsonReader) str() (string, error) {
	body, plain, err := d.scanString()
	if err != nil || plain {
		return body, err
	}
	return unquoteJSON(body), nil
}

// strOrNull reads a string, or a null as "".
func (d *jsonReader) strOrNull() (string, error) {
	if d.null() {
		return "", nil
	}
	return d.str()
}

// time reads a value into t with time.Time's own UnmarshalJSON, over the
// raw token, so its strict RFC 3339 rule and its null are the ones
// encoding/json applies.
func (d *jsonReader) time(t *time.Time) error {
	d.peek()
	start := d.i
	if err := d.skip(); err != nil {
		return err
	}
	return t.UnmarshalJSON(d.b[start:d.i])
}

// member admits key into the object whose keys so far are the bits of seen,
// names being the fields it decodes: a repeated field, or a key that matches
// a field only in another case, is refused. A key that matches no field is
// admitted; the caller skips its value.
func (d *jsonReader) member(key string, names []string, seen *uint) error {
	for i, n := range names {
		if key == n {
			if *seen&(1<<i) != 0 {
				return d.fail("repeated key " + strconv.Quote(key))
			}
			*seen |= 1 << i
			return nil
		}
	}
	for _, n := range names {
		if strings.EqualFold(key, n) {
			return d.fail("key " + strconv.Quote(key) + " is not " + strconv.Quote(n))
		}
	}
	return nil
}

// readSlice reads an array of T, each element with read: nil for a null,
// and allocated once at its counted length otherwise.
func readSlice[T any](d *jsonReader, read func(*T) error) ([]T, error) {
	out := make([]T, 0, d.count())
	null, err := d.array(func() error {
		out = append(out, *new(T))
		return read(&out[len(out)-1])
	})
	if null {
		return nil, nil
	}
	return out, err
}

// hex4 decodes the \uXXXX escape s starts with, or returns -1.
func hex4(s string) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range []byte(s[2:6]) {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// unquoteJSON unquotes a string body scanString checked, as encoding/json
// does: a surrogate pair is one rune, and a lone surrogate and every byte
// that is not UTF-8 become U+FFFD.
func unquoteJSON(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); {
		c := s[i]
		switch {
		case c == '\\' && s[i+1] == 'u':
			r := hex4(s[i:])
			i += 6
			if utf16.IsSurrogate(r) {
				if dec := utf16.DecodeRune(r, hex4(s[i:])); dec != utf8.RuneError {
					r = dec
					i += 6
				} else {
					r = utf8.RuneError
				}
			}
			b.WriteRune(r)
		case c == '\\':
			b.WriteByte(unescapeJSON[s[i+1]])
			i += 2
		case c < utf8.RuneSelf:
			b.WriteByte(c)
			i++
		default:
			r, n := utf8.DecodeRuneInString(s[i:])
			b.WriteRune(r)
			i += n
		}
	}
	return b.String()
}

// unescapeJSON maps the byte after a backslash to the byte it stands for.
var unescapeJSON = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

// The fields decodeWrapper reads, per object, as their JSON keys.
var (
	wrapperFields = []string{"provider", "page", "container", "objects", "keys", "nonce", "issuedAt", "loader"}
	objectFields  = []string{"path", "hash", "size", "peerId", "peerUrl", "replicas", "chunks"}
	peerRefFields = []string{"peerId", "peerUrl"}
	chunkFields   = []string{"peerId", "peerUrl", "offset", "length"}
	peerKeyFields = []string{"keyId", "secret"}
)

// decodeWrapper parses a wrapper page. Its strings share one copy of body.
func decodeWrapper(body []byte) (*Wrapper, error) {
	d := newJSONReader(body)
	w := new(Wrapper)
	var seen uint
	_, err := d.object(func(key string) error {
		if err := d.member(key, wrapperFields, &seen); err != nil {
			return err
		}
		var err error
		switch key {
		case "provider":
			w.Provider, err = d.strOrNull()
		case "page":
			w.Page, err = d.strOrNull()
		case "container":
			err = d.objectRef(&w.Container)
		case "objects":
			w.Objects, err = readSlice(&d, d.objectRef)
		case "keys":
			w.Keys, err = d.peerKeys()
		case "nonce":
			w.Nonce, err = d.strOrNull()
		case "issuedAt":
			err = d.time(&w.IssuedAt)
		case "loader":
			w.Loader, err = d.strOrNull()
		default:
			err = d.skip()
		}
		return err
	})
	if err == nil {
		err = d.end()
	}
	if err != nil {
		return nil, err
	}
	return w, nil
}

func (d *jsonReader) objectRef(o *ObjectRef) error {
	var seen uint
	_, err := d.object(func(key string) error {
		if err := d.member(key, objectFields, &seen); err != nil {
			return err
		}
		var err error
		switch key {
		case "path":
			o.Path, err = d.strOrNull()
		case "hash":
			o.Hash, err = d.strOrNull()
		case "size":
			o.Size, err = d.int()
		case "peerId":
			o.PeerID, err = d.strOrNull()
		case "peerUrl":
			o.PeerURL, err = d.strOrNull()
		case "replicas":
			o.Replicas, err = readSlice(d, d.peerRef)
		case "chunks":
			o.Chunks, err = readSlice(d, d.chunkRef)
		default:
			err = d.skip()
		}
		return err
	})
	return err
}

func (d *jsonReader) peerRef(p *PeerRef) error {
	var seen uint
	_, err := d.object(func(key string) error {
		if err := d.member(key, peerRefFields, &seen); err != nil {
			return err
		}
		var err error
		switch key {
		case "peerId":
			p.PeerID, err = d.strOrNull()
		case "peerUrl":
			p.PeerURL, err = d.strOrNull()
		default:
			err = d.skip()
		}
		return err
	})
	return err
}

func (d *jsonReader) chunkRef(c *ChunkRef) error {
	var seen uint
	_, err := d.object(func(key string) error {
		if err := d.member(key, chunkFields, &seen); err != nil {
			return err
		}
		var err error
		switch key {
		case "peerId":
			c.PeerID, err = d.strOrNull()
		case "peerUrl":
			c.PeerURL, err = d.strOrNull()
		case "offset":
			c.Offset, err = d.int()
		case "length":
			c.Length, err = d.int()
		default:
			err = d.skip()
		}
		return err
	})
	return err
}

// peerKeys reads the wrapper's keys: nil for a null, and a map sized once
// otherwise. A peer named twice keeps its last key.
func (d *jsonReader) peerKeys() (map[string]PeerKey, error) {
	keys := make(map[string]PeerKey, d.count())
	null, err := d.object(func(peer string) error {
		var k PeerKey
		var seen uint
		_, err := d.object(func(key string) error {
			if err := d.member(key, peerKeyFields, &seen); err != nil {
				return err
			}
			var err error
			switch key {
			case "keyId":
				k.KeyID, err = d.strOrNull()
			case "secret":
				k.Secret, err = d.strOrNull()
			default:
				err = d.skip()
			}
			return err
		})
		keys[peer] = k
		return err
	})
	if null {
		return nil, nil
	}
	return keys, err
}

// batchFields are the keys of a /usage/batch upload (batchWire).
var batchFields = []string{"peerId", "root", "leaves", "records"}

// decodeBatch parses an upload into its batch and the leaves it carried, in
// order. Each leaf is a subslice of data, and its record's strings share
// one string copy of data, except where a leaf had to be unquoted; the
// uploader's ID is a copy of its own, since it outlives the request in the
// ledger. A body carrying records is errLegacyBatch whatever its leaves
// hold.
//
// The upload is not authenticated, so what it costs is bounded by its
// size: Records and the leaves are sized for no more leaves than the body
// has room for, and none is kept after the first that does not parse.
func decodeBatch(data []byte) (RecordBatch, [][]byte, error) {
	d := newJSONReader(data)
	var (
		b       RecordBatch
		leaves  [][]byte
		seen    uint
		records bool
		leafErr error
	)
	_, err := d.object(func(key string) error {
		if err := d.member(key, batchFields, &seen); err != nil {
			return err
		}
		var err error
		switch key {
		case "peerId":
			var id string
			id, err = d.strOrNull()
			b.PeerID = strings.Clone(id)
		case "root":
			b.Root, err = d.strOrNull()
		case "leaves":
			n := min(d.count(), (len(d.s)-d.i)/(len(minLeaf)+len(`""`)))
			b.Records, leaves = make([]UsageRecord, 0, n), make([][]byte, 0, n)
			_, err = d.array(func() error {
				text, plain, err := d.scanString()
				if err != nil || leafErr != nil {
					return err
				}
				leaf := d.b[d.i-1-len(text) : d.i-1 : d.i-1]
				if !plain {
					text = unquoteJSON(text)
					leaf = []byte(text)
				}
				r, err := parseLeaf(text)
				if err != nil {
					leafErr = fmt.Errorf("nocdn: decode batch: leaf %d: %w", len(leaves), err)
					return nil
				}
				b.Records, leaves = append(b.Records, r), append(leaves, leaf)
				return nil
			})
		case "records":
			records = true
			fallthrough
		default:
			err = d.skip()
		}
		return err
	})
	if err == nil {
		err = d.end()
	}
	switch {
	case err != nil:
		return RecordBatch{}, nil, fmt.Errorf("nocdn: decode batch: %w", err)
	case records:
		return RecordBatch{}, nil, errLegacyBatch
	case leafErr != nil:
		return RecordBatch{}, nil, leafErr
	case leaves == nil:
		b.Records, leaves = []UsageRecord{}, [][]byte{}
	}
	return b, leaves, nil
}
