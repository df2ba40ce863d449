package nocdn

import (
	"errors"
	"io"
	"net/http"
)

var (
	// errBodyLength reports a body that ended cleanly short of, or ran past,
	// the length it was declared to have: wrong bytes, not a broken link.
	errBodyLength = errors.New("nocdn: body length differs from its declared size")
	// errBodyTooLarge reports a body declared, or found, longer than the
	// reader's limit.
	errBodyTooLarge = errors.New("nocdn: body exceeds the size limit")
)

// readBody reads one HTTP message body into a slice whose size is known
// before the first byte arrives — every hop of the byte path uses it. With
// dst non-nil the body must be exactly len(dst) bytes and lands in dst, so a
// retry overwrites the same range. With dst nil the slice is sized by
// declared, the message's Content-Length; only a body of undeclared length
// (declared < 0) keeps a growing read. A dst-less body past limit is
// errBodyTooLarge, from the header alone when the length was declared.
//
// After the last wanted byte readBody reads once more and requires
// (0, io.EOF). That probe is the over-long check, and on a chunked-encoding
// body it is also what consumes the terminating chunk — without it net/http
// would not return the keep-alive connection to its pool. (A body with a
// Content-Length reports io.EOF together with its last bytes and is never
// probed.)
//
// A body that ends cleanly at the wrong length, or runs past it, is
// errBodyLength. Any other error is the transport's own — a reset, or a
// mid-body cut, which net/http reports as io.ErrUnexpectedEOF — and is
// returned as it came.
func readBody(r io.Reader, dst []byte, declared, limit int64) ([]byte, error) {
	if dst == nil {
		if declared > limit {
			return nil, errBodyTooLarge
		}
		if declared < 0 {
			data, err := io.ReadAll(io.LimitReader(r, limit+1))
			if err != nil {
				return nil, err
			}
			if int64(len(data)) > limit {
				return nil, errBodyTooLarge
			}
			return data, nil
		}
		dst = make([]byte, declared)
	}
	var (
		n   int
		err error
	)
	for n < len(dst) && err == nil {
		var k int
		k, err = r.Read(dst[n:])
		n += k
	}
	for err == nil {
		var probe [1]byte
		var k int
		if k, err = r.Read(probe[:]); k > 0 {
			return nil, errBodyLength
		}
	}
	if err != io.EOF {
		return nil, err
	}
	if n < len(dst) {
		return nil, errBodyLength
	}
	return dst, nil
}

// readUpload is every upload route's one door: it answers anything but a
// POST with 405, reads the body, at most limit bytes, with readBody, and
// answers a failure itself; ok false means the response is written. An
// oversize upload is 413 — refused on its Content-Length alone, or on
// reading past limit when it declared none — never a silent cut that then
// fails to parse as a 400: Peer.Flush takes a 400 as "settled, do not
// retry" and would discard the batch's paid-for records, while a 413
// requeues them.
func readUpload(w http.ResponseWriter, r *http.Request, limit int64) (body []byte, ok bool) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return nil, false
	}
	body, err := readBody(r.Body, nil, r.ContentLength, limit)
	switch {
	case errors.Is(err, errBodyTooLarge):
		http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
		return nil, false
	case err != nil:
		http.Error(w, "read body", http.StatusBadRequest)
		return nil, false
	}
	return body, true
}
