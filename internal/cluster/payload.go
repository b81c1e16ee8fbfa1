// Control-plane payload parsing. Every /cluster/* body decodes
// through one strict path that returns typed errors — errPayload for
// malformed or invalid content, http.MaxBytesError for oversized
// bodies — and never panics, no matter the bytes. The fuzz target
// FuzzClusterPayload drives exactly this layer.
package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"unsafe"

	"desh/internal/persist"
	"desh/internal/stream"
)

// errPayload marks a request body that parsed as transport-valid JSON
// but failed the payload's own validation (or did not parse at all).
// Handlers map it to 400.
var errPayload = errors.New("cluster: invalid payload")

// Body caps. Import and takeover carry whole shipped range states and
// keep the WAL-record-sized bound the protocol already enforces;
// everything else is small control metadata.
const (
	maxControlBody = 1 << 20
	maxStateBody   = 256 << 20
)

// payloadValidator is implemented by request types with structural
// invariants beyond JSON well-formedness.
type payloadValidator interface{ validate() error }

// decodePayload strictly parses one control-plane body into v:
// unknown fields rejected, exactly one JSON value, validate() applied
// when the type has one. All failures come back wrapped in errPayload
// (or the reader's own error, e.g. http.MaxBytesError).
func decodePayload(body io.Reader, v any) error {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return mbe
		}
		return fmt.Errorf("%w: %v", errPayload, err)
	}
	// A second value (or trailing garbage) means the body was not one
	// JSON document.
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return fmt.Errorf("%w: trailing data after JSON body", errPayload)
	}
	if pv, ok := v.(payloadValidator); ok {
		return pv.validate()
	}
	return nil
}

// validRanges rejects structurally broken hash-range lists. Lo == Hi
// is only meaningful as the full circle {0,0}.
func validRanges(ranges []persist.HashRange) error {
	for _, r := range ranges {
		if r.Lo == r.Hi && r.Lo != 0 {
			return fmt.Errorf("%w: degenerate hash range {%d,%d}", errPayload, r.Lo, r.Hi)
		}
	}
	return nil
}

// readJSON decodes a POST body into v with the byte cap applied,
// writing the proper status on failure: 405 for non-POST, 413 for
// oversized bodies, 400 for everything malformed.
func readJSON(w http.ResponseWriter, r *http.Request, v any, limit int64) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return false
	}
	body := http.MaxBytesReader(w, r.Body, limit)
	if err := decodePayload(body, v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
			return false
		}
		http.Error(w, err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

// control serves one control-plane POST: the body decodes through
// readJSON into a T, do applies it, and its reply goes back as JSON. A
// failure answers failStatus — or 409 if the lease fence refused it.
func control[T any](w http.ResponseWriter, r *http.Request, limit int64, failStatus int, do func(req T) (any, error)) {
	var req T
	if !readJSON(w, r, &req, limit) {
		return
	}
	reply, err := do(req)
	if errors.Is(err, errFenced) {
		failStatus = http.StatusConflict
	}
	if err != nil {
		http.Error(w, err.Error(), failStatus)
		return
	}
	writeJSON(w, reply)
}

// ingestScratch is what one /ingest POST is read and decoded into: its
// body and, on an instance, the admissions its records decode to (their
// records alias body). Pooled, so POSTs in steady state read into the
// same few buffers instead of allocating a body and a batch each.
type ingestScratch struct {
	body  bytes.Buffer
	batch []stream.Admission
}

var ingestPool = sync.Pool{New: func() any { return new(ingestScratch) }}

// maxRetainedScratch is the WAL's maxRetainedBuf rule: a scratch one
// outsized POST grew past it is dropped, not pooled.
const maxRetainedScratch = 1 << 20

// release pools sc with its batch cleared: no pooled entry pins an
// event's strings or points into a body, and no slot keeps a Refused
// past the POST that set it.
func (sc *ingestScratch) release() {
	clear(sc.batch)
	sc.batch = sc.batch[:0]
	if sc.body.Cap() <= maxRetainedScratch && cap(sc.batch)*int(unsafe.Sizeof(stream.Admission{})) <= maxRetainedScratch {
		ingestPool.Put(sc)
	}
}

// ingestBody reads a /ingest POST into buf under maxIngestBody, itself
// answering a non-POST (405), an oversized body (413) and a failed read
// (400).
func ingestBody(w http.ResponseWriter, r *http.Request, buf *bytes.Buffer) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return false
	}
	buf.Reset()
	// Sized up front: a cold buffer growing to a router's ~100 KB body by
	// doubling allocates several times the body.
	if n := r.ContentLength; n > 0 && n <= maxIngestBody {
		buf.Grow(int(n) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxIngestBody))
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
	} else if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
	return err == nil
}
