package reorder

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"sync"
)

// Handler serves the query API over HTTP:
//
//	POST /query         {"sql": "...", ...}  → Response JSON
//	GET  /metrics       Prometheus text exposition
//	GET  /debug/queries flight-recorder dump
//	GET  /debug/cache   plan-cache stats
//
// Errors return {"error":{"code":...,"message":...}} with the status
// from the serving taxonomy (400 bad_query, 429 overloaded, 504
// deadline, 422 budget, 500 typed internal), or 413 too_large for a
// /query body over maxRequestBytes.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/metrics", s.ob.Handler())
	mux.Handle("/debug/queries", s.ob.Handler())
	mux.HandleFunc("/debug/cache", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(s.CacheDebug())
	})
	mux.HandleFunc("/query", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeAPIError(w, http.StatusMethodNotAllowed, "method_not_allowed", "POST required")
			return
		}
		var req Request
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes)).Decode(&req); err != nil {
			if tooLarge := (*http.MaxBytesError)(nil); errors.As(err, &tooLarge) {
				writeAPIError(w, http.StatusRequestEntityTooLarge, "too_large", err.Error())
				return
			}
			writeAPIError(w, http.StatusBadRequest, "bad_request", "invalid JSON: "+err.Error())
			return
		}
		if req.SQL == "" {
			writeAPIError(w, http.StatusBadRequest, "bad_request", "missing \"sql\"")
			return
		}
		resp, err := s.query(r.Context(), req)
		buf := wireBufs.Get().(*[]byte)
		defer putWireBuf(buf)
		if err == nil {
			*buf, err = appendResponse((*buf)[:0], resp)
		}
		if se := s.settle(err); se != nil {
			writeAPIError(w, se.HTTPStatus, se.Code, se.Err.Error())
			return
		}
		h := w.Header()
		h.Set("Content-Type", "application/json")
		h.Set("Content-Length", strconv.Itoa(len(*buf)))
		w.Write(*buf) // a failed write means the client is gone; there is no one left to tell
	})
	return mux
}

// maxRequestBytes bounds a /query request body: a query is a few
// hundred bytes of SQL, and the server must not buffer whatever a
// client sends.
const maxRequestBytes = 1 << 20

// wireBufs recycles /query response buffers, so a steady stream of
// results is encoded without growing a buffer per request.
var wireBufs = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledWireBuf bounds the buffers wireBufs keeps: one outsized
// result must not pin its buffer for the life of the process.
const maxPooledWireBuf = 4 << 20

func putWireBuf(b *[]byte) {
	if cap(*b) <= maxPooledWireBuf {
		wireBufs.Put(b)
	}
}

// apiError is the JSON error envelope.
type apiError struct {
	Error apiErrorBody `json:"error"`
}

type apiErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

func writeAPIError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(apiError{Error: apiErrorBody{Code: code, Message: msg}})
}
