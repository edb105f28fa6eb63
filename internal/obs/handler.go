package obs

import (
	"io"
	"net/http"
)

// QueryLog is the flight-recorder face the HTTP surface needs: a JSON
// dump of recent query records. flight.Recorder implements it; the
// indirection keeps obs free of a dependency on its own subpackage.
type QueryLog interface {
	WriteJSON(w io.Writer) error
}

// Handler returns the observability HTTP surface:
//
//	GET /metrics        Prometheus text exposition of r
//	GET /debug/queries  flight-recorder JSON (404 when queries is nil)
//
// Both endpoints snapshot under read locks and atomics only, so
// scraping while queries execute is safe and never blocks the engine.
// A nil registry serves the process-wide default.
func Handler(r *Registry, queries QueryLog) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := r.writeProm(w); err != nil {
			// Headers are gone; all we can do is drop the connection.
			panic(http.ErrAbortHandler)
		}
	})
	mux.HandleFunc("/debug/queries", func(w http.ResponseWriter, req *http.Request) {
		if queries == nil {
			http.NotFound(w, req)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := queries.WriteJSON(w); err != nil {
			panic(http.ErrAbortHandler)
		}
	})
	return mux
}
