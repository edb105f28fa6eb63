// Observer is the process-wide observability hub: an aggregate
// metrics registry every observed run merges into, and the flight
// recorder holding the last N query records. ExplainAnalyze keeps its
// per-run isolation contract (each run meters against a private
// registry), and the Observer is where those private runs fold into
// one exportable view — /metrics scrapes the aggregate registry,
// /debug/queries dumps the flight ring.
package reorder

import (
	"net/http"
	"time"

	"repro/internal/guard"
	"repro/internal/obs"
	"repro/internal/obs/flight"
)

// Observer aggregates observed runs. The zero value is unusable; use
// NewObserver. A nil *Observer is a valid "not observing" value
// everywhere it is accepted.
type Observer struct {
	// Registry is the process-wide aggregate: each observed run's
	// private registry is merged in after the run (counters add,
	// gauges take the latest value, histograms merge bucket-wise).
	Registry *obs.Registry
	// Flight holds the last N query records.
	Flight *flight.Recorder
}

// NewObserver builds an observer whose flight recorder holds the last
// flightCap queries (flight.DefaultCapacity for flightCap <= 0).
func NewObserver(flightCap int) *Observer {
	return &Observer{Registry: obs.NewRegistry(), Flight: flight.New(flightCap)}
}

// Handler serves the observer over HTTP: /metrics in Prometheus text
// exposition format and /debug/queries as the flight-recorder JSON
// dump.
func (ob *Observer) Handler() http.Handler {
	if ob == nil {
		return obs.Handler(nil, nil)
	}
	return obs.Handler(ob.Registry, ob.Flight)
}

// record deposits one run into ob, for the service and
// ExplainAnalyze alike: the run's private registry merges into the
// aggregate, and rec — filled in by the caller — is completed with the
// run's duration, budget trips, counter subset and terminal error and
// added to the flight ring.
func (ob *Observer) record(rec flight.Record, reg *obs.Registry, b *guard.Budget, runErr error) {
	rec.DurNs = time.Since(rec.Start).Nanoseconds()
	rec.BudgetTrips = b.Trips()
	rec.Counters = flightCounters(reg)
	if runErr != nil {
		rec.Error = runErr.Error()
	}
	ob.Registry.Merge(reg)
	ob.Flight.Add(rec)
}

// flightCounters extracts the flight record's counter subset from a
// run registry: the optimizer, memo and guard counters that explain
// how the plan came to be, not the per-operator executor figures the
// Ops rows already carry.
func flightCounters(reg *obs.Registry) map[string]int64 {
	if reg == nil {
		return nil
	}
	return reg.CountersWithPrefix("memo.", "guard.", "optimizer.", "feedback.")
}

// observeQError computes the q-error of est against actual, observes
// it in thousandths into h's series for op (executor.qerror_milli),
// and returns it.
func observeQError(h *obs.HistogramVec, op string, est float64, actual int) float64 {
	q := flight.QError(est, actual)
	h.With(op).Observe(int64(q*1000 + 0.5))
	return q
}
