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
	"strings"
	"time"

	"repro/internal/guard"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/optimizer"
	"repro/internal/plan"
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

// record deposits one run into the observer: merge the run's private
// registry into the aggregate, then add the flight record. Nil-safe.
func (ob *Observer) record(q, chosen plan.Node, res *optimizer.Result, reg *obs.Registry, b *guard.Budget, start time.Time, execNs int64, runErr error, rowsOut int, ops []flight.OpStat) {
	if ob == nil {
		return
	}
	rec := flight.Record{
		Start:       start,
		Query:       plan.Key(q),
		Hash:        plan.Fingerprint(q),
		DurNs:       time.Since(start).Nanoseconds(),
		RowsOut:     rowsOut,
		BudgetTrips: b.Trips(),
		Counters:    flightCounters(reg),
		Ops:         ops,
	}
	if res != nil {
		rec.PlanKey = plan.Key(res.Best.Plan)
		rec.Degraded = res.Degraded
		for _, p := range res.Phases {
			rec.Phases = append(rec.Phases, flight.Phase{Name: p.Name, Ns: p.Elapsed.Nanoseconds()})
		}
	} else if chosen != nil {
		rec.PlanKey = plan.Key(chosen)
	}
	if execNs > 0 {
		rec.Phases = append(rec.Phases, flight.Phase{Name: "execute", Ns: execNs})
	}
	if runErr != nil {
		rec.Error = runErr.Error()
	}
	if ob.Registry != nil {
		ob.Registry.Merge(reg)
	}
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
	snap := reg.Snapshot()
	var out map[string]int64
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "memo.") || strings.HasPrefix(name, "guard.") ||
			strings.HasPrefix(name, "optimizer.") || strings.HasPrefix(name, "feedback.") {
			if out == nil {
				out = make(map[string]int64)
			}
			out[name] = v
		}
	}
	return out
}
