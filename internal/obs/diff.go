package obs

import "math"

// Diff returns the movement from base to s — what happened between
// two snapshots of the same registry: a window report instead of
// process-lifetime absolutes.
//
//   - Counters: s − base, zero deltas dropped (a counter that did not
//     move during the window is noise in a delta report).
//   - Gauges: s's current value (gauges are levels, not cumulative —
//     a "delta" of a level is meaningless, the closing value is what
//     a window report wants).
//   - Histograms: delta count, sum and buckets; mean and the
//     P50/P95/P99 bounds are recomputed from the delta buckets, so
//     they describe only the window's observations. Min/Max are not
//     recoverable from two snapshots and are left zero. Histograms
//     with no new observations are dropped.
//
// Diff of a snapshot against an unrelated registry's snapshot is
// well-defined (missing base entries count from zero) but only
// meaningful when base precedes s on the same registry.
func (s Snapshot) Diff(base Snapshot) Snapshot {
	var out Snapshot
	for name, v := range s.Counters {
		if d := v - base.Counters[name]; d != 0 {
			if out.Counters == nil {
				out.Counters = make(map[string]int64)
			}
			out.Counters[name] = d
		}
	}
	for name, v := range s.Gauges {
		if out.Gauges == nil {
			out.Gauges = make(map[string]int64)
		}
		out.Gauges[name] = v
	}
	for name, h := range s.Histograms {
		d := diffHistogram(h, base.Histograms[name])
		if d.Count == 0 {
			continue
		}
		if out.Histograms == nil {
			out.Histograms = make(map[string]HistogramSnapshot)
		}
		out.Histograms[name] = d
	}
	return out
}

func diffHistogram(s, base HistogramSnapshot) HistogramSnapshot {
	d := HistogramSnapshot{
		Count: s.Count - base.Count,
		Sum:   s.Sum - base.Sum,
	}
	if d.Count <= 0 {
		return HistogramSnapshot{}
	}
	d.Mean = float64(d.Sum) / float64(d.Count)
	baseAt := make(map[int64]int64, len(base.Buckets))
	for _, b := range base.Buckets {
		baseAt[b.Le] = b.N
	}
	for _, b := range s.Buckets {
		if n := b.N - baseAt[b.Le]; n > 0 {
			d.Buckets = append(d.Buckets, Bucket{Le: b.Le, N: n})
		}
	}
	d.P50 = bucketQuantile(d.Count, d.Buckets, 0.50)
	d.P95 = bucketQuantile(d.Count, d.Buckets, 0.95)
	d.P99 = bucketQuantile(d.Count, d.Buckets, 0.99)
	return d
}

// bucketQuantile returns the q-quantile upper bound over a list of
// occupied buckets sorted by ascending Le with non-cumulative counts —
// the snapshot-side twin of Histogram.Quantile.
func bucketQuantile(count int64, buckets []Bucket, q float64) int64 {
	if count == 0 || len(buckets) == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(count)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for _, b := range buckets {
		cum += b.N
		if cum >= rank {
			return b.Le
		}
	}
	return buckets[len(buckets)-1].Le
}
