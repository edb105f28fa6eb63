//go:build race

package reorder

// raceEnabled reports a race-detector build, whose allocations differ.
const raceEnabled = true
