//go:build race

package nocdn

// raceEnabled reports a -race build, whose runtime allocates differently
// (sync.Pool drops what it is handed), so allocation budgets do not apply.
const raceEnabled = true
