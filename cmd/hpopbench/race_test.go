//go:build race

package main

// raceEnabled reports a -race build, whose instrumented runtime runs the
// sweeps several times slower: their timing floors are logged, not judged.
const raceEnabled = true
