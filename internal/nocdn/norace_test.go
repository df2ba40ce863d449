//go:build !race

package nocdn

const raceEnabled = false
