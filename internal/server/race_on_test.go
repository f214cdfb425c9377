//go:build race

package server

// raceEnabled reports that the race detector is on: sync.Pool then
// drops Puts at random, so pool-hit assertions do not hold.
const raceEnabled = true
