//go:build !race

package service

// raceEnabled reports a race-detector build, where sync.Pool drops items
// at random and allocation counts cannot be pinned.
const raceEnabled = false
