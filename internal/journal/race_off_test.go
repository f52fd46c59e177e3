//go:build !race

package journal

const raceEnabled = false
