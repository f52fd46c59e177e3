//go:build !race

package formula

const raceEnabled = false
