//go:build !race

package pilot

const raceEnabled = false
