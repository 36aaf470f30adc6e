//go:build !race

package evaluate

const raceEnabled = false
