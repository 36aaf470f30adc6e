//go:build !race

package accel

const raceEnabled = false
