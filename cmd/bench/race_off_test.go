//go:build !race

package main

const raceSlowdown = 1
