//go:build race

package main

// Under the race detector a learner round takes seconds, not a fraction of
// one; the smoke test stretches its windows so that each still sees work.
const raceSlowdown = 8
