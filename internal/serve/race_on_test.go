//go:build race

package serve

// raceEnabled: under the race detector sync.Pool drops a share of what is put
// back, so steady-state allocation counts mean nothing there.
const raceEnabled = true
