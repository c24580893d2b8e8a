//go:build race

package daemon_test

const raceEnabled = true
