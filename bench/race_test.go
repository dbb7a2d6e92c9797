//go:build race

package main

// raceEnabled: the race detector slows the smoke about tenfold, so its
// time budget is only held without it.
const raceEnabled = true
