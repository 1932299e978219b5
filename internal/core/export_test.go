package core

// KeepSolves makes the claw loop on sc solve every candidate set's matching,
// for the tests that hold the skip to the loop without it.
func KeepSolves(sc *Scratch) { sc.keepSolves = true }

// SolvesSkipped returns the number of matchings the skip has left unsolved
// on sc.
func SolvesSkipped(sc *Scratch) int64 { return sc.skipped }
