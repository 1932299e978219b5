package core

// SetSegDictLimit lowers d's entry cap (segDictCap) for this package's
// external tests, which sign probes of a full dictionary through pebble.
func SetSegDictLimit(d *SegDict, limit int) { d.limit = limit }
