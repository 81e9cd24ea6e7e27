package mcheck

// Seams for the external test package (mcheck_test), whose tests build
// fused systems through core, which imports this package.

// SetSpillRing caps a spilling search's in-memory frontier window at n
// entries, so small state spaces still write wave files.
func SetSpillRing(o *Options, n int) { o.spillRing = n }

// DecodeImage rebuilds an EncodeBinary image in place over a clone of the
// system it was encoded from.
var DecodeImage = decodeImage
