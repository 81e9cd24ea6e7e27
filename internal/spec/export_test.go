package spec

// Seams for the external test package (spec_test), whose tests run the
// built-in protocols, which import this package.

// CompactAt drops the line at a if it is back to the pristine initial
// state, as every delivery does for the line it touched.
func (d *DirInst) CompactAt(a Addr) {
	if l := d.lineAt(a); l != nil {
		d.compactLine(l)
	}
}
