package device

import "megammap/internal/blob"

// Has reports whether a blob exists.
func (d *Device) Has(key blob.ID) bool {
	_, ok := d.blobs[key]
	return ok
}
