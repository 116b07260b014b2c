package device

import "megammap/internal/blob"

// Has reports whether a blob exists.
func (d *Device) Has(key blob.ID) bool {
	_, ok := d.blobs[key]
	return ok
}

// sameArray reports whether a and b share their first byte of storage.
func sameArray(a, b []byte) bool {
	return cap(a) > 0 && cap(b) > 0 && &a[:1][0] == &b[:1][0]
}

// stock returns the free arrays of class size c.
func (a *Arrays) stock(c int) [][]byte {
	if cl := a.classes[c]; cl != nil {
		return cl.free
	}
	return nil
}
