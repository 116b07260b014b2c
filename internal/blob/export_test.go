package blob

// Compare returns -1, 0 or +1 in the Less order.
func Compare(a, b ID) int {
	switch {
	case a == b:
		return 0
	case a.Less(b):
		return -1
	default:
		return 1
	}
}
