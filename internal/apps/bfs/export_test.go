package bfs

// Stats folds a distance array (the host-side BFSFrom output or the
// shared vector's contents) into the Result digest fields, so tests can
// compare the MegaMmap run against ground truth field by field.
func Stats(dist []int32) Result {
	var res Result
	for i, d := range dist {
		res.fold(int64(i), d)
	}
	return res
}
