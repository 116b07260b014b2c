package rf

// Depth returns the tree depth.
func (t *Tree) Depth() int {
	var walk func(i, d int) int
	walk = func(i, d int) int {
		n := t.Nodes[i]
		if n.Leaf {
			return d
		}
		l, r := walk(n.Left, d+1), walk(n.Right, d+1)
		if l > r {
			return l
		}
		return r
	}
	if len(t.Nodes) == 0 {
		return 0
	}
	return walk(0, 0)
}
