package sparklike

// Count returns the total element count.
func (r *RDD[T]) Count() int64 {
	var n int64
	for _, p := range r.parts {
		n += int64(len(p))
	}
	return n
}

// MemoryUsed returns the executor-resident bytes across nodes.
func (s *Session) MemoryUsed() int64 {
	var sum int64
	for _, b := range s.memo {
		sum += b
	}
	return sum
}
