package vtime

// TryRecv receives a value without blocking. ok is false if none is ready.
func (c *Chan[T]) TryRecv() (v T, ok bool) {
	if c.Len() > 0 {
		v = c.popBuf()
		c.refill()
		return v, true
	}
	if len(c.sendq) > c.sendHead {
		return c.popSend(), true
	}
	return v, false
}

// Yield reschedules the process after all events already queued at the
// current instant.
func (p *Proc) Yield() { p.Sleep(0) }
