package hw

// Reset is reset, for the lockstep tests that churn one platform
// through resets on a fixed machine type and profile.
func (p *Platform) Reset(seed uint64) { p.reset(seed) }

// NewCache builds an empty cache with the given geometry.
func NewCache(spec CacheSpec) *Cache {
	c := new(Cache)
	c.reshape(spec)
	return c
}

// NewTLB builds an empty TLB.
func NewTLB(spec TLBSpec) *TLB {
	t := new(TLB)
	t.reshape(spec)
	return t
}

// stamps is the number of stamps c has made since its clock started:
// its logical LRU clock, which rerank does not move.
func (c *Cache) stamps() uint64 { return c.base + uint64(c.clock) }

// jumpClock moves c's clock forward to clockLimit-margin, when it is
// below that, as if that many stamps had gone to lines since evicted
// without a trace: every live stamp and the flush mark move with it,
// so liveness and LRU order stay as they were, and base moves back so
// that stamps() does not change.
func (c *Cache) jumpClock(margin uint32) {
	to := uint32(clockLimit) - min(margin, clockLimit)
	if c.clock >= to {
		return
	}
	d := to - c.clock
	for i := range c.slots {
		if c.live(&c.slots[i]) {
			c.slots[i].meta += d << slotClockShift
		}
	}
	c.flushed += d << slotClockShift
	c.clock = to
	c.base -= uint64(d)
}

// nearWrap moves the clock of each of p's caches to margin stamps
// below the limit where it re-ranks (jumpClock).
func (p *Platform) nearWrap(margin uint32) {
	for _, c := range [...]*Cache{&p.l1i.Cache, &p.l1d.Cache, p.l2, p.l3} {
		c.jumpClock(margin)
	}
}
