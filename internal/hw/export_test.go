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
