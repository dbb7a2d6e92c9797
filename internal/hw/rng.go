package hw

import "math"

// RNG is a small deterministic pseudo-random number generator
// (SplitMix64). The hardware model must be reproducible for a fixed
// seed across runs, architectures, and Go versions, so we avoid
// math/rand (whose stream is only stable per major version) and use a
// generator whose entire state is a single uint64.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Two generators with the
// same seed produce identical streams.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Uint64 returns the next 64-bit value in the stream.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Int63n returns a value uniformly distributed in [0, n). n must be > 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("hw: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a value uniformly distributed in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Exp returns an exponentially distributed value with the given mean.
// Used for interrupt and preemption inter-arrival times.
func (r *RNG) Exp(mean float64) float64 {
	u := r.Float64()
	if u <= 0 {
		u = 1e-12
	}
	return -mean * ln(1-u)
}

// Norm returns a normally distributed value with the given mean and
// standard deviation, via the polar (Marsaglia) method.
func (r *RNG) Norm(mean, stddev float64) float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return mean + stddev*u*sqrt(-2*ln(s)/s)
		}
	}
}

// Split derives an independent generator from this one. The derived
// stream is decorrelated from the parent's future output.
func (r *RNG) Split() *RNG {
	d := new(RNG)
	r.splitInto(d)
	return d
}

// splitInto re-keys dst as the generator Split would return, for
// owners that re-derive their generators in place.
func (r *RNG) splitInto(dst *RNG) {
	dst.state = r.Uint64() ^ 0x5851f42d4c957f2d
}

// State exposes the generator's single word of state, so an engine
// snapshot can persist it.
func (r *RNG) State() uint64 { return r.state }

// SetState restores a state captured with State.
func (r *RNG) SetState(s uint64) { r.state = s }

// Skip advances the stream past n draws in O(1). SplitMix64's state
// is a plain counter, which is what makes windowed replay able to
// reconstruct "the generator after exactly n draws" without replaying
// them.
func (r *RNG) Skip(n uint64) {
	r.state += n * 0x9e3779b97f4a7c15
}

// ln and sqrt wrap the math package so the rest of this file reads as
// self-contained numeric code.
func ln(x float64) float64   { return math.Log(x) }
func sqrt(x float64) float64 { return math.Sqrt(x) }
