package sim

import (
	"math/rand"
	"sync"
)

// math/rand's default source is an additive lagged-Fibonacci generator over
// a 607-word ring with tap offset 273. Seeding it is expensive (it steps an
// LCG hundreds of times to fill the ring), and the sharded characterizer
// builds a freshly seeded simulator per frequency row, so seeding shows up
// as ~20% of sweep CPU. The generator has a property that lets us cache the
// seeding work without touching unexported state: stepping it is
//
//	tap--; feed--            // mod 607, starting at tap=0, feed=334
//	x := vec[feed] + vec[tap]
//	vec[feed] = x            // x is also the output
//
// so after exactly 607 draws the tap/feed cursors are back at their initial
// positions and every ring slot has been overwritten exactly once — with the
// draw outputs themselves, at known positions. The first 607 outputs of a
// seed therefore ARE the generator state: a clone can replay them verbatim
// and then reconstruct the ring by permutation and continue the trivial
// additive recurrence. cachedSource implements exactly that, reproducing
// rand.NewSource(seed)'s stream bit-for-bit at a fraction of the
// construction cost for repeated seeds.
const (
	lfibLen  = 607 // ring length of math/rand's lagged-Fibonacci source
	lfibFeed = 334 // initial feed cursor (lfibLen - tap offset 273)
	// verifySteps is the runtime self-check depth: a reconstructed clone is
	// stepped this many draws against the genuine source at cache-fill time.
	// Any divergence (e.g. a hypothetical future change to math/rand's
	// algorithm) permanently disables the cache and every simulator falls
	// back to plain rand.NewSource.
	verifySteps = 128
	// rngCacheCap bounds cache memory (~5 KiB per entry). On overflow the
	// whole cache is dropped; recent seeds then re-cache on demand.
	rngCacheCap = 512
)

// seedState is the immutable cached seeding result: the first lfibLen
// outputs of rand.NewSource(seed), shared by every simulator with that seed.
type seedState struct {
	out [lfibLen]uint64
}

var rngCache = struct {
	mu       sync.RWMutex
	m        map[int64]*seedState
	disabled bool
}{m: make(map[int64]*seedState)}

// cachedSource is a rand.Source64 that replays a seedState's buffered
// outputs and then continues the lagged-Fibonacci recurrence from the
// reconstructed ring. It is not safe for concurrent use, matching
// math/rand's own sources.
type cachedSource struct {
	st   *seedState
	pos  int  // replay cursor into st.out
	live bool // ring reconstructed, stepping the recurrence
	tap  int
	feed int
	// vec is the generator ring, allocated by activate: a characterization
	// row platform draws fewer than lfibLen values and never needs it.
	vec *[lfibLen]int64
	// raw, when non-nil, delegates everything to a stock source. Only Seed
	// can set it, and only after cache verification has failed globally.
	raw rand.Source
}

// newCachedSource returns a source producing rand.NewSource(seed)'s exact
// stream. It returns a cachedSource when the seeding result is (or can be)
// cached and verified, otherwise the stock source itself.
func newCachedSource(seed int64) rand.Source {
	if st := stateFor(seed); st != nil {
		return &cachedSource{st: st}
	}
	return rand.NewSource(seed)
}

// stateFor returns the cached seeding result for seed, filling and
// verifying the cache entry on first use. It returns nil when the cache is
// disabled (verification failed, or the stock source stopped implementing
// Source64).
func stateFor(seed int64) *seedState {
	rngCache.mu.RLock()
	st, ok := rngCache.m[seed]
	disabled := rngCache.disabled
	rngCache.mu.RUnlock()
	if ok {
		return st
	}
	if disabled {
		return nil
	}

	src, ok64 := rand.NewSource(seed).(rand.Source64)
	if !ok64 {
		disableRNGCache()
		return nil
	}
	st = &seedState{}
	for i := range st.out {
		st.out[i] = src.Uint64()
	}
	// Self-check: the reconstructed ring must continue the genuine stream.
	probe := &cachedSource{st: st, pos: lfibLen}
	probe.activate()
	for i := 0; i < verifySteps; i++ {
		if probe.Uint64() != src.Uint64() {
			disableRNGCache()
			return nil
		}
	}

	rngCache.mu.Lock()
	if rngCache.disabled {
		rngCache.mu.Unlock()
		return nil
	}
	if len(rngCache.m) >= rngCacheCap {
		rngCache.m = make(map[int64]*seedState)
	}
	rngCache.m[seed] = st
	rngCache.mu.Unlock()
	return st
}

func disableRNGCache() {
	rngCache.mu.Lock()
	rngCache.disabled = true
	rngCache.m = nil
	rngCache.mu.Unlock()
}

// activate reconstructs the generator ring from the buffered outputs. Draw k
// writes output o_k into slot (333-k) mod 607, and 607 consecutive draws
// touch every slot exactly once, so:
//
//	vec[j] = o[333-j]  for j in [0, 333]
//	vec[j] = o[940-j]  for j in [334, 606]
//
// with the cursors back at their initial positions.
func (s *cachedSource) activate() {
	s.vec = new([lfibLen]int64)
	for j := 0; j <= 333; j++ {
		s.vec[j] = int64(s.st.out[333-j])
	}
	for j := 334; j < lfibLen; j++ {
		s.vec[j] = int64(s.st.out[940-j])
	}
	s.tap, s.feed = 0, lfibFeed
	s.live = true
}

// Uint64 produces the next value of rand.NewSource(seed)'s stream.
func (s *cachedSource) Uint64() uint64 {
	if s.raw != nil {
		if s64, ok := s.raw.(rand.Source64); ok {
			return s64.Uint64()
		}
		// Degraded path for a hypothetical plain source: synthesize 64 bits
		// the way rand.Rand itself does.
		return uint64(s.raw.Int63())>>31 | uint64(s.raw.Int63())<<32
	}
	if !s.live {
		if s.pos < lfibLen {
			v := s.st.out[s.pos]
			s.pos++
			return v
		}
		s.activate()
	}
	s.tap--
	if s.tap < 0 {
		s.tap += lfibLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += lfibLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 matches math/rand's source: the low 63 bits of Uint64.
func (s *cachedSource) Int63() int64 {
	if s.raw != nil {
		return s.raw.Int63()
	}
	return int64(s.Uint64() &^ (1 << 63))
}

// Seed resets the source to the start of seed's stream.
func (s *cachedSource) Seed(seed int64) {
	if st := stateFor(seed); st != nil {
		*s = cachedSource{st: st}
		return
	}
	// Cache disabled: delegate to the stock source from here on.
	*s = cachedSource{raw: rand.NewSource(seed)}
}
