package phy

import (
	"container/list"
	"math"
	"sync"
)

// topology is everything a Medium derives from geometry and the radio
// config: received powers, audible sets, and the per-receiver weakest
// powers behind the capture certificate (see Medium.decodes). It is
// immutable once built, holds no pointers into any one run, and so is
// shared read-only by every Medium — on any goroutine — whose layout and
// propagation parameters match (see topoCache).
type topology struct {
	k int // node count

	// rxMw[i*k+j] is the linear received power (mW) at node j for a
	// transmission from node i, folding the constant transmit power into
	// the path-loss gain; the diagonal is zero. Reception decisions run
	// once per (frame, receiver) and interference sweeps once per (frame,
	// receiver, interferer), so the dBm-to-mW conversions must not be
	// recomputed per call — math.Pow was >80% of the simulator's CPU
	// profile before this matrix.
	rxMw []float64

	// audIdx[audOff[i]:audOff[i+1]] lists, in node-ID order, the nodes
	// that can hear node i: received power at or above the carrier-sense
	// threshold. Carrier-sense edges and FrameEnd delivery iterate these
	// sets instead of all k nodes, which keeps per-transmission work
	// proportional to the audible population in large, sparse topologies.
	audOff []int32
	audIdx []int32

	// weak1[j] and weak2[j] are the two smallest received powers at node j
	// over sources i != j (weak2 == weak1 on a tie, +Inf when k < 3), and
	// weak1Src[j] is the source giving weak1[j]. They bound any single
	// interferer's power from below for the capture certificate.
	weak1, weak2 []float64
	weak1Src     []int32

	bytes int64 // retained size, for the cache's byte bound
}

// audible returns the indices of the nodes that can carrier-sense a
// transmission from node src, excluding src itself, in node-ID order.
func (t *topology) audible(src int) []int32 {
	return t.audIdx[t.audOff[src]:t.audOff[src+1]]
}

// weakestOther returns the smallest received power at node n over sources
// other than n and src: a lower bound on what any one interferer of a
// frame from src contributes at n.
func (t *topology) weakestOther(n, src int) float64 {
	if int(t.weak1Src[n]) == src {
		return t.weak2[n]
	}
	return t.weak1[n]
}

// buildTopology derives the topology of nodes at ps under cfg.
func buildTopology(cfg *Config, ps []Position) *topology {
	k := len(ps)
	txMw := cfg.TxPower.MilliWatt()
	csMw := cfg.CSThreshold.MilliWatt()
	t := &topology{
		k:        k,
		rxMw:     make([]float64, k*k),
		audOff:   make([]int32, k+1),
		weak1:    make([]float64, k),
		weak2:    make([]float64, k),
		weak1Src: make([]int32, k),
	}
	for i := 0; i < k; i++ {
		row := t.rxMw[i*k : (i+1)*k]
		for j := range row {
			if i != j {
				row[j] = txMw * DB(-cfg.PathLoss.Loss(ps[i].DistanceTo(ps[j]))).Ratio()
			}
		}
	}
	// Audible sets, in node-ID order (which keeps callback order identical
	// to an all-nodes scan), appended to one flat slice: O(1) allocations.
	for i := 0; i < k; i++ {
		for j, mw := range t.rxMw[i*k : (i+1)*k] {
			if mw >= csMw {
				t.audIdx = append(t.audIdx, int32(j))
			}
		}
		t.audOff[i+1] = int32(len(t.audIdx))
	}
	for j := 0; j < k; j++ {
		w1, w2, src := math.Inf(1), math.Inf(1), int32(-1)
		for i := 0; i < k; i++ {
			if i == j {
				continue
			}
			mw := t.rxMw[i*k+j]
			if math.IsNaN(mw) {
				// A NaN power (a NaN position) is unordered, so no lower
				// bound holds; 0 keeps the certificate from ever firing.
				mw = 0
			}
			switch {
			case mw < w1:
				w1, w2, src = mw, w1, int32(i)
			case mw < w2:
				w2 = mw
			}
		}
		t.weak1[j], t.weak2[j], t.weak1Src[j] = w1, w2, src
	}
	t.bytes = int64(8*len(t.rxMw) + 4*(len(t.audOff)+cap(t.audIdx)) + (8+8+4)*k)
	return t
}

// sharedTopologies is the process-wide topology cache every Medium draws
// from. Its 32 MiB bound holds every layout of the paper's figure grid
// (n <= 150: under 0.4 MB each) many times over; a topology larger than
// the bound is built per Medium and never retained, so a long-running
// process fed ever-larger layouts stays bounded.
var sharedTopologies = newTopoCache(32 << 20)

// topoKey is the scalar part of buildTopology's input; the node positions
// complete it (topoEntry.pos). Floats are kept as their bit patterns, and
// positions compare by bits too, so equality means "buildTopology computes
// the same thing": -0 and +0 differ, and a NaN matches only itself.
type topoKey struct {
	txPower, noise, cs uint64
	loss               lossKey
}

// lossKey identifies a path-loss model by kind and parameter bits.
type lossKey struct {
	kind    uint8 // 1 LogDistance, 2 FixedLoss
	a, b, c uint64
}

// cacheKey keys cfg when its path-loss model is known to be a pure,
// comparable value: LogDistance or FixedLoss. Anything else — a user type
// that may keep state, read a clock, or hold a pointer — reports false
// and is built uncached.
func cacheKey(cfg *Config) (topoKey, bool) {
	key := topoKey{
		txPower: math.Float64bits(float64(cfg.TxPower)),
		noise:   math.Float64bits(float64(cfg.NoiseFloor)),
		cs:      math.Float64bits(float64(cfg.CSThreshold)),
	}
	switch v := cfg.PathLoss.(type) {
	case LogDistance:
		key.loss = lossKey{1, math.Float64bits(v.Exponent), math.Float64bits(v.ReferenceDist),
			math.Float64bits(float64(v.ReferenceLoss))}
	case FixedLoss:
		key.loss = lossKey{kind: 2, a: math.Float64bits(float64(v))}
	default:
		return topoKey{}, false
	}
	return key, true
}

// hash is FNV-1a over the key's and the positions' words; it only picks
// the bucket.
func (k topoKey) hash(ps []Position) uint64 {
	h := uint64(14695981039346656037)
	for _, w := range [...]uint64{k.txPower, k.noise, k.cs, uint64(k.loss.kind), k.loss.a, k.loss.b, k.loss.c} {
		h = (h ^ w) * 1099511628211
	}
	for _, p := range ps {
		h = (h ^ math.Float64bits(p.X)) * 1099511628211
		h = (h ^ math.Float64bits(p.Y)) * 1099511628211
	}
	return h
}

// samePositions compares two layouts bit for bit.
func samePositions(a, b []Position) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].X) != math.Float64bits(b[i].X) ||
			math.Float64bits(a[i].Y) != math.Float64bits(b[i].Y) {
			return false
		}
	}
	return true
}

// topoCache is a content-addressed, byte-bounded LRU of topologies. Keys
// compare exactly; the hash only selects a bucket. Entries are immutable,
// so eviction never changes a result: an evicted topology is rebuilt
// bit-identically on next use.
type topoCache struct {
	maxBytes int64

	mu      sync.Mutex
	buckets map[uint64][]*list.Element
	lru     list.List // of *topoEntry, most recently used at the front
	bytes   int64     // retained size of every entry
}

type topoEntry struct {
	hash uint64
	key  topoKey
	pos  []Position
	topo *topology
}

// size is the entry's retained size: the topology plus the position copy.
func (e *topoEntry) size() int64 { return e.topo.bytes + int64(16*len(e.pos)) }

func newTopoCache(maxBytes int64) *topoCache {
	return &topoCache{maxBytes: maxBytes, buckets: map[uint64][]*list.Element{}}
}

// topologyFor returns the topology of nodes at ps under cfg: shared from
// the cache when an identical one is retained, otherwise freshly built and
// retained if cacheable and within the byte bound. The cache may keep ps
// as its copy of the layout, so the caller must not modify it afterwards.
func (c *topoCache) topologyFor(cfg *Config, ps []Position) *topology {
	key, ok := cacheKey(cfg)
	if !ok {
		return buildTopology(cfg, ps)
	}
	h := key.hash(ps)
	c.mu.Lock()
	t := c.lookupLocked(h, key, ps)
	c.mu.Unlock()
	if t != nil {
		return t
	}

	// Build outside the lock: concurrent misses on one key may both build,
	// and the later one adopts the earlier one's bit-identical topology.
	e := &topoEntry{hash: h, key: key, pos: ps, topo: buildTopology(cfg, ps)}
	if e.size() > c.maxBytes {
		return e.topo
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if prior := c.lookupLocked(h, key, ps); prior != nil {
		return prior
	}
	for c.bytes+e.size() > c.maxBytes {
		c.evictLocked()
	}
	c.buckets[h] = append(c.buckets[h], c.lru.PushFront(e))
	c.bytes += e.size()
	return e.topo
}

func (c *topoCache) lookupLocked(h uint64, key topoKey, ps []Position) *topology {
	for _, el := range c.buckets[h] {
		if e := el.Value.(*topoEntry); e.key == key && samePositions(e.pos, ps) {
			c.lru.MoveToFront(el)
			return e.topo
		}
	}
	return nil
}

// evictLocked drops the least recently used entry.
func (c *topoCache) evictLocked() {
	el := c.lru.Back()
	e := c.lru.Remove(el).(*topoEntry)
	b := c.buckets[e.hash]
	for i := range b {
		if b[i] == el {
			b = append(b[:i], b[i+1:]...)
			break
		}
	}
	if len(b) == 0 {
		delete(c.buckets, e.hash)
	} else {
		c.buckets[e.hash] = b
	}
	c.bytes -= e.size()
}
