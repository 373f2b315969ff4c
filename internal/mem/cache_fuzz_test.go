package mem

import (
	"reflect"
	"testing"

	"espsim/internal/trace"
)

// refLine is one resident line of the reference cache.
type refLine struct {
	tag        uint64
	dirty      bool
	prefetched bool
}

// refCache is the naive model Cache is checked against: each set is a
// slice of resident lines in recency order (index 0 = MRU), searched
// linearly, with no sentinel tags and no fast paths.
type refCache struct {
	sets     [][]refLine
	ways     int
	setShift uint
	stats    CacheStats
}

func newRefCache(sizeBytes, ways int) *refCache {
	nSets := sizeBytes / (ways * trace.LineBytes)
	r := &refCache{sets: make([][]refLine, nSets), ways: ways}
	for 1<<r.setShift < nSets {
		r.setShift++
	}
	return r
}

func (r *refCache) locate(addr uint64) (set int, tag uint64, way int) {
	blk := addr >> 6
	set = int(blk & uint64(len(r.sets)-1))
	tag = blk >> r.setShift
	for w, l := range r.sets[set] {
		if l.tag == tag {
			return set, tag, w
		}
	}
	return set, tag, -1
}

// insert puts a new line at MRU, evicting the LRU line of a full set.
func (r *refCache) insert(set int, l refLine) (evictedDirty bool) {
	lines := r.sets[set]
	if len(lines) == r.ways {
		if lines[len(lines)-1].dirty {
			evictedDirty = true
			r.stats.DirtyEvictions++
		}
		lines = lines[:len(lines)-1]
	}
	r.sets[set] = append([]refLine{l}, lines...)
	return evictedDirty
}

func (r *refCache) access(addr uint64, write bool) bool {
	r.stats.Accesses++
	set, tag, w := r.locate(addr)
	if w < 0 {
		r.stats.Misses++
		r.insert(set, refLine{tag: tag, dirty: write})
		return false
	}
	l := r.sets[set][w]
	if l.prefetched {
		r.stats.PrefetchUseful++
		l.prefetched = false
	}
	l.dirty = l.dirty || write
	lines := append(r.sets[set][:w:w], r.sets[set][w+1:]...)
	r.sets[set] = append([]refLine{l}, lines...)
	return true
}

func (r *refCache) probe(addr uint64) bool {
	_, _, w := r.locate(addr)
	return w >= 0
}

func (r *refCache) install(addr uint64, prefetch bool) bool {
	set, tag, w := r.locate(addr)
	if w >= 0 {
		return false
	}
	if prefetch {
		r.stats.PrefetchInstalls++
	}
	return r.insert(set, refLine{tag: tag, prefetched: prefetch})
}

func (r *refCache) markDirty(addr uint64) {
	if set, _, w := r.locate(addr); w >= 0 {
		r.sets[set][w].dirty = true
	}
}

func (r *refCache) clear() {
	for s := range r.sets {
		r.sets[s] = nil
	}
}

func (r *refCache) lines() []uint64 {
	var out []uint64
	for s, lines := range r.sets {
		for _, l := range lines {
			out = append(out, (l.tag<<r.setShift|uint64(s))<<6)
		}
	}
	return out
}

// FuzzCacheMatchesReference drives Cache and the naive reference model
// with the same operation stream and requires the same hit/miss
// answers, dirty-eviction flags, statistics and resident lines (in
// order) after every operation. The first two bytes pick the geometry;
// every following three bytes are one operation on one address.
func FuzzCacheMatchesReference(f *testing.F) {
	f.Add([]byte{1, 1, 0, 0, 0, 0, 8, 0, 1, 16, 0, 3, 0, 0})
	f.Add([]byte{2, 0, 4, 3, 0, 0, 3, 0, 0, 40, 0, 1, 3, 0, 2, 3, 0})
	f.Add([]byte{3, 2, 1, 5, 0x80, 1, 21, 0xff, 4, 5, 0x80, 0, 37, 0, 6, 0, 0, 2, 5, 0x80})
	f.Add([]byte{0, 3, 0, 1, 0, 0, 1, 0, 1, 1, 0, 5, 1, 0, 0, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		ways := []int{1, 2, 4, 16}[data[0]%4]
		sets := 1 << (data[1] % 4)
		size := sets * ways * trace.LineBytes
		c, err := NewCache("fuzz", size, ways)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefCache(size, ways)
		for i, ops := 0, data[2:]; len(ops) >= 3; i, ops = i+1, ops[3:] {
			// ways+2 candidate lines per set, so sets fill, hit and evict;
			// the third byte gives the offset within the line, and its high
			// bit moves the line far up the address space (large tags).
			line := int(ops[1]) % (sets * (ways + 2))
			addr := uint64(line)*trace.LineBytes + uint64(ops[2]&0x3f)
			if ops[2]&0x80 != 0 {
				addr |= 0xfff << 52
			}
			var got, want bool
			switch op := ops[0] % 7; op {
			case 0, 1:
				got, want = c.Access(addr, op == 1), ref.access(addr, op == 1)
			case 2:
				got, want = c.Probe(addr), ref.probe(addr)
			case 3, 4:
				got, want = c.Install(addr, op == 4), ref.install(addr, op == 4)
			case 5:
				c.MarkDirty(addr)
				ref.markDirty(addr)
			case 6:
				c.Clear()
				ref.clear()
			}
			if got != want {
				t.Fatalf("op %d (%d on %#x): cache returned %v, reference %v", i, ops[0]%7, addr, got, want)
			}
			if c.Stats != ref.stats {
				t.Fatalf("op %d (%d on %#x): stats %+v, reference %+v", i, ops[0]%7, addr, c.Stats, ref.stats)
			}
			if gl, wl := c.Lines(), ref.lines(); !reflect.DeepEqual(gl, wl) {
				t.Fatalf("op %d (%d on %#x): lines %#x, reference %#x", i, ops[0]%7, addr, gl, wl)
			}
		}
	})
}
