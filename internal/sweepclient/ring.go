package sweepclient

// ring.go — the fleet's consistent-hash ring. Every sweep point owns a
// canonical sha256 hash (spec.CanonicalHash), and the ring maps that
// hash to one daemon of the current healthy membership. Consistent
// hashing keeps the mapping stable under membership change: when a
// daemon dies or recovers, only the points it owned (plus a small
// bounded-load spill) move, so a mid-sweep failover re-submits the dead
// shard's unfinished points and nothing else.
//
// The ring is the bounded-load variant: a plain consistent hash can
// assign one member far more than its share (hash ranges are uneven),
// which turns the slowest daemon into the sweep's critical path. Assign
// therefore caps each member at ceil(loadFactor · points / members)
// (half that for a saturated member) and walks a capped point clockwise
// to the next member with room — load never exceeds the cap, and the
// walk preserves determinism because it depends only on the ring
// layout and the point order.

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"math"
	"sort"
	"strconv"
)

const (
	// ringReplicas is the virtual-node count per member; more replicas
	// smooth the hash-range imbalance between members.
	ringReplicas = 128
	// loadFactor is the bounded-load factor c: no member is assigned
	// more than ceil(c · points / members) points.
	loadFactor = 1.25
)

// Ring is a bounded-load consistent-hash ring over a fixed membership.
// Build one per round from the currently healthy members; construction
// is deterministic in the member set (order-insensitive).
type Ring struct {
	members []string // sorted unique
	slots   []ringSlot
}

// ringSlot is one virtual node: a point on the hash circle owned by a
// member.
type ringSlot struct {
	hash   uint64
	member int // index into members
}

// NewRing builds a ring over members. Duplicate members collapse; the
// member order does not matter.
func NewRing(members []string) (*Ring, error) {
	if len(members) == 0 {
		return nil, errors.New("sweepclient: ring needs at least one member")
	}
	uniq := make([]string, 0, len(members))
	seen := make(map[string]bool, len(members))
	for _, m := range members {
		if !seen[m] {
			seen[m] = true
			uniq = append(uniq, m)
		}
	}
	sort.Strings(uniq)
	r := &Ring{members: uniq}
	r.slots = make([]ringSlot, 0, len(uniq)*ringReplicas)
	for mi, m := range uniq {
		for v := 0; v < ringReplicas; v++ {
			r.slots = append(r.slots, ringSlot{hash: hash64(m + "#" + strconv.Itoa(v)), member: mi})
		}
	}
	// Ties (astronomically unlikely) break by member index so the layout
	// is a pure function of the membership.
	sort.Slice(r.slots, func(i, j int) bool {
		if r.slots[i].hash != r.slots[j].hash {
			return r.slots[i].hash < r.slots[j].hash
		}
		return r.slots[i].member < r.slots[j].member
	})
	return r, nil
}

// Owner returns the unbounded owner of a point hash: the member of the
// first slot at or clockwise of the hash. Removing another member never
// changes a point's owner (minimal movement); Assign adds the load
// bound on top.
func (r *Ring) Owner(pointHash string) string {
	return r.members[r.slots[r.slotAt(pointHash)].member]
}

// slotAt locates the first slot at or clockwise of the hash.
func (r *Ring) slotAt(pointHash string) int {
	h := hash64(pointHash)
	i := sort.Search(len(r.slots), func(i int) bool { return r.slots[i].hash >= h })
	if i == len(r.slots) {
		i = 0 // wrap
	}
	return i
}

// Assign shards the point hashes across the membership with bounded
// load and returns, per member, the indexes (into hashes) it owns. Every
// member's cap is ceil(loadFactor·n/m); a member in saturated gets half
// of it (at least 1). Caps are raised uniformly if their sum cannot fit
// every point, so every point is always assigned. The result is
// deterministic in (membership, hashes, saturated).
func (r *Ring) Assign(hashes []string, saturated map[string]bool) map[string][]int {
	m := len(r.members)
	base := int(math.Ceil(loadFactor * float64(len(hashes)) / float64(m)))
	if base < 1 {
		base = 1
	}
	limit := make([]int, m)
	total := 0
	for i, member := range r.members {
		limit[i] = base
		if saturated[member] {
			limit[i] = max(base/2, 1)
		}
		total += limit[i]
	}
	// Make sure the caps can hold every point: raise all caps evenly
	// rather than failing — the bound shapes balance, it must never
	// strand a point.
	for total < len(hashes) {
		for i := range limit {
			limit[i]++
			total++
		}
	}

	load := make([]int, m)
	out := make(map[string][]int, m)
	for pi, ph := range hashes {
		start := r.slotAt(ph)
		for off := 0; ; off++ {
			slot := r.slots[(start+off)%len(r.slots)]
			if load[slot.member] >= limit[slot.member] {
				continue
			}
			load[slot.member]++
			member := r.members[slot.member]
			out[member] = append(out[member], pi)
			break
		}
	}
	return out
}

// hash64 maps a string to a point on the 64-bit hash circle. sha256 is
// already the canonical point identity, so the ring inherits its
// uniformity; member virtual nodes go through the same function.
func hash64(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}
