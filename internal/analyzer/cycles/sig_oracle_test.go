package cycles

// Signature oracle: the sorted-slice signature code the bitmask kernel
// replaced, kept as the reference the mask versions must reproduce
// exactly (hash, Jaccard similarity and majority set).

import (
	"math/bits"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/celltrace/pdt/internal/core/event"
)

// oracleSig collects the sorted distinct eligible IDs of ids.
func oracleSig(ids []event.ID) []event.ID {
	seen := map[event.ID]bool{}
	var sig []event.ID
	for _, id := range ids {
		if seen[id] {
			continue
		}
		seen[id] = true
		if eligible(id) {
			sig = append(sig, id)
		}
	}
	sort.Slice(sig, func(i, j int) bool { return sig[i] < sig[j] })
	return sig
}

// oracleMajority is the IDs present in at least half of (and at least
// two of) the signatures, sorted.
func oracleMajority(sigs [][]event.ID) []event.ID {
	counts := map[event.ID]int{}
	for _, sig := range sigs {
		for _, id := range sig {
			counts[id]++
		}
	}
	var maj []event.ID
	for id, c := range counts {
		if c >= 2 && c*2 >= len(sigs) {
			maj = append(maj, id)
		}
	}
	sort.Slice(maj, func(i, j int) bool { return maj[i] < maj[j] })
	return maj
}

// oracleJaccard is |a∩b| / |a∪b| over two sorted ID slices.
func oracleJaccard(a, b []event.ID) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	inter, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			inter++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return float64(inter) / float64(len(a)+len(b)-inter)
}

// oracleSigHash is FNV-1a over the sorted ID slice.
func oracleSigHash(sig []event.ID) uint64 {
	h := uint64(14695981039346656037)
	for _, id := range sig {
		h ^= uint64(id) & 0xff
		h *= 1099511628211
		h ^= uint64(id) >> 8
		h *= 1099511628211
	}
	return h
}

// maskIDs lists a mask's IDs in ascending order.
func maskIDs(m uint64) []event.ID {
	var ids []event.ID
	for ; m != 0; m &= m - 1 {
		ids = append(ids, event.ID(bits.TrailingZeros64(m)))
	}
	return ids
}

// TestSignatureMasksMatchOracle draws random ID sequences — known IDs
// of every group, overhead and lifecycle included, plus unknown IDs
// inside and beyond the 64-bit mask range — cuts each into random
// cycles, and checks the mask signatures against the slice oracle.
func TestSignatureMasksMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	unknown := []event.ID{0, event.MaxID, idBits - 1, idBits, 300, 0xffff}
	excluded := []event.ID{event.SPEProgramStart, event.SPEProgramEnd, event.StringDef,
		event.SPETraceFlush, event.LiveAnchor}
	draw := func() event.ID {
		switch rng.Intn(8) {
		case 0:
			return unknown[rng.Intn(len(unknown))]
		case 1:
			return excluded[rng.Intn(len(excluded))]
		}
		return event.ID(1 + rng.Intn(int(event.MaxID)-1))
	}
	for trial := 0; trial < 2000; trial++ {
		ids := make([]event.ID, 1+rng.Intn(200))
		// A small alphabet per trial, so IDs repeat across cycles and
		// majority sets are non-trivial.
		alphabet := make([]event.ID, 1+rng.Intn(12))
		for i := range alphabet {
			alphabet[i] = draw()
		}
		for i := range ids {
			ids[i] = alphabet[rng.Intn(len(alphabet))]
		}
		cuts := []int{0}
		for i := 1; i < len(ids); i++ {
			if rng.Intn(6) == 0 {
				cuts = append(cuts, i)
			}
		}
		cuts = append(cuts, len(ids))

		var sets [][]event.ID
		var masks []uint64
		var counts [idBits]int
		for c := 0; c+1 < len(cuts); c++ {
			seg := ids[cuts[c]:cuts[c+1]]
			sets = append(sets, oracleSig(seg))
			var m uint64
			for _, id := range seg {
				m |= idBit(id)
			}
			masks = append(masks, m)
			for b := m; b != 0; b &= b - 1 {
				counts[bits.TrailingZeros64(b)]++
			}
		}
		wantMaj := oracleMajority(sets)
		maj := majority(&counts, len(masks))
		if got := maskIDs(maj); !reflect.DeepEqual(got, wantMaj) {
			t.Fatalf("trial %d: majority %v, oracle %v", trial, got, wantMaj)
		}
		for c := range masks {
			if got, want := maskIDs(masks[c]), sets[c]; !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d cycle %d: mask IDs %v, oracle %v", trial, c, got, want)
			}
			if got, want := sigHash(masks[c]), oracleSigHash(sets[c]); got != want {
				t.Fatalf("trial %d cycle %d: hash %#x, oracle %#x", trial, c, got, want)
			}
			if got, want := jaccard(masks[c], maj), oracleJaccard(sets[c], wantMaj); got != want {
				t.Fatalf("trial %d cycle %d: jaccard %v, oracle %v", trial, c, got, want)
			}
			o := masks[(c+1)%len(masks)]
			if got, want := jaccard(masks[c], o), oracleJaccard(sets[c], maskIDs(o)); got != want {
				t.Fatalf("trial %d cycle %d: pairwise jaccard %v, oracle %v", trial, c, got, want)
			}
		}
	}
}
