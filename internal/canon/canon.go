// Package canon computes a canonical form and a stable digest for
// comparator networks, so that structurally equivalent networks — the
// same circuit written down differently — share one identity. The
// serving layer (internal/serve) keys its result cache on this digest:
// two requests that differ only in presentation hit the same entry.
//
// Two sources of presentational freedom are normalized away:
//
//   - Ordering within a layer. Comparators on disjoint lines commute,
//     so any interleaving of a parallel layer computes the same
//     function. Normalize recomputes the greedy layer schedule (the
//     one Depth/Layers and the compiled engine use) and sorts each
//     layer's comparators by line, which is a fixpoint: normalizing a
//     normalized network changes nothing.
//   - Orientation, for generalized inputs. A "tangled" network writes
//     comparators with the max output on the top wire. Untangle
//     relabels lanes forward through the circuit (the classical
//     Floyd–Knuth standardization) so every comparator is standard;
//     the residual output permutation it reports is the exact
//     correction term, and is the identity precisely when the tangled
//     writing computes the same function as its standard form.
//
// Both transforms preserve the computed function exactly (Untangle up
// to its reported output relabeling), so a verdict computed for the
// canonical form is byte-for-byte the verdict of the submitted
// network — the property that makes digest-keyed caching sound.
package canon

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"sortnets/internal/network"
)

// Normalize returns the canonical presentation of a standard network:
// comparators are grouped into their greedy data-independent layers
// (exactly the schedule network.Layers computes) and ordered by
// (A, B) within each layer. The result computes the same function as
// w on every input — comparators within a layer touch disjoint lines,
// so they commute — and Normalize is a fixpoint: applying it twice
// yields the same comparator sequence. w is not modified. It panics
// like network.Add on a nonstandard or out-of-range comparator.
func Normalize(w *network.Network) *network.Network {
	out := network.New(w.N)
	out.Comps = w.CanonicalOrder()
	return out
}

// Untangle standardizes a generalized comparator sequence on n lines.
// Each pair (i, j) is a comparator that places the MIN on line i and
// the MAX on line j — standard when i < j, tangled when i > j. The
// relabeling sweep keeps a lane map r (initially the identity): a
// tangled comparator is emitted in standard orientation and the two
// lanes swap names for everything downstream.
//
// The returned network S and permutation r satisfy, for every input
// x and every line l:
//
//	G(x)[l] == S(x)[r[l]]
//
// where G is the submitted generalized circuit. When r is the
// identity, G and S compute the same function and S (after Normalize)
// can stand in for G everywhere. When r is not the identity, G is not
// equivalent to any standard network — in particular it cannot be a
// sorter, since a standard network fixes sorted inputs and forces the
// residual permutation of any sorter to be the identity.
//
// Untangle returns an error if any pair references a line outside
// [0, n) or touches a line twice (i == j).
func Untangle(n int, pairs [][2]int) (*network.Network, []int, error) {
	r := make([]int, n)
	for i := range r {
		r[i] = i
	}
	comps := make([]network.Comparator, len(pairs))
	for idx, p := range pairs {
		i, j := p[0], p[1]
		if i < 0 || j < 0 || i >= n || j >= n || i == j {
			return nil, nil, fmt.Errorf("canon: comparator %d (%d,%d) invalid on %d lines", idx, i, j, n)
		}
		// r is a permutation of [0, n) and i != j, so a and b are
		// distinct lines in range: the emitted comparator is standard.
		a, b := r[i], r[j]
		if a < b {
			comps[idx] = network.Comparator{A: a, B: b}
		} else {
			// Tangled: emit the standard orientation and swap the lane
			// names so downstream comparators (and the outputs) follow.
			comps[idx] = network.Comparator{A: b, B: a}
			r[i], r[j] = b, a
		}
	}
	s := network.New(n)
	s.Comps = comps
	return s, r, nil
}

// IsIdentity reports whether a lane relabeling is the identity.
func IsIdentity(r []int) bool {
	for i, v := range r {
		if i != v {
			return false
		}
	}
	return true
}

// digestVersion tags the digest format; bump it if the canonical
// form or the encoding ever changes, so stale cache keys can never
// alias fresh ones.
const digestVersion = "sortnets-canon-v1"

// Digest returns a stable SHA-256 digest of the network's canonical
// form: any two standard networks whose normalized comparator
// sequences agree share a digest, regardless of how their parallel
// layers were interleaved at submission.
func Digest(w *network.Network) [sha256.Size]byte {
	return digestNormalized(Normalize(w))
}

// Canonicalize returns the canonical form and its hex digest in one
// pass — the serving layer's entry point, which needs both and should
// not pay for normalizing twice.
func Canonicalize(w *network.Network) (*network.Network, string) {
	c := Normalize(w)
	return c, hexDigest(digestNormalized(c))
}

// digestNormalized hashes an already-canonical network: the version
// tag, then N, the comparator count and each comparator's A and B as
// uvarints. The encoding is built in a stack buffer, which holds about
// 490 comparators on fewer than 128 lines; a longer one grows onto the
// heap.
func digestNormalized(c *network.Network) [sha256.Size]byte {
	var scratch [1024]byte
	buf := append(scratch[:0], digestVersion...)
	buf = binary.AppendUvarint(buf, uint64(c.N))
	buf = binary.AppendUvarint(buf, uint64(len(c.Comps)))
	for _, cmp := range c.Comps {
		buf = binary.AppendUvarint(buf, uint64(cmp.A))
		buf = binary.AppendUvarint(buf, uint64(cmp.B))
	}
	return sha256.Sum256(buf)
}

// hexDigest renders a digest as lowercase hex, allocating only the
// returned string.
func hexDigest(d [sha256.Size]byte) string {
	var out [2 * sha256.Size]byte
	hex.Encode(out[:], d[:])
	return string(out[:])
}

// DigestString is Digest rendered as lowercase hex — the cache-key
// form used by the serving layer.
func DigestString(w *network.Network) string {
	return hexDigest(Digest(w))
}
