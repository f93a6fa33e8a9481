package sortnets

import (
	"testing"

	"sortnets/internal/canon"
	"sortnets/internal/gen"
	"sortnets/internal/network"
)

// TestCanonicalDigestGolden pins the canonical digest, which is at once
// the verdict-cache key, the cluster ring's routing key and the peer
// fill key: a change to the canonical form or to its encoding would
// silently split every cache and reroute every request. The values
// must never move without a digestVersion bump.
func TestCanonicalDigestGolden(t *testing.T) {
	const (
		fig1   = "dbcd1a0daac85cc4d8f029d7ce8c1a952199787d52a0575e215f0a9292cc7991"
		random = "c84a36e26c9c074fe19f3af21b87bd1fe68ea641f7233fd7f70c50c93991b8cd"
		empty  = "ea868d7ce4cabec86362ba62490d8d803ca9566095317633e0d67671e138542a"
		half96 = "07f9cb2bc2ea0d5f236250346e7f201e30844230a0a4b718a588eddbba13c151"
		tangle = "16facf52f2c60b7a0082bd4f5342aa4ca19d5ed6dc3b9ec580cf23e7b0bd2207"
	)
	cases := []struct {
		name string
		text string // network text, or "" for the comparator form below
		want string
	}{
		{"fig1", "n=4: [1,3][2,4][1,2][3,4]", fig1},
		// network.Random(8, 19, rand.New(rand.NewSource(13))).
		{"random-n8", "n=8: [5,6][5,6][7,8][6,8][2,3][6,8][3,4][1,3][2,6][7,8][5,6][4,8][5,8][1,4][5,7][2,5][1,8][4,6][4,7]", random},
		// The same circuit with every greedy layer written in reverse.
		{"random-n8-reordered", "n=8: [2,3][7,8][5,6][3,4][5,6][1,3][6,8][6,8][7,8][2,6][4,8][5,6][1,4][5,8][4,6][1,8][5,7][4,7][2,5]", random},
		{"empty", "n=6:", empty},
		{"half-merger-96", gen.HalfMerger(96).Format(), half96},
		// The standard network the comparator form below untangles to.
		{"untangled-text", "n=4: [1,2][1,2][3,4][3,4][3,4][1,3][2,4][2,3]", tangle},
	}
	for _, tc := range cases {
		if got := canon.DigestString(network.MustParse(tc.text)); got != tc.want {
			t.Errorf("%s: DigestString = %s, want %s", tc.name, got, tc.want)
		}
		if got, ok := (&Request{Op: "verify", Network: tc.text}).ShardKey(); !ok || got != tc.want {
			t.Errorf("%s: ShardKey = %s, %v, want %s", tc.name, got, ok, tc.want)
		}
	}

	// A comparator-form request whose tangled comparators untangle
	// with the identity lane map keys like its standard form.
	tangled := &Request{Op: "verify", Lines: 4, Comparators: [][2]int{
		{2, 1}, {1, 2}, {3, 4}, {4, 3}, {3, 4}, {1, 3}, {2, 4}, {2, 3},
	}}
	if got, ok := tangled.ShardKey(); !ok || got != tangle {
		t.Errorf("comparator form: ShardKey = %s, %v, want %s", got, ok, tangle)
	}
}
