package steady_test

import (
	"testing"

	"repro/pkg/steady"
	"repro/pkg/steady/platform"
	"repro/pkg/steady/rat"
)

// TestFingerprintGolden pins the exact digests Fingerprint produces.
// The batch cache keys on them and a cluster assigns key owners by
// them, so a change to the hashed byte stream would silently split
// the cache and move ownership between peers of mixed versions. The
// digests were computed with the original fmt-based implementation,
// which hashed "steady/v1 %d %d\n", then "n %s %s\n" per node and
// "e %d %d %s\n" per edge.
func TestFingerprintGolden(t *testing.T) {
	mixed := platform.New()
	m := mixed.AddNode("master", platform.WInt(2))
	f := mixed.AddNode("relay", platform.WInf())
	w := mixed.AddNode("worker", platform.W(rat.New(3, 7)))
	mixed.AddBoth(m, f, rat.New(1, 2))
	mixed.AddEdge(f, w, rat.New(5, 3))
	mixed.AddEdge(m, w, rat.FromInt(4))

	huge := platform.New()
	a := huge.AddNode("a", platform.W(rat.MustParse("98765432109876543210")))
	b := huge.AddNode("b", platform.WInf())
	c := huge.AddNode("c", platform.W(rat.MustParse("1/123456789012345678901")))
	huge.AddEdge(a, b, rat.MustParse("123456789012345678901234567890/7"))
	huge.AddEdge(b, c, rat.MustParse("18446744073709551616"))
	huge.AddEdge(c, a, rat.New(9223372036854775807, 2))

	cases := []struct {
		name string
		p    *platform.Platform
		want string
	}{
		{"Figure1", platform.Figure1(), "8dfbcff520e1f17e698fdb465529c6fe37027185aa361a91b97ad5125140e767"},
		{"Figure2", platform.Figure2(), "717dcf2679c32bd6484d6b2b1d0bec35937aa7286bf03243b52d47be9d62d8e0"},
		{"inf-and-fractions", mixed, "1745a9a7fc51ececc777c7dd3f712fbb014eb424677a22461d8fbab50099fb5f"},
		{"big-rationals", huge, "e174a32a0d9761ba10f0045bc15e0e10a3d8392f78054d02298eff3f88a9bb0d"},
	}
	for _, tc := range cases {
		if got := steady.Fingerprint(tc.p); got != tc.want {
			t.Errorf("%s: Fingerprint = %s, want %s", tc.name, got, tc.want)
		}
	}
}
