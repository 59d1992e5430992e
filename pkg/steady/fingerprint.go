package steady

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"

	"repro/pkg/steady/platform"
)

// Fingerprint returns a canonical content hash of the platform: two
// platforms built with the same node names, weights, and edges (in
// the same order) share a fingerprint, regardless of how they were
// constructed. The batch engine keys its LP-solution cache on
// (Fingerprint, Solver.Name), so the hash covers every input the
// solvers read: node names, node weights, and directed edges with
// their costs. Weights and costs hash via their normalized rational
// rendering, so equal rationals hash equally.
//
// Node order is significant: the built-in solvers address nodes by
// index (Spec.Root == "" means node 0), so platforms that differ only
// by node permutation are distinct solve inputs.
//
// The hashed stream is "steady/v1 <nodes> <edges>\n", then
// "n <name> <weight>\n" per node and "e <from> <to> <cost>\n" per
// edge. Cache keys and cluster key ownership depend on it byte for
// byte.
func Fingerprint(p *platform.Platform) string {
	buf := make([]byte, 0, 32+24*p.NumNodes()+24*p.NumEdges())
	buf = append(buf, "steady/v1 "...)
	buf = strconv.AppendInt(buf, int64(p.NumNodes()), 10)
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, int64(p.NumEdges()), 10)
	buf = append(buf, '\n')
	for i := 0; i < p.NumNodes(); i++ {
		buf = append(buf, "n "...)
		buf = append(buf, p.Name(i)...)
		buf = append(buf, ' ')
		if w := p.Weight(i); w.Inf {
			buf = append(buf, "inf"...)
		} else {
			buf, _ = w.Val.AppendText(buf) // never fails
		}
		buf = append(buf, '\n')
	}
	for e := 0; e < p.NumEdges(); e++ {
		ed := p.Edge(e)
		buf = append(buf, "e "...)
		buf = strconv.AppendInt(buf, int64(ed.From), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(ed.To), 10)
		buf = append(buf, ' ')
		buf, _ = ed.C.AppendText(buf) // never fails
		buf = append(buf, '\n')
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}
