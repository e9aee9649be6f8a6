// Package cluster implements horizontal corpus serving: a fleet of
// sbmlserved shard nodes, each holding a disjoint subset of the model
// ids, fronted by a scatter-gather Gateway that speaks the same /v1
// surface as a single node.
//
// Model ids are assigned to nodes by rendezvous (highest-random-weight)
// hashing — a deterministic pure function of (node set, model id), so
// every gateway over the same node set routes identically with no shared
// state, and adding or removing one node reassigns only the ids that
// node gains or loses (~1/n of the corpus), never reshuffling the rest.
//
// The forwarding contract: for the model-addressed routes
// (add/remove/compose/simulate/check) the gateway only picks the owner
// of the model id and relays that node's answer. It never answers such a
// route itself and never parses a model. An add is routed by its ?id=
// override, else by the id on the body's <model> start tag
// (sbml.ModelID), which is the id the node stores it under; a JSON route
// by its body's "id" field. A body without a usable id goes to
// Owner(""), and a body the nodes reject gets the same answer from
// whichever node it reaches, so every malformed request gets exactly the
// answer a single node gives.
// /v1/search fans out to every node for the ranking prefix [0,
// offset+limit) and merges with corpus.RankWindow, the function the
// corpus ranking cuts its own pages with, so a cluster ranking is
// byte-identical to a single-node corpus holding the same models — the
// determinism already proven at every shard and worker count, applied
// one level up. See gateway.go for the degraded-mode semantics when a
// node is down.
//
// The gateway serves through the same HTTP edge as a node (api.Edge):
// request ids, the error envelope, per-route metrics (sbmlgw_*), the
// in-flight gauge and the body cap. What remains here is routing,
// fan-out and the node client.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
)

// PartitionMap assigns model ids to nodes by rendezvous hashing. It is
// immutable and safe for concurrent use.
type PartitionMap struct {
	nodes []string
}

// NewPartitionMap builds a partition map over the node base URLs.
// URLs are normalized (trailing slashes trimmed) and must be unique and
// non-empty; the configured order is preserved for display but does not
// influence ownership — rendezvous hashing depends only on the set.
func NewPartitionMap(nodes []string) (*PartitionMap, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: at least one node is required")
	}
	normalized := make([]string, 0, len(nodes))
	seen := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		n = strings.TrimRight(strings.TrimSpace(n), "/")
		if n == "" {
			return nil, fmt.Errorf("cluster: empty node URL")
		}
		if seen[n] {
			return nil, fmt.Errorf("cluster: duplicate node URL %q", n)
		}
		seen[n] = true
		normalized = append(normalized, n)
	}
	return &PartitionMap{nodes: normalized}, nil
}

// Nodes returns the node base URLs in configured order. The slice is a
// copy; callers may keep it.
func (p *PartitionMap) Nodes() []string {
	return append([]string(nil), p.nodes...)
}

// Owner returns the base URL of the node that owns id: the node whose
// rendezvous weight hash(node, id) is highest, ties broken by smaller
// URL so the choice is total even in the (astronomically unlikely) event
// of a 64-bit collision.
func (p *PartitionMap) Owner(id string) string {
	best := p.nodes[0]
	bestW := rendezvousWeight(best, id)
	for _, n := range p.nodes[1:] {
		w := rendezvousWeight(n, id)
		if w > bestW || (w == bestW && n < best) {
			best, bestW = n, w
		}
	}
	return best
}

// rendezvousWeight is FNV-1a over node \x00 id, pushed through a 64-bit
// finalizer. The finalizer matters: raw FNV-1a is byte-serial with weak
// avalanche, so hashes of strings sharing a long common suffix (every
// id, hashed after differing node prefixes) stay strongly correlated
// and rendezvous selection collapses onto one node. The xor-shift/
// multiply finalizer decorrelates them; the whole function is a pure
// computation, stable across processes and releases (ownership must not
// move on a gateway restart or a Go upgrade).
func rendezvousWeight(node, id string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(node))
	h.Write([]byte{0})
	h.Write([]byte(id))
	return mix64(h.Sum64())
}

// mix64 is the Murmur3 fmix64 finalizer: full avalanche, bijective.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Spread reports how many of the given ids each node owns, keyed by node
// URL — the balance diagnostic surfaced in the gateway's health report.
func (p *PartitionMap) Spread(ids []string) map[string]int {
	out := make(map[string]int, len(p.nodes))
	for _, n := range p.nodes {
		out[n] = 0
	}
	for _, id := range ids {
		out[p.Owner(id)]++
	}
	return out
}

// sortedNodes returns the node URLs sorted ascending — the deterministic
// order used for error listings.
func (p *PartitionMap) sortedNodes() []string {
	out := p.Nodes()
	sort.Strings(out)
	return out
}
