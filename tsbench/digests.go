package main

import "fmt"

// pinned holds the sha256 of every checked output at the default seed:
// each simulation's stats.Run JSON (telemetry block removed) and each
// network's grid NDJSON. A digest that differs is a failed operation.
// Any other seed has no pins; its first output of each kind becomes
// the reference every repeat must match, and the digests are printed
// so two commits can be compared.
var pinned = map[string]string{
	"snoop/butterfly":            "be86829923dd6cb4907f6c21f43c8e5c38dc4ecb62ed44f08525eeb6e66ab75e",
	"snoop/torus":                "d5cbfae49ba7866257f63a8a597066e2064a75aa5b2e65f378a78cd41822dad0",
	"snoop-contention/butterfly": "5893e4c4a26ec2e9def26b764c0b23a740a257a00b1f1d4ea8cfc224996b5e97",
	"snoop-contention/torus":     "e8f4142224c23c899f07a702877960ff20c1375cb5cd1da8744fc97b4c556337",
	"grid/butterfly":             "5178817e58902c5c858df3d3e1b36aeff582d535cf41384bea8354e22a51fade",
	"grid/torus":                 "2761dd35eed9149a5bed923fc8508a6da042b54c6022b0af0f1a5323e257b5b5",
}

// digestChecker compares output digests with the pins.
type digestChecker struct {
	seed uint64
	pins map[string]string
	seen map[string]string
}

// checkDigest counts one checked output named key with digest got.
func (b *bench) checkDigest(key, got string) {
	if b.digests == nil {
		b.digests = &digestChecker{seed: b.seed, pins: pinned, seen: map[string]string{}}
	}
	want, ok := b.digests.want(key, got)
	if !ok {
		fmt.Fprintf(b.log, "digest %s %s (seed %d)\n", key, got, b.seed)
	}
	b.check(got == want, "%s: output digest %s, want %s", key, got, want)
}

// want returns the digest key must have. The first unpinned output of a
// key becomes its reference, reported with ok=false.
func (d *digestChecker) want(key, got string) (want string, ok bool) {
	if d.seed == defaultSeed {
		if pin, ok := d.pins[key]; ok {
			return pin, true
		}
	}
	if ref, seen := d.seen[key]; seen {
		return ref, true
	}
	d.seen[key] = got
	return got, false
}
