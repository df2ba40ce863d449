package nocdn

// DiskHashedBytes reports how many at-rest bytes the peer's disk tier has
// read through verification. The attack-driving tests live in package
// nocdn_test (internal/adversary imports this package, so they cannot live
// here) and have no other way to segmentStore.hashed.
func (p *Peer) DiskHashedBytes() int64 { return p.store.Load().hashed.Load() }
