package main

import (
	"math/rand"
	"sort"
)

// viewGen is the seeded request generator: a deterministic stream of
// (client, page) draws. The program under test sees only the generated
// requests; the seed never reaches it. One generator per load goroutine and
// phase, so a goroutine's sequence does not depend on scheduling.
type viewGen struct {
	rng     *rand.Rand
	clients int
	pages   int
	// zipfCDF, when set, is the cumulative popularity of page ranks 1..N
	// under Zipf(s=1); rankToPage maps a rank to a page index through a
	// seeded permutation so "popular" is not the same pages on every seed.
	zipfCDF    []float64
	rankToPage []int
}

// newViewGen derives an independent stream from (seed, stream). Streams
// with the same seed share one Zipf popularity ranking.
func newViewGen(seed int64, stream int, clients, pages int, zipf bool) *viewGen {
	g := &viewGen{
		rng:     rand.New(rand.NewSource(seed*1_000_003 + int64(stream)*7919 + 1)),
		clients: clients,
		pages:   pages,
	}
	if zipf {
		g.zipfCDF = zipfCDF(pages)
		g.rankToPage = rand.New(rand.NewSource(seed)).Perm(pages)
	}
	return g
}

// zipfCDF is the cumulative distribution of Zipf(s=1) over n ranks.
// math/rand's Zipf needs s > 1, so the table is built here.
func zipfCDF(n int) []float64 {
	cdf := make([]float64, n)
	var sum float64
	for k := 1; k <= n; k++ {
		sum += 1 / float64(k)
		cdf[k-1] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return cdf
}

// next draws one (client, page) pair.
func (g *viewGen) next() (client, page int) {
	client = g.rng.Intn(g.clients)
	if g.zipfCDF == nil {
		return client, g.rng.Intn(g.pages)
	}
	rank := sort.SearchFloat64s(g.zipfCDF, g.rng.Float64())
	if rank >= g.pages {
		rank = g.pages - 1
	}
	return client, g.rankToPage[rank]
}

// fillBytes writes deterministic pseudo-random content.
func fillBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}
