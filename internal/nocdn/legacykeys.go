package nocdn

import "sort"

// Keys minted before key IDs described themselves were rows with random
// secrets, in keys_issued records and snapshots. So that records signed under
// them still settle after an upgrade, recovery keeps the unexpired rows in one
// read-only map, which snapshots write back while they live: keyTTL after the
// upgrade it is empty. This file goes once no such journal can be in service.

// legacyKeys holds the unexpired pre-upgrade keys by ID. Only recovery
// writes it; checkRecord looks in it before parsing a key ID.
type legacyKeys map[string]keyRow

// restore adds the rows that have not expired at now (Unix nanoseconds).
func (m *legacyKeys) restore(rows []keyRow, now int64) {
	for _, k := range rows {
		if now <= k.Expires {
			if *m == nil {
				*m = make(legacyKeys)
			}
			(*m)[k.ID] = k
		}
	}
}

// live lists the rows unexpired at now, sorted by ID, for a snapshot.
func (m legacyKeys) live(now int64) []keyRow {
	var out []keyRow
	for _, k := range m {
		if now <= k.Expires {
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
