package nocdn

import "encoding/json"

// legacyLeaf decodes a usage record in the JSON shape that loaders posted to
// /record, and peers spooled, before a record traveled as its leaf, and
// returns the record's LeafBytes. parseRecordLine calls it for a line that
// starts with '{': a body from an older loader, or a line of an older spool.
func legacyLeaf(b []byte) ([]byte, error) {
	var rec UsageRecord
	if err := json.Unmarshal(b, &rec); err != nil {
		return nil, err
	}
	return rec.LeafBytes(), nil
}
