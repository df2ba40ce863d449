package hpop_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDeletedForksStayDeleted keeps deleted paths from coming back: no
// non-test Go file in the repo names the legacy wrapper builder, the
// per-record settlement fork, POST /usage, or the root-less settlement
// shape (SettleRecords and its settle_records span), and no non-test file
// in internal/nocdn carries a peer attack mode, the always-false
// invalidation flag, or a duplicate metric name. Neither internal/nocdn nor
// cmd brings back the auditor's population z-score: its accumulator, its
// scorer and whole-fleet rescan, its per-peer deviation gauge, its knobs, the
// duplicate tamper-flag counter, or the population fields of /debug/audit.
// internal/nocdn keeps one settlement row per peer: no per-shard grouping of
// multi-peer deltas, no map-shaped credit or reject batch, no auditor table
// of its own to merge deltas into, and no auditor constructor.
// Settlement verifies every record: internal/nocdn samples no leaves and
// carries no Merkle inclusion proofs. Gossip only nominates peers for the
// probe: neither internal/nocdn nor cmd brings back the reporter strike
// count, its quarantine and their counters, or the audit flag writer, its
// callback, its ejection and journal write, and its counter. A short-term
// key is a value derived from the origin secret: internal/nocdn keeps no key
// table, no shards or sequence counter for it, no sweep, and no ledger
// methods that mint, read, restore or list key rows. A record travels as
// its leaf from the loader to the origin: loader.go, peer.go and spool.go
// encode or decode no record as JSON, and nothing reads the older JSON
// shape. Recovery reads one release back and refuses the rest: internal/nocdn
// keeps no reader of pre-upgrade key rows or JSON records, no key secret
// carried in a row, no audit_flag replay or ledger flag, and no counter of
// skipped journal records, and internal/hpop keeps no audit flag in its
// health registry. The wrapper and the batch envelope are read in place:
// loader.go uses no encoding/json, and merkle.go decodes nothing with it.
// A cached object's HTTP metadata lives on its cache entry: internal/nocdn
// keeps no peer-wide metadata map, its cap, its accessors or its lock. A
// daemon boots its peer only through nocdn.OpenPeer and starts no ticker of
// its own: nocdnd and hpopd build no peer, attach no disk tier or spool and
// make no ticker, and internal/nocdn exports no loop starter or stopper and
// no fetch-timeout setter. The peer's records sit in one lane per provider:
// no shared queue filtered per flush, no gate map beside it, and no setter
// for the cap. A peer calls its origin only through callOrigin: lane.go,
// gossip.go and peertelemetry.go build no request, nothing brings back
// postRecords, telemetry retries under no policy of its own, and /gossip
// reads its body only through readUpload. A disk hit is served one way, off
// the segment file: internal/nocdn copies no disk hit into memory, keeps no
// second disk tier for the streamed serve, and counts no promotions.
func TestDeletedForksStayDeleted(t *testing.T) {
	scorer := regexp.MustCompile(`welford|scoreLocked|rescoreAll|nocdn\.audit\.peer\.|tamper_flags|DefaultAudit(Threshold|MinRecords)|populationMeanBytes`)
	recordJSON := regexp.MustCompile(`json\.(Marshal|Unmarshal|NewDecoder)\((rec|recs|record|records|leaf|leaves|body|line|r\.Body)\b|json\.\w+\(.*&(rec|recs|record|records)\b`)
	handBoot := regexp.MustCompile(`nocdn\.NewPeer\(|\.AttachDiskCache\(|\.AttachRecordSpool\(|time\.NewTicker\(`)
	handBuilt := regexp.MustCompile(`http\.NewRequest`)
	gossipAndFlag := regexp.MustCompile(`gossipMismatch|DefaultGossipMismatchLimit|gossip_mismatches|gossip_quarantined|FlagTampered|OnFlag|ejectFlagged|journalAuditFlag|nocdn\.audit\.flagged`)
	for _, c := range []struct {
		root    string
		pattern *regexp.Regexp
	}{
		{".", regexp.MustCompile(`GenerateWrapper|WithWrapperReuse|legacyUsage|settleOne|verifyRecordFull|"/usage"|\bSettleRecords\(|"settle_records"`)},
		{"internal/nocdn", regexp.MustCompile(`InflateRecords|DuplicateRecords|CorruptDiskEntry|Tamper\.(Load|Store)|dropMetadata|nocdn\.cache\.miss|peer\.hit_seconds`)},
		{"internal/nocdn", scorer},
		{"internal/nocdn", regexp.MustCompile(`groupByShard|creditBatch|rejectBatch|mergeDeltasLocked|observeSettled|func NewAuditor`)},
		{"internal/nocdn", regexp.MustCompile(`sampleIndices|BuildMerkleProof|VerifyMerkleProof|type MerkleProof|sampled_leaves|sample_failures`)},
		{"cmd", scorer},
		{"internal/nocdn", gossipAndFlag},
		{"cmd", gossipAndFlag},
		{"internal/nocdn", regexp.MustCompile(`keyShard|keySeq|keySweepInterval|restoreKeys|\(l \*ledger\) (mintKey|key|keys)\(`)},
		{"internal/nocdn/loader.go", recordJSON},
		{"internal/nocdn/peer.go", recordJSON},
		{"internal/nocdn/spool.go", regexp.MustCompile(`json\.`)},
		{"internal/nocdn/loader.go", regexp.MustCompile(`json\.`)},
		{"internal/nocdn/merkle.go", regexp.MustCompile(`json\.(Unmarshal|NewDecoder)`)},
		{"internal/nocdn", regexp.MustCompile(`legacyKeys|legacyLeaf|SecretHex|walAuditFlagRec|unknown_records|\(l \*ledger\) flag\(`)},
		{"internal/hpop", regexp.MustCompile(`SetFlagged|\.flagged\b`)},
		{"internal/nocdn", regexp.MustCompile(`maxMetaEntries|metaFor\(|setMeta\(|metaMu|map\[string\]\*entryMeta`)},
		{"cmd/nocdnd", handBoot},
		{"cmd/hpopd", handBoot},
		{"internal/nocdn", regexp.MustCompile(`\b(Start|Stop)(CacheScrub|Gossip|Telemetry)\b|\bSetFetchTimeout\b`)},
		{"internal/nocdn", regexp.MustCompile(`flushGate|\.gates\b|SetMaxPendingRecords|slices\.Contains\(providers`)},
		{"internal/nocdn/lane.go", handBuilt},
		{"internal/nocdn/gossip.go", handBuilt},
		{"internal/nocdn/peertelemetry.go", handBuilt},
		{"internal/nocdn", regexp.MustCompile(`postRecords`)},
		{"internal/nocdn/peertelemetry.go", regexp.MustCompile(`faults\.Policy`)},
		{"internal/nocdn/probe.go", regexp.MustCompile(`json\.NewDecoder\(io\.LimitReader\(r\.Body`)},
		{"internal/nocdn", regexp.MustCompile(`nocdn\.cache\.promotions|tierDiskStream|cachePut\(key, promoted`)},
	} {
		err := filepath.WalkDir(c.root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for i, line := range strings.Split(string(src), "\n") {
				if c.pattern.MatchString(line) {
					t.Errorf("%s:%d: %s", path, i+1, strings.TrimSpace(line))
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
