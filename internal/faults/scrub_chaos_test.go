package faults_test

import (
	"bytes"
	"errors"
	"testing"

	"hpop/internal/attic"
	"hpop/internal/faults"
	"hpop/internal/hpop"
)

// chaosStore wraps a PeerStore and consults a fault injector on every Put,
// flipping one byte of the stored blob when a bitflip rule fires — the
// silent at-rest corruption the attic scrubber exists to catch.
type chaosStore struct {
	attic.PeerStore
	inj *faults.Injector
}

func (c *chaosStore) Put(key string, data []byte) error {
	if d := c.inj.Decide(key); d.Kind == faults.KindBitflip {
		cp := append([]byte(nil), data...)
		cp[len(cp)/2] ^= 0xFF
		data = cp
	}
	return c.PeerStore.Put(key, data)
}

// scrubFixture is an erasure-coded attic (RS(3,2) across peers[0..4],
// peers[5] spare) with one backup placed through fault-injecting stores.
type scrubFixture struct {
	engine *attic.BackupEngine
	mems   []*attic.MemPeer
	data   []byte
}

func newScrubFixture(t *testing.T, inj *faults.Injector) *scrubFixture {
	t.Helper()
	f := &scrubFixture{data: bytes.Repeat([]byte("attic shard payload "), 400)}
	var stores []attic.PeerStore
	for i := 0; i < 6; i++ {
		m := attic.NewMemPeer("peer-" + string(rune('0'+i)))
		f.mems = append(f.mems, m)
		stores = append(stores, &chaosStore{PeerStore: m, inj: inj})
	}
	engine, err := attic.NewBackupEngine(attic.Plan{Kind: attic.PlanErasure, K: 3, M: 2}, stores)
	if err != nil {
		t.Fatal(err)
	}
	f.engine = engine
	if err := engine.Backup("family-photos", f.data); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestChaosScrubBitFlip drives the attic repair loop: one erasure shard is
// silently bit-flipped at store time and another host goes dark. One scrub
// pass must detect both within the manifest checksums, rebuild them from
// survivors (relocating the dark host's shard to the spare peer), and leave
// the backup byte-identically restorable — proven by a clean second pass
// re-verifying every placement checksum, with the original host still down.
func TestChaosScrubBitFlip(t *testing.T) { forChaosSeeds(t, chaosScrubBitFlip) }

func chaosScrubBitFlip(t *testing.T, seed uint64) {
	// Exactly the first store of shard1 is corrupted in flight.
	sched := mustSchedule(t, seed, `
bitflip match=shard1 from=0 to=1
`)
	inj := faults.NewInjector(sched)
	f := newScrubFixture(t, inj)
	if got := inj.Injected()[faults.KindBitflip]; got != 1 {
		t.Fatalf("bitflips fired %d times during backup, want exactly 1", got)
	}
	f.mems[2].SetDown(true) // shard2's host goes dark

	metrics := hpop.NewMetrics()
	sum := f.engine.Scrub(metrics, nil)
	if len(sum.Backups) != 1 {
		t.Fatalf("scrubbed %d backups, want 1", len(sum.Backups))
	}
	rep := sum.Backups[0]
	if rep.Corrupt != 1 || rep.Missing != 1 {
		t.Fatalf("first pass: corrupt=%d missing=%d, want 1 and 1 (%+v)",
			rep.Corrupt, rep.Missing, rep)
	}
	if rep.Repaired != 2 || rep.Relocated != 1 {
		t.Fatalf("first pass: repaired=%d relocated=%d, want 2 and 1 (%+v)",
			rep.Repaired, rep.Relocated, rep)
	}
	if rep.Unrecoverable || rep.Err != nil {
		t.Fatalf("first pass must be recoverable: %+v", rep)
	}
	if got := metrics.Counter("attic.scrub.repaired"); got != 2 {
		t.Fatalf("attic.scrub.repaired = %v, want 2", got)
	}

	// Second pass with the dark host still down: every placement (including
	// the relocated one) must verify against its manifest checksum — RS
	// reconstruction is deterministic, so repair is byte-identical.
	rep2 := f.engine.Scrub(metrics, nil).Backups[0]
	if rep2.Corrupt != 0 || rep2.Missing != 0 || rep2.Repaired != 0 {
		t.Fatalf("second pass not clean: %+v", rep2)
	}
	got, err := f.engine.Restore("family-photos")
	if err != nil {
		t.Fatalf("restore after repair: %v", err)
	}
	if !bytes.Equal(got, f.data) {
		t.Fatal("restored data differs from original after scrub repair")
	}
}

// TestChaosScrubUnrecoverable loses more shards than the parity covers: the
// scrubber must report the backup unrecoverable (wrapping ErrNotEnoughUp)
// and touch nothing — so when the hosts come back, the data is still there
// and a follow-up pass is clean. No fault is drawn, so it runs once, not
// per seed.
func TestChaosScrubUnrecoverable(t *testing.T) {
	inj := faults.NewInjector(mustSchedule(t, 1, ``))
	f := newScrubFixture(t, inj)
	for i := 0; i < 3; i++ { // 3 hosts dark > M=2 parity
		f.mems[i].SetDown(true)
	}

	metrics := hpop.NewMetrics()
	rep := f.engine.Scrub(metrics, nil).Backups[0]
	if !rep.Unrecoverable {
		t.Fatalf("want unrecoverable, got %+v", rep)
	}
	if !errors.Is(rep.Err, attic.ErrNotEnoughUp) {
		t.Fatalf("err = %v, want wrap of ErrNotEnoughUp", rep.Err)
	}
	if rep.Repaired != 0 || rep.Relocated != 0 {
		t.Fatalf("unrecoverable backup must not be modified: %+v", rep)
	}
	if got := metrics.Counter("attic.scrub.unrecoverable"); got != 1 {
		t.Fatalf("attic.scrub.unrecoverable = %v, want 1", got)
	}
	if _, err := f.engine.Restore("family-photos"); err == nil {
		t.Fatal("restore should fail while 3 hosts are dark")
	}

	// Hosts return: nothing was made worse, so the pass is clean and the
	// restore is byte-identical.
	for i := 0; i < 3; i++ {
		f.mems[i].SetDown(false)
	}
	rep2 := f.engine.Scrub(metrics, nil).Backups[0]
	if rep2.Corrupt != 0 || rep2.Missing != 0 || rep2.Unrecoverable {
		t.Fatalf("post-recovery pass not clean: %+v", rep2)
	}
	got, err := f.engine.Restore("family-photos")
	if err != nil {
		t.Fatalf("restore after recovery: %v", err)
	}
	if !bytes.Equal(got, f.data) {
		t.Fatal("restored data differs from original")
	}
}
