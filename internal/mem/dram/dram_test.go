package dram

import "testing"

func testConfig() Config {
	return Config{
		Banks: 4, RowBytes: 2048,
		RowHit: 50, RowMiss: 200, BusOccupancy: 20,
		RefreshInterval: 70000, RefreshDuration: 2200,
	}
}

// mustNew builds a DRAM, failing the test on a configuration error.
func mustNew(t *testing.T, cfg Config, recordBursts bool) *DRAM {
	t.Helper()
	d, err := New(cfg, recordBursts)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestConfigValidation(t *testing.T) {
	good := testConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	cases := []func(*Config){
		func(c *Config) { c.Banks = 3 },
		func(c *Config) { c.RowBytes = 1000 },
		func(c *Config) { c.RowHit = 0 },
		func(c *Config) { c.RowMiss = 10 },
		func(c *Config) { c.BusOccupancy = 0 },
		func(c *Config) { c.RefreshDuration = 0 },
	}
	for i, mut := range cases {
		c := testConfig()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: bad config accepted: %+v", i, c)
		}
	}
}

func TestRowHitVsMiss(t *testing.T) {
	d := mustNew(t, testConfig(), false)
	// First access opens the row: row-miss latency.
	done, _ := d.Access(10000, 0x1000, BurstRead)
	if done != 10000+200 {
		t.Fatalf("first access done at %d, want %d", done, 10200)
	}
	// Second access in the same row after the bank frees: row hit.
	done2, _ := d.Access(done+100, 0x1040, BurstRead)
	if done2 != done+100+50 {
		t.Fatalf("row hit done at %d, want %d", done2, done+150)
	}
	s := d.Stats()
	if s.RowHits != 1 || s.RowMisses != 1 || s.Reads != 2 {
		t.Fatalf("stats %+v", s)
	}
}

func TestBankConflictSerializes(t *testing.T) {
	d := mustNew(t, testConfig(), false)
	// Two same-bank requests issued in the same cycle: the second must
	// start after the first's bus occupancy.
	d1, _ := d.Access(10000, 0x0, BurstRead)
	d2, _ := d.Access(10000, 0x40, BurstRead) // same row, same bank
	if d2 <= d1-150 {
		t.Fatalf("second access done %d too early (first %d)", d2, d1)
	}
	if d2 != 10000+20+50 {
		t.Fatalf("second access done %d, want start+bus+rowhit=%d", d2, 10070)
	}
}

func TestDifferentBanksOverlap(t *testing.T) {
	d := mustNew(t, testConfig(), false)
	// Rows map to banks via addr/RowBytes % Banks.
	d1, _ := d.Access(10000, 0, BurstRead)
	d2, _ := d.Access(10000, 2048, BurstRead) // next bank
	if d1 != d2 {
		t.Fatalf("independent banks should complete together: %d vs %d", d1, d2)
	}
}

func TestRefreshDelaysColliding(t *testing.T) {
	d := mustNew(t, testConfig(), false)
	// Request inside the refresh window starting at 70000.
	done, hit := d.Access(70100, 0x0, BurstRead)
	if !hit {
		t.Fatal("request inside refresh window must report refreshHit")
	}
	wantStart := uint64(70000 + 2200)
	if done != wantStart+200 {
		t.Fatalf("done %d, want %d", done, wantStart+200)
	}
	if d.Stats().RefreshHits != 1 {
		t.Fatalf("refresh hits %d", d.Stats().RefreshHits)
	}
}

func TestRefreshOutsideWindowUnaffected(t *testing.T) {
	d := mustNew(t, testConfig(), false)
	done, hit := d.Access(75000, 0x0, BurstRead)
	if hit || done != 75200 {
		t.Fatalf("non-colliding request delayed: done=%d hit=%v", done, hit)
	}
}

func TestInRefresh(t *testing.T) {
	// inRefresh reports whether the device is refreshing at cycle, through
	// the refresh window Access checks requests against.
	inRefresh := func(d *DRAM, cycle uint64) bool {
		s, e, ok := d.refreshWindow(cycle)
		return ok && cycle >= s && cycle < e
	}
	d := mustNew(t, testConfig(), false)
	if inRefresh(d, 75000) {
		t.Fatal("75000 is outside the refresh window")
	}
	if !inRefresh(d, 70000) || !inRefresh(d, 72199) {
		t.Fatal("refresh window not recognised")
	}
	// Refresh disabled.
	cfg := testConfig()
	cfg.RefreshInterval = 0
	cfg.RefreshDuration = 0
	d2 := mustNew(t, cfg, false)
	if inRefresh(d2, 0) {
		t.Fatal("refresh disabled but the device reports a refresh")
	}
}

func TestBurstRecording(t *testing.T) {
	d := mustNew(t, testConfig(), true)
	d.Access(100, 0, BurstRead)
	d.Access(400, 4096, BurstWrite)
	d.Access(800, 8192, BurstPrefetch)
	bursts := d.Bursts()
	if len(bursts) != 3 {
		t.Fatalf("%d bursts recorded, want 3", len(bursts))
	}
	if bursts[0].Kind != BurstRead || bursts[1].Kind != BurstWrite || bursts[2].Kind != BurstPrefetch {
		t.Fatalf("burst kinds wrong: %+v", bursts)
	}
	s := d.Stats()
	if s.Reads != 1 || s.Writes != 1 || s.Prefetches != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestBurstRecordingDisabled(t *testing.T) {
	d := mustNew(t, testConfig(), false)
	d.Access(100, 0, BurstRead)
	if d.Bursts() != nil {
		t.Fatal("bursts recorded while disabled")
	}
}

func TestRefreshSpanRecorded(t *testing.T) {
	d := mustNew(t, testConfig(), true)
	d.Access(70100, 0, BurstRead)
	found := false
	for _, b := range d.Bursts() {
		if b.Kind == BurstRefresh && b.Start == 70000 && b.End == 72200 {
			found = true
		}
	}
	if !found {
		t.Fatalf("refresh span missing from bursts: %+v", d.Bursts())
	}
}

func TestActivitySeries(t *testing.T) {
	bursts := []Burst{
		{Start: 0, End: 10, Kind: BurstRead},   // fills sample 0 fully
		{Start: 25, End: 30, Kind: BurstWrite}, // half of sample 2
	}
	s := ActivitySeries(bursts, 40, 10)
	if len(s) != 5 {
		t.Fatalf("series length %d, want 5", len(s))
	}
	if s[0] != 1.0 {
		t.Fatalf("sample 0 = %v, want 1.0", s[0])
	}
	if s[1] != 0 {
		t.Fatalf("sample 1 = %v, want 0", s[1])
	}
	if s[2] != 0.5 {
		t.Fatalf("sample 2 = %v, want 0.5", s[2])
	}
}

func TestActivitySeriesClamps(t *testing.T) {
	bursts := []Burst{
		{Start: 0, End: 10, Kind: BurstRead},
		{Start: 0, End: 10, Kind: BurstRead},
	}
	s := ActivitySeries(bursts, 10, 10)
	if s[0] > 1 {
		t.Fatalf("activity %v exceeds 1", s[0])
	}
}

func TestBurstKindString(t *testing.T) {
	if BurstRead.String() != "read" || BurstRefresh.String() != "refresh" {
		t.Fatal("burst kind names wrong")
	}
	if BurstKind(9).String() != "kind(9)" {
		t.Fatal("unknown kind name wrong")
	}
}
