package core_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"emprof"
	"emprof/internal/core"
)

// Cross-version golden digests. The path-agreement tests (batch vs
// streaming vs windows vs the oracle) cannot see a change
// that moves every path at once; these pin the encoding/json bytes of the
// profiles of three seeded simulations, and the finalized profile of a
// committed mid-stream hand-off state, to what earlier builds produced.
// A change that means to alter profiles regenerates them with
//
//	go test ./internal/core -run Golden -golden-update
//
// and says why in its description.

var goldenUpdate = flag.Bool("golden-update", false, "rewrite the golden hand-off state and print the profile digests")

// goldenCase is one seeded simulation and the configuration it is
// analysed under.
type goldenCase struct {
	name     string
	device   string
	workload string
	scaleM   float64
	seed     uint64
	faults   *emprof.FaultSpec
	shift    float64 // ProbeShiftRatio
	digest   string  // SHA-256 of the profile's encoding/json bytes
}

var goldenCases = []goldenCase{
	{
		name: "olimex-boot-clean", device: "olimex", workload: "boot", scaleM: 1.5, seed: 1,
		digest: "0fe4fe800761ac6297f0be11e9397b6a0fae0d26a8fc4d4a5559e36a34cc7196",
	},
	{
		name: "samsung-mcf-dropouts-gainsteps", device: "samsung", workload: "spec:mcf", scaleM: 1.0, seed: 2,
		faults: &emprof.FaultSpec{DropoutRate: 0.002, DropoutMeanLen: 16, GainStepsPerS: 3000, Seed: 2},
		digest: "bf21627f9c52da0c27383dbe21421a2a8c19357ec8391f11946d4077cc2e292d",
	},
	{
		name: "olimex-gzip-probe-bump-shift", device: "olimex", workload: "spec:gzip", scaleM: 2.0, seed: 3,
		faults: &emprof.FaultSpec{ProbeBumpMM: 1.5, ProbeBumpAtS: 0.8e-3, Seed: 3},
		shift:  1.4,
		digest: "ab73cfea2857ed85b6ea757d80a2bd8bb48dc29bbbc8177310be785442851ac4",
	},
}

// goldenHandoff names the committed mid-stream state: the impaired
// samsung capture exported after its first goldenHandoffAt samples.
const (
	goldenHandoffCase = 1
	goldenHandoffAt   = 50001
	goldenHandoffFile = "streamstate_samsung_mcf.json"
)

// goldenArch guards the digests: other architectures fuse multiply-adds,
// which changes float bits in the simulator and the analyzer alike.
func goldenArch(t *testing.T) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are pinned on amd64; %s fuses multiply-adds", runtime.GOARCH)
	}
}

func (g goldenCase) config() core.Config {
	cfg := core.DefaultConfig()
	cfg.ProbeShiftRatio = g.shift
	return cfg
}

func (g goldenCase) capture(t testing.TB) *emprof.Capture {
	t.Helper()
	dev, err := emprof.DeviceByName(g.device)
	if err != nil {
		t.Fatal(err)
	}
	wl, err := emprof.ParseWorkload(g.workload, g.scaleM, g.seed)
	if err != nil {
		t.Fatal(err)
	}
	run, err := emprof.Simulate(dev, wl, emprof.CaptureOptions{Seed: g.seed})
	if err != nil {
		t.Fatal(err)
	}
	c := run.Capture
	if g.faults != nil {
		if c, _, err = emprof.InjectFaults(c, *g.faults); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func profileDigest(t *testing.T, p *core.Profile) string {
	t.Helper()
	blob, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}

// TestGoldenProfiles pins the batch profiles of the three golden
// simulations: a clean olimex boot, a samsung run with dropouts and gain
// steps, and a 1.5 mm probe bump that the probe-shift detector
// (ProbeShiftRatio 1.4) resyncs on.
func TestGoldenProfiles(t *testing.T) {
	goldenArch(t)
	for _, g := range goldenCases {
		c := g.capture(t)
		p := core.MustNewAnalyzer(g.config()).Profile(c)
		if len(p.Stalls) == 0 {
			t.Fatalf("%s: no stalls; the digest would pin nothing", g.name)
		}
		got := profileDigest(t, p)
		if *goldenUpdate {
			t.Logf("%s: %d samples, %d stalls, %d resyncs, digest %s", g.name, len(c.Samples), len(p.Stalls), p.Quality.Resyncs, got)
			continue
		}
		if got != g.digest {
			t.Errorf("%s: profile digest %s, want %s", g.name, got, g.digest)
		}
	}
}

// TestSettledRunCoverage fails if the monitor's settled fast run stops
// firing. The golden captures spend almost all their samples settled and
// uneventful, so at least 95 % of each must go through the fast run; the
// rest are impaired samples and one sample per busy-tracker block, which
// the general step takes.
func TestSettledRunCoverage(t *testing.T) {
	for _, g := range goldenCases {
		c := g.capture(t)
		share := core.SettledShare(g.config(), c.SampleRate, c.Samples)
		t.Logf("%s: %.1f %% of %d samples in the fast run", g.name, 100*share, len(c.Samples))
		if share < 0.95 {
			t.Errorf("%s: fast run took %.1f %% of the samples, want at least 95 %%", g.name, 100*share)
		}
	}
}

// TestDecideFastRunCoverage fails if the detector's fast run stops
// firing. Most positions of the golden captures carry no flag and neither
// enter nor leave a dip, so the fast run must decide at least 70 % of
// each; step takes the flagged positions (a quarter of the impaired
// samsung capture, mostly gain-step regions) and the dip entries and
// exits.
func TestDecideFastRunCoverage(t *testing.T) {
	for _, g := range goldenCases {
		c := g.capture(t)
		share := core.DecideShare(g.config(), c)
		t.Logf("%s: %.1f %% of %d positions in the fast run", g.name, 100*share, len(c.Samples))
		if share < 0.70 {
			t.Errorf("%s: fast run took %.1f %% of the positions, want at least 70 %%", g.name, 100*share)
		}
	}
}

// TestGoldenHandoffResume resumes the committed mid-stream state, pushes
// the rest of its capture and requires the finalized profile to match the
// pinned batch digest: the hand-off wire format stays readable, and a
// state exported by an earlier build finishes the stream bit-identically.
// The resumed analyzer must also export the file's exact bytes, so the
// encoder side of the wire stays fixed too.
func TestGoldenHandoffResume(t *testing.T) {
	goldenArch(t)
	g := goldenCases[goldenHandoffCase]
	c := g.capture(t)
	path := filepath.Join("testdata", goldenHandoffFile)
	if *goldenUpdate {
		a, err := core.NewStreamAnalyzer(g.config(), c.SampleRate, c.ClockHz)
		if err != nil {
			t.Fatal(err)
		}
		a.PushBlock(c.Samples[:goldenHandoffAt])
		blob, err := json.Marshal(a.ExportState())
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var st core.StreamState
	if err := json.Unmarshal(blob, &st); err != nil {
		t.Fatal(err)
	}
	if st.Pushed != goldenHandoffAt {
		t.Fatalf("state pushed %d samples, want %d", st.Pushed, goldenHandoffAt)
	}
	b, err := core.ResumeStreamAnalyzer(&st)
	if err != nil {
		t.Fatal(err)
	}
	again, err := json.Marshal(b.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, blob) {
		t.Fatalf("resumed state re-exports to different bytes than %s", path)
	}
	b.PushBlock(c.Samples[goldenHandoffAt:])
	got := profileDigest(t, b.Finalize())
	if *goldenUpdate {
		t.Logf("resumed %s: digest %s", g.name, got)
		return
	}
	if got != g.digest {
		t.Fatalf("resumed profile digest %s, want %s", got, g.digest)
	}
}
