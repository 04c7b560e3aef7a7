package coemu_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"coemu"
	"coemu/internal/core"
)

// The report-digest oracle pins canonical report bytes across builds,
// not just across two runs of one build: testdata/report_digests.json
// records, for every examples/*/spec.json, the sha256 of the canonical
// ReportView JSON at the spec's own config, under an injected rollback
// storm and in conservative mode. A host-side refactor that moves a
// single modeled bit fails here with the spec and both digests named.
// It also records the spec's canonical hash, the key of every cache,
// store entry and resume journal record, so a schema edit that changes
// a run's identity fails here too, and the core.ModelRevision the file
// was generated at. A deliberate model change bumps the revision and
// regenerates the file; conservative mode never predicts, so its
// digests stay put under a predictor change.

const digestFile = "testdata/report_digests.json"

// digestPins is the content of digestFile.
type digestPins struct {
	ModelRevision int                     `json:"model_revision"`
	Examples      map[string]reportDigest `json:"examples"`
}

// reportDigest is one spec's pinned report digests and canonical hash.
type reportDigest struct {
	Spec         string `json:"spec"`
	Storm        string `json:"storm"`
	Conservative string `json:"conservative"`
	Hash         string `json:"hash"`
}

// stormConfig is the injected storm: every other verdict forced wrong
// on a pinned fault stream, so each transition's snapshot is restored
// about as often as it is taken.
func stormConfig(c *coemu.Config) { c.Accuracy = 0.5; c.FaultSeed = 3 }

// conservativeConfig synchronizes every cycle: no prediction is made.
func conservativeConfig(c *coemu.Config) { c.Mode = coemu.Conservative }

// computeReportDigests runs every example spec at its own config, under
// the storm and in conservative mode, hashes the canonical report
// bytes, and takes the spec's canonical hash.
func computeReportDigests(t *testing.T) digestPins {
	t.Helper()
	sum := func(b []byte) string {
		h := sha256.Sum256(b)
		return hex.EncodeToString(h[:])
	}
	got := digestPins{ModelRevision: core.ModelRevision, Examples: make(map[string]reportDigest)}
	for name, sp := range exampleSpecs(t) {
		own, _ := runSpec(t, sp, nil)
		storm, _ := runSpec(t, sp, stormConfig)
		cons, _ := runSpec(t, sp, conservativeConfig)
		hash, err := sp.CanonicalHash()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got.Examples[name] = reportDigest{Spec: sum(own), Storm: sum(storm), Conservative: sum(cons), Hash: hash}
	}
	return got
}

func TestReportDigestsPinned(t *testing.T) {
	raw, err := os.ReadFile(filepath.FromSlash(digestFile))
	if err != nil {
		t.Fatal(err)
	}
	var want digestPins
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", digestFile, err)
	}
	got := computeReportDigests(t)
	if want.ModelRevision != got.ModelRevision {
		t.Errorf("%s was generated at model revision %d, this build is revision %d: regenerate it",
			digestFile, want.ModelRevision, got.ModelRevision)
	}
	names := make([]string, 0, len(got.Examples))
	for name := range got.Examples {
		names = append(names, name)
	}
	sort.Strings(names)
	moved := false
	for _, name := range names {
		w, ok := want.Examples[name]
		if !ok {
			t.Errorf("%s: no pinned digest in %s", name, digestFile)
			continue
		}
		g := got.Examples[name]
		for _, d := range []struct{ what, got, want string }{
			{"at its own config", g.Spec, w.Spec},
			{"under the injected storm", g.Storm, w.Storm},
			{"in conservative mode", g.Conservative, w.Conservative},
		} {
			if d.got != d.want {
				moved = true
				t.Errorf("%s %s: report digest %s, pinned %s", name, d.what, d.got, d.want)
			}
		}
		if g.Hash != w.Hash {
			t.Errorf("%s: canonical spec hash %s, pinned %s", name, g.Hash, w.Hash)
		}
	}
	for name := range want.Examples {
		if _, ok := got.Examples[name]; !ok {
			t.Errorf("%s: pinned in %s but no examples/%s/spec.json exists", name, digestFile, name)
		}
	}
	if moved && want.ModelRevision == got.ModelRevision {
		t.Errorf("report bytes moved for an unchanged spec at model revision %d. "+
			"A host-side change must not move them. A deliberate model change must bump "+
			"core.ModelRevision, regenerate %s and list the moved specs in CHANGES.md",
			got.ModelRevision, digestFile)
	}
	if t.Failed() {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s as this build computes it:\n%s", digestFile, b)
	}
}
