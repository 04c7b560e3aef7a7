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
)

// The report-digest oracle pins canonical report bytes across builds,
// not just across two runs of one build: testdata/report_digests.json
// records, for every examples/*/spec.json, the sha256 of the canonical
// ReportView JSON at the spec's own config and under an injected
// rollback storm. A host-side refactor that moves a single modeled bit
// fails here with the spec and both digests named.

const digestFile = "testdata/report_digests.json"

// reportDigest is one spec's pair of pinned digests.
type reportDigest struct {
	Spec  string `json:"spec"`
	Storm string `json:"storm"`
}

// stormConfig is the injected storm: every other verdict forced wrong
// on a pinned fault stream, so each transition's snapshot is restored
// about as often as it is taken.
func stormConfig(c *coemu.Config) { c.Accuracy = 0.5; c.FaultSeed = 3 }

// computeReportDigests runs every example spec at its own config and
// under the storm and hashes the canonical report bytes.
func computeReportDigests(t *testing.T) map[string]reportDigest {
	t.Helper()
	sum := func(b []byte) string {
		h := sha256.Sum256(b)
		return hex.EncodeToString(h[:])
	}
	got := make(map[string]reportDigest)
	for name, sp := range exampleSpecs(t) {
		own, _ := runSpec(t, sp, nil)
		storm, _ := runSpec(t, sp, stormConfig)
		got[name] = reportDigest{Spec: sum(own), Storm: sum(storm)}
	}
	return got
}

func TestReportDigestsPinned(t *testing.T) {
	raw, err := os.ReadFile(filepath.FromSlash(digestFile))
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]reportDigest
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", digestFile, err)
	}
	got := computeReportDigests(t)
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: no pinned digest in %s", name, digestFile)
			continue
		}
		g := got[name]
		if g.Spec != w.Spec {
			t.Errorf("%s at its own config: report digest %s, pinned %s", name, g.Spec, w.Spec)
		}
		if g.Storm != w.Storm {
			t.Errorf("%s under the injected storm: report digest %s, pinned %s", name, g.Storm, w.Storm)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: pinned in %s but no examples/%s/spec.json exists", name, digestFile, name)
		}
	}
}
