package experiments

import (
	"io/fs"
	"strings"
	"testing"

	"coemu"
	"coemu/internal/spec"
	"coemu/internal/trace"
)

// checkCycles bounds each point's reference check, well short of the
// documents' own budgets (up to 100,000 cycles), so the suite stays
// fast.
const checkCycles = 1000

// TestDocumentsRunLikeTheReference parses every embedded document as a
// sweep, expands it, compiles every point and runs it against the
// monolithic reference model: the merged co-emulation trace must equal
// the reference cycle for cycle. A document that no longer parses,
// expands, compiles or runs fails here, not in a tool that embeds it.
func TestDocumentsRunLikeTheReference(t *testing.T) {
	names, err := fs.Glob(FS, "*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) == 0 {
		t.Fatal("no documents embedded")
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			data, err := FS.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			ss, err := spec.ParseSweep(data)
			if err != nil {
				t.Fatal(err)
			}
			points, err := ss.Expand()
			if err != nil {
				t.Fatal(err)
			}
			for _, sp := range points {
				d, cfg, err := sp.Compile()
				if err != nil {
					t.Fatalf("%s: %v", sp.Name, err)
				}
				want, err := coemu.RunReference(d, checkCycles)
				if err != nil {
					t.Fatalf("%s: reference: %v", sp.Name, err)
				}
				cfg.KeepTrace = true
				rep, err := coemu.Run(d, cfg, checkCycles)
				if err != nil {
					t.Fatalf("%s: %v", sp.Name, err)
				}
				if !trace.Diff(want, rep.Trace).Identical() {
					var report strings.Builder
					trace.WriteDiffReport(&report, "ref", "coemu", want, rep.Trace, 2)
					t.Fatalf("%s: trace diverges from the reference: %s", sp.Name, report.String())
				}
			}
		})
	}
}
