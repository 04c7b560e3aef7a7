package coemu_test

import (
	"strings"
	"testing"

	"coemu"
	"coemu/internal/trace"
)

// apiDesign builds a small design purely through the public façade.
func apiDesign() coemu.Design {
	return coemu.Design{
		Masters: []coemu.MasterSpec{
			{
				Name:   "dma",
				Domain: coemu.AccDomain,
				NewGen: func() coemu.Generator {
					return coemu.NewStream(coemu.Window{Lo: 0, Hi: 0x2000}, true,
						coemu.BurstIncr8, coemu.Size32, 0, 0, 0)
				},
			},
			{
				Name:   "cpu",
				Domain: coemu.SimDomain,
				NewGen: func() coemu.Generator {
					return coemu.NewCPU([]coemu.Window{{Lo: 0, Hi: 0x2000}}, 0.5, 3, 0, 42)
				},
			},
		},
		Slaves: []coemu.SlaveSpec{
			{
				Name:   "mem",
				Domain: coemu.SimDomain,
				Region: coemu.Region{Lo: 0, Hi: 0x4000},
				New:    func() coemu.Slave { return coemu.NewSRAM("mem") },
			},
			{
				Name:    "timer",
				Domain:  coemu.AccDomain,
				Region:  coemu.Region{Lo: 0x8000, Hi: 0x8100},
				New:     func() coemu.Slave { return coemu.NewIRQPeriph("timer", 0x2) },
				IRQMask: 0x2, WaitFirst: 1, WaitNext: 1,
			},
		},
	}
}

func TestPublicAPIRunAndEquivalence(t *testing.T) {
	d := apiDesign()
	ref, err := coemu.RunReference(d, 800)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := coemu.Run(d, coemu.Config{Mode: coemu.Auto, KeepTrace: true, CheckProtocol: true}, 800)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Perf() <= 0 {
		t.Fatal("no performance reported")
	}
	if d := diffTraces("ref", "coemu", ref, rep.Trace); d != "" {
		t.Fatal(d)
	}
}

// diffTraces returns "" when a and b agree cycle for cycle and in
// length, and otherwise trace.WriteDiffReport's account of the first
// divergence with two cycles of context either side.
func diffTraces(nameA, nameB string, a, b []coemu.CycleState) string {
	if trace.Diff(a, b).Identical() {
		return ""
	}
	var report strings.Builder
	trace.WriteDiffReport(&report, nameA, nameB, a, b, 2)
	return report.String()
}

func TestPublicAPIModesOrdering(t *testing.T) {
	// Sanity ordering on a predictable workload: optimistic modes beat
	// conservative.
	d := coemu.Design{
		Masters: []coemu.MasterSpec{{
			Name: "dma", Domain: coemu.AccDomain,
			NewGen: func() coemu.Generator {
				return coemu.NewStream(coemu.Window{Lo: 0, Hi: 0x8000}, true,
					coemu.BurstIncr8, coemu.Size32, 0, 0, 0)
			},
		}},
		Slaves: []coemu.SlaveSpec{{
			Name: "mem", Domain: coemu.SimDomain,
			Region: coemu.Region{Lo: 0, Hi: 0x10000},
			New:    func() coemu.Slave { return coemu.NewSRAM("mem") },
		}},
	}
	conv, err := coemu.Run(d, coemu.Config{Mode: coemu.Conservative}, 3000)
	if err != nil {
		t.Fatal(err)
	}
	als, err := coemu.Run(d, coemu.Config{Mode: coemu.ALS}, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if als.Perf() < 2*conv.Perf() {
		t.Fatalf("ALS %.0f should dominate conventional %.0f", als.Perf(), conv.Perf())
	}
}

func TestPublicAnalytics(t *testing.T) {
	rows := coemu.Table2()
	if len(rows) != 8 || rows[0].Ratio < 15 {
		t.Fatalf("Table2 head ratio = %v", rows[0].Ratio)
	}
	if got := coemu.HeadlineGainPercent(); got < 1400 || got > 1700 {
		t.Fatalf("headline gain = %v", got)
	}
	if len(coemu.Figure4()) != 4 {
		t.Fatal("Figure4 series count")
	}
	if len(coemu.SLAClaims()) != 2 {
		t.Fatal("SLA claims count")
	}
	stack := coemu.IPROVEStack()
	if stack.Startup().Microseconds() != 12 { // 12.2 µs truncates to 12
		t.Fatalf("stack startup = %v", stack.Startup())
	}
	if coemu.AnalyticDefaults().LOBDepthWords != 64 {
		t.Fatal("analytic defaults")
	}
}

func TestPublicTraceWriters(t *testing.T) {
	d := apiDesign()
	rep, err := coemu.Run(d, coemu.Config{Mode: coemu.Conservative, KeepTrace: true}, 50)
	if err != nil {
		t.Fatal(err)
	}
	var vcd, csv strings.Builder
	if err := coemu.WriteVCD(&vcd, "ahb", rep.Trace, 10); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(vcd.String(), "$enddefinitions") {
		t.Fatal("VCD missing definitions")
	}
	if err := coemu.WriteTraceCSV(&csv, rep.Trace); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(csv.String(), "\n"); got != 51 {
		t.Fatalf("CSV has %d lines, want 51", got)
	}
}

func TestPublicComponentConstructors(t *testing.T) {
	if coemu.NewMemory("m", 1, 2) == nil ||
		coemu.NewJitterMemory("j", 1, 2, 3) == nil ||
		coemu.NewRetryMemory("r", 0, 2) == nil ||
		coemu.NewErrorSlave("e") == nil ||
		coemu.NewIRQPeriph("p", 1) == nil {
		t.Fatal("constructor returned nil")
	}
	if coemu.NewSequence(coemu.Xfer{Addr: 4}) == nil ||
		coemu.NewDMACopy(coemu.Window{Lo: 0, Hi: 0x100}, coemu.Window{Lo: 0x200, Hi: 0x300}, coemu.BurstIncr4, 0, 0) == nil {
		t.Fatal("generator constructor returned nil")
	}
}
