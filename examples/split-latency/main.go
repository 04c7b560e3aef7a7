// split-latency: AHB SPLIT transactions across the domain boundary. A
// long-latency memory controller in the simulator parks the RTL master
// with SPLIT responses; while the master is split-masked a second
// master keeps the bus busy; the HSPLITx release pulses travel as MSABS
// members over the co-emulation channel.
//
//	go run ./examples/split-latency
package main

import (
	"fmt"
	"log"

	"coemu"
)

func main() {
	design := coemu.Design{
		Masters: []coemu.MasterSpec{
			{
				// High priority, but keeps getting split by the slow
				// controller.
				Name:   "fetcher",
				Domain: coemu.AccDomain,
				NewGen: func() coemu.Generator {
					return coemu.NewStream(coemu.Window{Lo: 0, Hi: 0x8000},
						true, coemu.BurstIncr8, coemu.Size32, 0, 0, 0)
				},
			},
			{
				// Low priority; overtakes whenever the fetcher is parked.
				Name:   "logger",
				Domain: coemu.SimDomain,
				NewGen: func() coemu.Generator {
					return coemu.NewStream(coemu.Window{Lo: 0x10000, Hi: 0x12000},
						true, coemu.BurstIncr4, coemu.Size32, 0, 1, 0)
				},
			},
		},
		Slaves: []coemu.SlaveSpec{
			{
				// Splits every 4th beat, releasing after 12 cycles —
				// an abstract DRAM controller hiding bank conflicts.
				Name:      "dramc",
				Domain:    coemu.SimDomain,
				Region:    coemu.Region{Lo: 0, Hi: 0x10000},
				New:       func() coemu.Slave { return coemu.NewSplitMemory("dramc", 1, 4, 12) },
				WaitFirst: 1, WaitNext: 1,
				Cadence: coemu.SplitEvery(4),
			},
			{
				Name:   "sram",
				Domain: coemu.AccDomain,
				Region: coemu.Region{Lo: 0x10000, Hi: 0x14000},
				New:    func() coemu.Slave { return coemu.NewSRAM("sram") },
			},
		},
	}

	// Prove cycle-exactness with SPLIT machinery in the loop.
	const check = 2500
	ref, err := coemu.RunReference(design, check)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := coemu.Run(design, coemu.Config{Mode: coemu.Auto, KeepTrace: true}, check)
	if err != nil {
		log.Fatal(err)
	}
	splitsSeen, releases := 0, 0
	for i := range ref {
		if !ref[i].Equal(rep.Trace[i]) {
			log.Fatalf("trace diverged at cycle %d", i)
		}
		if ref[i].Reply.Resp == 3 && ref[i].Reply.Ready { // second SPLIT cycle
			splitsSeen++
		}
		if ref[i].Split != 0 {
			releases++
		}
	}
	fmt.Printf("equivalence holds through %d SPLIT responses and %d HSPLITx releases\n",
		splitsSeen, releases)

	const cycles = 30000
	conv, err := coemu.Run(design, coemu.Config{Mode: coemu.Conservative}, cycles)
	if err != nil {
		log.Fatal(err)
	}
	auto, err := coemu.Run(design, coemu.Config{Mode: coemu.Auto}, cycles)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("conventional %.1f kcycles/s, auto %.1f kcycles/s (%.2fx)\n",
		conv.Perf()/1e3, auto.Perf()/1e3, auto.Perf()/conv.Perf())
	fmt.Printf("rollbacks: %d (the leader runs the controller's timing automaton, so it predicts every remote SPLIT)\n",
		auto.Stats.Rollbacks)
	fmt.Println("\nSPLIT responses park the fetcher; the HSPLITx release crosses the")
	fmt.Println("channel as an MSABS member, exactly as the paper's signal grouping")
	fmt.Println("(Figure 1) requires.")
}
