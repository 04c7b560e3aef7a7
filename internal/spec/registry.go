package spec

import (
	"fmt"
	"sort"

	"coemu/internal/amba"
	"coemu/internal/bus"
	"coemu/internal/ip"
	"coemu/internal/workload"
)

// The registries mapping spec kind names to the built-in IP blocks and
// workload generators. Each kind supplies three hooks:
//
//   - validate: structural checks on the kind's own parameters;
//   - canon: strip fields the kind does not consume and fill the
//     kind's defaults, so the canonical hash is insensitive to stray
//     or explicitly-defaulted fields;
//   - build: produce a deterministic factory (called once per engine
//     build — the reference build and the split build each get fresh,
//     identically-parameterized instances).
//
// Registration is open: RegisterGenerator/RegisterSlave let an
// embedding program add custom kinds before parsing specs.

type generatorKind struct {
	validate func(*Generator) error
	canon    func(Generator) Generator
	build    func(Generator) func() ip.Generator
}

type slaveKind struct {
	validate func(*Slave) error
	canon    func(Slave) Slave
	build    func(Slave) func() bus.Slave
}

var (
	generatorKinds = map[string]generatorKind{}
	slaveKinds     = map[string]slaveKind{}
)

// RegisterGenerator adds a generator kind to the registry. Registering
// a duplicate kind panics: kinds are program-wide vocabulary.
func RegisterGenerator(kind string, validate func(*Generator) error,
	canon func(Generator) Generator, build func(Generator) func() ip.Generator) {
	if _, dup := generatorKinds[kind]; dup {
		panic(fmt.Sprintf("spec: generator kind %q registered twice", kind))
	}
	if validate == nil || canon == nil || build == nil {
		panic(fmt.Sprintf("spec: generator kind %q: nil hook", kind))
	}
	generatorKinds[kind] = generatorKind{validate, canon, build}
}

// RegisterSlave adds a slave kind to the registry. Registering a
// duplicate kind panics.
func RegisterSlave(kind string, validate func(*Slave) error,
	canon func(Slave) Slave, build func(Slave) func() bus.Slave) {
	if _, dup := slaveKinds[kind]; dup {
		panic(fmt.Sprintf("spec: slave kind %q registered twice", kind))
	}
	if validate == nil || canon == nil || build == nil {
		panic(fmt.Sprintf("spec: slave kind %q: nil hook", kind))
	}
	slaveKinds[kind] = slaveKind{validate, canon, build}
}

// GeneratorKinds lists the registered generator kinds, sorted.
func GeneratorKinds() []string {
	kinds := make([]string, 0, len(generatorKinds))
	for k := range generatorKinds {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	return kinds
}

// SlaveKinds lists the registered slave kinds, sorted.
func SlaveKinds() []string {
	kinds := make([]string, 0, len(slaveKinds))
	for k := range slaveKinds {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	return kinds
}

// parseBurst resolves a burst mnemonic, defaulting empty to SINGLE.
func parseBurst(name string) (amba.Burst, error) {
	if name == "" {
		return amba.BurstSingle, nil
	}
	b, ok := workload.ParseBurst(name)
	if !ok {
		return 0, fmt.Errorf("unknown burst %q", name)
	}
	return b, nil
}

// parseBits resolves a transfer width, defaulting 0 to 32 bits.
func parseBits(bits int) (amba.Size, error) {
	if bits == 0 {
		bits = 32
	}
	sz, ok := workload.ParseSizeBits(bits)
	if !ok {
		return 0, fmt.Errorf("unsupported width %d (want 8, 16 or 32)", bits)
	}
	return sz, nil
}

// windowOf converts a spec window.
func windowOf(w Window) workload.Window {
	return workload.Window{Lo: amba.Addr(w.Lo), Hi: amba.Addr(w.Hi)}
}

func validWindow(w *Window, what string) error {
	if w == nil {
		return fmt.Errorf("missing %s", what)
	}
	if w.Hi <= w.Lo {
		return fmt.Errorf("empty %s [%#x, %#x)", what, uint64(w.Lo), uint64(w.Hi))
	}
	if w.Hi > 1<<32 {
		return fmt.Errorf("%s end %#x beyond the 32-bit address space", what, uint64(w.Hi))
	}
	return nil
}

func init() {
	// stream: workload.NewStream — the unidirectional burst run the
	// paper's prediction thrives on.
	RegisterGenerator("stream",
		func(g *Generator) error {
			if err := validWindow(g.Window, "window"); err != nil {
				return err
			}
			b, err := parseBurst(g.Burst)
			if err != nil {
				return err
			}
			if _, err := parseBits(g.Bits); err != nil {
				return err
			}
			if b == amba.BurstIncr && g.Len <= 0 {
				return fmt.Errorf("INCR burst requires len")
			}
			if g.Len < 0 || g.Gap < 0 || g.Max < 0 {
				return fmt.Errorf("negative len, gap or max")
			}
			return nil
		},
		func(g Generator) Generator {
			b, _ := parseBurst(g.Burst)
			out := Generator{Kind: g.Kind, Window: g.Window, Write: g.Write,
				Burst: burstName(b), Bits: g.Bits, Len: g.Len, Gap: g.Gap, Max: g.Max}
			if out.Bits == 0 {
				out.Bits = 32
			}
			if b != amba.BurstIncr {
				out.Len = 0 // fixed-length bursts derive beats from the type
			}
			return out
		},
		func(g Generator) func() ip.Generator {
			b, _ := parseBurst(g.Burst)
			sz, _ := parseBits(g.Bits)
			win := windowOf(*g.Window)
			write, length, gap, max := g.Write, g.Len, g.Gap, g.Max
			return func() ip.Generator {
				return workload.NewStream(win, write, b, sz, length, gap, max)
			}
		})

	// dma: workload.NewDMACopy — read bursts from src alternating with
	// write bursts to dst.
	RegisterGenerator("dma",
		func(g *Generator) error {
			if err := validWindow(g.Src, "src"); err != nil {
				return err
			}
			if err := validWindow(g.Dst, "dst"); err != nil {
				return err
			}
			b, err := parseBurst(g.Burst)
			if err != nil {
				return err
			}
			if b.Beats() == 0 {
				return fmt.Errorf("dma requires a fixed-length burst, got %q", g.Burst)
			}
			if g.Gap < 0 || g.Max < 0 {
				return fmt.Errorf("negative gap or max")
			}
			return nil
		},
		func(g Generator) Generator {
			b, _ := parseBurst(g.Burst)
			return Generator{Kind: g.Kind, Src: g.Src, Dst: g.Dst,
				Burst: burstName(b), Gap: g.Gap, Max: g.Max}
		},
		func(g Generator) func() ip.Generator {
			b, _ := parseBurst(g.Burst)
			src, dst := windowOf(*g.Src), windowOf(*g.Dst)
			gap, max := g.Gap, g.Max
			return func() ip.Generator {
				return workload.NewDMACopy(src, dst, b, gap, max)
			}
		})

	// cpu: workload.NewCPU — randomized single transfers and short
	// bursts across a window set.
	RegisterGenerator("cpu",
		func(g *Generator) error {
			if len(g.Windows) == 0 {
				return fmt.Errorf("cpu requires at least one window")
			}
			for i := range g.Windows {
				if err := validWindow(&g.Windows[i], fmt.Sprintf("windows[%d]", i)); err != nil {
					return err
				}
			}
			if g.WriteRatio < 0 || g.WriteRatio > 1 {
				return fmt.Errorf("write_ratio %v outside [0, 1]", g.WriteRatio)
			}
			if g.MaxGap < 0 || g.Max < 0 {
				return fmt.Errorf("negative max_gap or max")
			}
			return nil
		},
		func(g Generator) Generator {
			return Generator{Kind: g.Kind, Windows: g.Windows,
				WriteRatio: g.WriteRatio, MaxGap: g.MaxGap, Max: g.Max, Seed: g.Seed}
		},
		func(g Generator) func() ip.Generator {
			wins := make([]workload.Window, len(g.Windows))
			for i, w := range g.Windows {
				wins[i] = windowOf(w)
			}
			ratio, maxGap, max, seed := g.WriteRatio, g.MaxGap, g.Max, g.Seed
			return func() ip.Generator {
				return workload.NewCPU(wins, ratio, maxGap, max, seed)
			}
		})

	// script: workload.ParseScript — a fixed transfer list in the
	// textual script format.
	RegisterGenerator("script",
		func(g *Generator) error {
			if g.Script == "" {
				return fmt.Errorf("script generator requires a script")
			}
			if _, err := workload.ParseScript(g.Script); err != nil {
				return err
			}
			return nil
		},
		func(g Generator) Generator {
			return Generator{Kind: g.Kind, Script: g.Script}
		},
		func(g Generator) func() ip.Generator {
			src := g.Script
			return func() ip.Generator {
				gen, err := workload.ParseScript(src)
				if err != nil {
					panic(err) // validated at spec parse time
				}
				return gen
			}
		})

	// Slave kinds. wait_first/wait_next always feed the predictor
	// profile, and retry_every/split_every its cadence (Compile). The
	// memory kind's constructor draws its waits from the same fields,
	// so that spec cannot desynchronize the model from the component;
	// retry and split take theirs from waits, which the profile must
	// repeat.

	// sram: ip.NewSRAM — a zero-wait memory.
	RegisterSlave("sram",
		func(s *Slave) error {
			if s.WaitFirst != 0 || s.WaitNext != 0 {
				return fmt.Errorf("sram is zero-wait; wait_first/wait_next must be 0")
			}
			return nil
		},
		func(s Slave) Slave {
			return baseSlave(s)
		},
		func(s Slave) func() bus.Slave {
			name := s.Name
			return func() bus.Slave { return ip.NewSRAM(name) }
		})

	// memory: ip.NewMemory — deterministic wait profile.
	RegisterSlave("memory",
		func(s *Slave) error {
			if s.WaitFirst < 0 || s.WaitNext < 0 {
				return fmt.Errorf("negative wait profile")
			}
			return nil
		},
		func(s Slave) Slave {
			out := baseSlave(s)
			out.WaitFirst, out.WaitNext = s.WaitFirst, s.WaitNext
			return out
		},
		func(s Slave) func() bus.Slave {
			name, first, next := s.Name, s.WaitFirst, s.WaitNext
			return func() bus.Slave { return ip.NewMemory(name, first, next) }
		})

	// jitter: ip.NewJitterMemory — pseudo-random extra latency the
	// predictor cannot track.
	RegisterSlave("jitter",
		func(s *Slave) error {
			if s.Base < 0 || s.Spread < 0 {
				return fmt.Errorf("negative base or spread")
			}
			if s.WaitFirst < 0 || s.WaitNext < 0 {
				return fmt.Errorf("negative wait profile")
			}
			return nil
		},
		func(s Slave) Slave {
			out := baseSlave(s)
			out.WaitFirst, out.WaitNext = s.WaitFirst, s.WaitNext
			out.Base, out.Spread, out.Seed = s.Base, s.Spread, s.Seed
			return out
		},
		func(s Slave) func() bus.Slave {
			name, base, spread, seed := s.Name, s.Base, s.Spread, s.Seed
			return func() bus.Slave { return ip.NewJitterMemory(name, base, spread, seed) }
		})

	// retry: ip.NewRetryMemory — RETRYs the first attempt of every
	// retry_every-th beat.
	RegisterSlave("retry",
		func(s *Slave) error {
			if s.Waits < 0 {
				return fmt.Errorf("negative waits")
			}
			if s.RetryEvery <= 0 {
				return fmt.Errorf("retry requires retry_every >= 1")
			}
			if s.WaitFirst < 0 || s.WaitNext < 0 {
				return fmt.Errorf("negative wait profile")
			}
			return nil
		},
		func(s Slave) Slave {
			out := baseSlave(s)
			out.WaitFirst, out.WaitNext = s.WaitFirst, s.WaitNext
			out.Waits, out.RetryEvery = s.Waits, s.RetryEvery
			return out
		},
		func(s Slave) func() bus.Slave {
			name, waits, every := s.Name, s.Waits, s.RetryEvery
			return func() bus.Slave { return ip.NewRetryMemory(name, waits, every) }
		})

	// split: ip.NewSplitMemory — SPLITs every split_every-th beat,
	// releasing the parked master release_after cycles later.
	RegisterSlave("split",
		func(s *Slave) error {
			if s.Waits < 0 {
				return fmt.Errorf("negative waits")
			}
			if s.SplitEvery <= 0 {
				return fmt.Errorf("split requires split_every >= 1")
			}
			if s.ReleaseAfter <= 0 {
				return fmt.Errorf("split requires release_after >= 1")
			}
			if s.WaitFirst < 0 || s.WaitNext < 0 {
				return fmt.Errorf("negative wait profile")
			}
			return nil
		},
		func(s Slave) Slave {
			out := baseSlave(s)
			out.WaitFirst, out.WaitNext = s.WaitFirst, s.WaitNext
			out.Waits, out.SplitEvery, out.ReleaseAfter = s.Waits, s.SplitEvery, s.ReleaseAfter
			return out
		},
		func(s Slave) func() bus.Slave {
			name, waits, every, release := s.Name, s.Waits, s.SplitEvery, s.ReleaseAfter
			return func() bus.Slave { return ip.NewSplitMemory(name, waits, every, release) }
		})

	// error: ip.NewErrorSlave — answers every beat with a two-cycle
	// ERROR.
	RegisterSlave("error",
		func(s *Slave) error { return nil },
		func(s Slave) Slave {
			return baseSlave(s)
		},
		func(s Slave) func() bus.Slave {
			name := s.Name
			return func() bus.Slave { return ip.NewErrorSlave(name) }
		})

	// irq: ip.NewIRQPeriph — a register-file peripheral with a
	// countdown interrupt on the irq_mask line bit.
	RegisterSlave("irq",
		func(s *Slave) error {
			if s.IRQMask == 0 {
				return fmt.Errorf("irq peripheral requires a non-zero irq_mask")
			}
			if s.IRQMask&(s.IRQMask-1) != 0 {
				return fmt.Errorf("irq_mask %#x is not a single line bit", s.IRQMask)
			}
			if s.WaitFirst < 0 || s.WaitNext < 0 {
				return fmt.Errorf("negative wait profile")
			}
			return nil
		},
		func(s Slave) Slave {
			out := baseSlave(s)
			out.WaitFirst, out.WaitNext = s.WaitFirst, s.WaitNext
			out.IRQMask = s.IRQMask
			return out
		},
		func(s Slave) func() bus.Slave {
			name, line := s.Name, s.IRQMask
			return func() bus.Slave { return ip.NewIRQPeriph(name, line) }
		})
}

// baseSlave copies the fields every slave kind shares, dropping all
// kind-specific parameters (the canon hooks add back what they use).
func baseSlave(s Slave) Slave {
	return Slave{Name: s.Name, Domain: s.Domain, Region: s.Region, Kind: s.Kind, Vars: s.Vars}
}

// burstName renders a burst encoding back to its canonical mnemonic.
func burstName(b amba.Burst) string {
	switch b {
	case amba.BurstSingle:
		return "SINGLE"
	case amba.BurstIncr:
		return "INCR"
	case amba.BurstWrap4:
		return "WRAP4"
	case amba.BurstIncr4:
		return "INCR4"
	case amba.BurstWrap8:
		return "WRAP8"
	case amba.BurstIncr8:
		return "INCR8"
	case amba.BurstWrap16:
		return "WRAP16"
	case amba.BurstIncr16:
		return "INCR16"
	default:
		return fmt.Sprintf("Burst(%d)", b)
	}
}
