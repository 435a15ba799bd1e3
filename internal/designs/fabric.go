package designs

import (
	"fmt"

	"essent/internal/dsl"
	"essent/internal/firrtl"
)

// FabricConfig parameterizes the interrupt-fabric design: a
// control-dominated block whose combinational logic is almost entirely
// 1-bit (pending/mask/grant chains, a token ring, parity trees). It is
// the 1-bit-heavy control design of the registry: the sa and gen sweeps
// and the SA and opt goldens run it beside the SoCs, whose logic is mostly
// datapath.
type FabricConfig struct {
	// Name becomes the circuit/top-module name.
	Name string
	// Sources is the number of interrupt sources (pending/mask/grant
	// columns and token-ring stages).
	Sources int
}

// Fabric is the registry's default configuration ("fab").
func Fabric() FabricConfig { return FabricConfig{Name: "fab", Sources: 64} }

// Well-known fabric port names.
const (
	FabricSeedInput = "seed"
	FabricExtInput  = "ext"
	FabricIrqOutput = "irq"
	FabricParOutput = "parity"
)

// BuildFabric generates the interrupt-fabric circuit: a 16-bit LFSR
// stimulates per-source pulse lines; each source keeps 1-bit pending and
// mask registers; a priority chain and a rotating token ring each grant
// one source per cycle; grants clear pending bits. Everything downstream
// of the LFSR's bit taps is 1-bit boolean logic. The seed input XORs
// into the LFSR feedback, so poking distinct seeds per lane makes lanes
// diverge while sharing one schedule.
func BuildFabric(cfg FabricConfig) (*firrtl.Circuit, error) {
	if cfg.Sources < 2 {
		return nil, fmt.Errorf("designs: fabric needs at least 2 sources")
	}
	m := dsl.NewModule(cfg.Name)
	m.Input("reset", 1)
	seed := m.Input(FabricSeedInput, 16)
	ext := m.Input(FabricExtInput, 1)
	irqOut := m.Output(FabricIrqOutput, 1)
	parOut := m.Output(FabricParOutput, 1)

	// Stimulus LFSR (x^16 + x^15 + x^13 + x^4 + 1), perturbed by seed.
	lfsr := m.RegInit("lfsr", 16, 0xACE1)
	fb := m.Named("lfsrFb",
		lfsr.Bit(15).Xor(lfsr.Bit(14)).Xor(lfsr.Bit(12)).Xor(lfsr.Bit(3)))
	m.Connect(lfsr, lfsr.Shl(1).Bits(15, 0).Or(fb).Xor(seed).Bits(15, 0))

	// Tap the LFSR bits once; all per-source logic reads the taps, so the
	// only wide→1-bit extractions are these 16 nodes.
	taps := make([]dsl.Signal, 16)
	for i := range taps {
		taps[i] = m.Named(fmt.Sprintf("tap%d", i), lfsr.Bit(i))
	}
	enable := m.Named("enable", ext.Or(taps[0]).Bits(0, 0))
	spin := m.Named("spin", taps[1])

	n := cfg.Sources
	pending := make([]dsl.Signal, n)
	mask := make([]dsl.Signal, n)
	token := make([]dsl.Signal, n)
	eff := make([]dsl.Signal, n)
	for i := 0; i < n; i++ {
		pending[i] = m.RegInit(fmt.Sprintf("pend%d", i), 1, 0)
		mask[i] = m.RegInit(fmt.Sprintf("mask%d", i), 1, 0)
		init := uint64(0)
		if i == 0 {
			init = 1
		}
		token[i] = m.RegInit(fmt.Sprintf("tok%d", i), 1, init)
		// Effective request: pending, unmasked, fabric enabled.
		eff[i] = m.Named(fmt.Sprintf("eff%d", i),
			pending[i].And(mask[i].Not()).And(enable))
	}

	// Fixed-priority chain: source i is granted when effective and no
	// lower-numbered source is.
	grant := make([]dsl.Signal, n)
	taken := m.Lit(0, 1)
	for i := 0; i < n; i++ {
		grant[i] = m.Named(fmt.Sprintf("gnt%d", i), eff[i].And(taken.Not()))
		taken = m.Named(fmt.Sprintf("tkn%d", i), taken.Or(eff[i]))
	}

	// Round-robin ring: the token rotates while spinning; a source
	// holding the token and requesting wins the second grant port.
	rr := make([]dsl.Signal, n)
	for i := 0; i < n; i++ {
		rr[i] = m.Named(fmt.Sprintf("rr%d", i), eff[i].And(token[i]))
		m.Connect(token[i], spin.Mux(token[(i+n-1)%n], token[i]))
	}

	// State updates: pulses set pending, grants clear it; a granted
	// source's mask toggles on spin ticks (rare mask churn).
	parity := m.Lit(0, 1)
	for i := 0; i < n; i++ {
		pulse := m.Named(fmt.Sprintf("pulse%d", i),
			taps[i%16].And(taps[(i*5+3)%16]))
		clear := m.Named(fmt.Sprintf("clr%d", i), grant[i].Or(rr[i]))
		m.Connect(pending[i],
			pending[i].Or(pulse).And(clear.Not()).Bits(0, 0))
		m.Connect(mask[i], mask[i].Xor(grant[i].And(spin)).Bits(0, 0))
		parity = m.Named(fmt.Sprintf("par%d", i),
			parity.Xor(pending[i]).Xor(grant[i]).Bits(0, 0))
	}

	m.Connect(irqOut, taken)
	m.Connect(parOut, parity)
	return &firrtl.Circuit{Name: cfg.Name, Modules: []*firrtl.Module{m.Build()}}, nil
}
