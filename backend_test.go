package essent

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"essent/internal/codegen"
	"essent/internal/designs"
	"essent/internal/netlist"
	"essent/internal/opt"
	"essent/internal/serve"
)

const backendTestSrc = `
circuit BK :
  module BK :
    input clock : Clock
    input in : UInt<8>
    output o : UInt<8>
    reg acc : UInt<8>, clock
    acc <= tail(add(acc, in), 1)
    o <= acc
`

// TestArtifactGenFullCycleOptions: the two full-cycle engines hand the
// generator different options — hence different cache keys, which are a
// function of them — and the same two option sets as the "Baseline" and
// "Verilator" arms of internal/exp's gencp experiment: no mux shadowing on
// the Baseline, register-update elision on the optimized engine, as in
// their interpreters.
func TestArtifactGenFullCycleOptions(t *testing.T) {
	base, ok1 := artifactGen(Options{Engine: EngineBaseline})
	opt, ok2 := artifactGen(Options{Engine: EngineFullCycleOpt})
	if !ok1 || !ok2 {
		t.Fatal("a full-cycle engine has no compiled equivalent")
	}
	if want := (codegen.Options{Mode: codegen.ModeFullCycle, NoMuxShadow: true}); base != want {
		t.Errorf("baseline generates with %+v, want %+v", base, want)
	}
	if want := (codegen.Options{Mode: codegen.ModeFullCycle, Elide: true}); opt != want {
		t.Errorf("fullcycle-opt generates with %+v, want %+v", opt, want)
	}
}

// TestOneGeneratedProgram: the generator prints one program per design
// and option set. Under each shape artifactGen maps, Generate as package
// main is byte for byte the sim.go GenerateArtifact returns for r16.
func TestOneGeneratedProgram(t *testing.T) {
	circ, err := designs.Build(designs.R16())
	if err != nil {
		t.Fatal(err)
	}
	raw, err := netlist.Compile(circ)
	if err != nil {
		t.Fatal(err)
	}
	d, _, err := opt.Optimize(raw)
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range []Engine{EngineESSENT, EngineBaseline, EngineFullCycleOpt} {
		gen, ok := artifactGen(Options{Engine: engine, Cp: 8})
		if !ok {
			t.Fatalf("%v: no compiled equivalent", engine)
		}
		simSrc, _, err := codegen.GenerateArtifact(d, gen)
		if err != nil {
			t.Fatal(err)
		}
		gen.Package = "main"
		src, err := codegen.Generate(d, gen)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(src, simSrc) {
			t.Errorf("%v: Generate prints %d bytes, GenerateArtifact's sim.go %d", engine, len(src), len(simSrc))
		}
	}
}

// TestBackendCompiledMatchesInterp runs the same stimulus through the
// compiled subprocess backend and the in-process interpreter via the
// public facade, on every engine with a compiled equivalent.
func TestBackendCompiledMatchesInterp(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a compiled artifact")
	}
	for _, e := range []Engine{EngineESSENT, EngineBaseline, EngineFullCycleOpt} {
		t.Run(e.String(), func(t *testing.T) { compiledMatchesInterp(t, e) })
	}
}

func compiledMatchesInterp(t *testing.T, engine Engine) {
	cache := t.TempDir()
	cs, err := Compile(backendTestSrc, Options{Engine: engine,
		Backend: "compiled", ArtifactCacheDir: cache})
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	if cs.Degraded() {
		t.Fatalf("compiled backend degraded at start: %+v", cs.BackendDegradation())
	}
	is, err := Compile(backendTestSrc, Options{Engine: engine})
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 50; c++ {
		v := uint64(c * 7 % 251)
		if err := cs.Poke("in", v); err != nil {
			t.Fatal(err)
		}
		if err := is.Poke("in", v); err != nil {
			t.Fatal(err)
		}
		if err := cs.Step(3); err != nil {
			t.Fatal(err)
		}
		if err := is.Step(3); err != nil {
			t.Fatal(err)
		}
		cv, err := cs.Peek("o")
		if err != nil {
			t.Fatal(err)
		}
		iv, err := is.Peek("o")
		if err != nil {
			t.Fatal(err)
		}
		if cv != iv {
			t.Fatalf("cycle %d: compiled o=%d interp o=%d", c*3, cv, iv)
		}
	}
	// The artifact is a printing of the program the interpreter executes:
	// every counter agrees, not only Cycles.
	if cst, ist := cs.Stats(), is.Stats(); cst != ist {
		t.Fatalf("Stats differ:\ncompiled %+v\ninterp   %+v", cst, ist)
	}
	if rec := cs.BackendDegradation(); rec != nil {
		t.Fatalf("unexpected degradation: %+v", rec)
	}
}

// TestResetClearsStats pins the one meaning of Reset: on every engine,
// and on the served compiled backend, it zeroes the run counters along
// with the architectural state, so a reused simulator reports only the new run
// and the interpreter and compiled backends agree on Stats after it.
func TestResetClearsStats(t *testing.T) {
	type arm struct {
		name string
		opts Options
	}
	var arms []arm
	for _, e := range []Engine{EngineEventDriven, EngineBaseline, EngineFullCycleOpt,
		EngineESSENT, EngineESSENTParallel, EngineESSENTVec} {
		arms = append(arms, arm{e.String(), Options{Engine: e, Workers: 2}})
	}
	if !testing.Short() {
		arms = append(arms, arm{"essent/compiled", Options{Engine: EngineESSENT,
			Backend: "compiled", ArtifactCacheDir: t.TempDir()}})
	}
	run := func(t *testing.T, s *Sim, cycles int) Stats {
		t.Helper()
		for c := 0; c < cycles; c++ {
			if err := s.Poke("in", uint64(c*7%251)); err != nil {
				t.Fatal(err)
			}
			if err := s.Step(1); err != nil {
				t.Fatal(err)
			}
		}
		return s.Stats()
	}
	for _, a := range arms {
		a := a
		t.Run(a.name, func(t *testing.T) {
			s, err := Compile(backendTestSrc, a.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			first := run(t, s, 40)
			if first.Cycles != 40 || first.OpsEvaluated == 0 {
				t.Fatalf("no work recorded before Reset: %+v", first)
			}
			s.Reset()
			if got := s.Stats(); got != (Stats{}) {
				t.Fatalf("Reset left stale counters: %+v", got)
			}
			// The counters restart, they do not merely rewind: the same
			// stimulus from reset reproduces the first run's Stats.
			if again := run(t, s, 40); again != first {
				t.Fatalf("second run after Reset differs:\nfirst %+v\nagain %+v", first, again)
			}
			if s.Degraded() {
				t.Fatalf("degraded: %+v", s.BackendDegradation())
			}
		})
	}
}

// TestBackendAutoColdCache checks the auto backend runs (on the
// interpreter) when no artifact is cached yet.
func TestBackendAutoColdCache(t *testing.T) {
	opts := Options{Engine: EngineESSENT, Backend: "auto", ArtifactCacheDir: t.TempDir()}
	s, err := Compile(backendTestSrc, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Step(10); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Cycles; got != 10 {
		t.Fatalf("cycles = %d, want 10", got)
	}
	// The cold run must also have warmed the cache.
	waitForArtifact(t, s, opts)
}

// waitForArtifact blocks until the background warm-up of an auto-backend
// compile has landed its artifact, so the builder is not still writing
// into the test's temp directory when cleanup removes it.
func waitForArtifact(t *testing.T, s *Sim, opts Options) {
	t.Helper()
	gen, _ := artifactGen(opts)
	cfg := serve.Config{Gen: gen, CacheDir: opts.ArtifactCacheDir}
	for deadline := time.Now().Add(2 * time.Minute); !serve.Probe(s.d, gen, cfg); {
		if time.Now().After(deadline) {
			t.Fatal("background warm-up never produced an artifact")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestEditedCircuitMissesArtifactCache: two circuits with the same state
// layout and different logic (acc+in, acc-in) must not share a cached
// artifact. Compiled one after the other against one cache directory,
// each backend must compute its own circuit's result.
func TestEditedCircuitMissesArtifactCache(t *testing.T) {
	if testing.Short() {
		t.Skip("builds compiled artifacts")
	}
	edited := strings.Replace(backendTestSrc, "add(acc, in)", "sub(acc, in)", 1)
	for _, backend := range []string{"compiled", "auto"} {
		t.Run(backend, func(t *testing.T) {
			opts := Options{Engine: EngineESSENT, Backend: backend, ArtifactCacheDir: t.TempDir()}
			for _, tc := range []struct {
				src  string
				want uint64
			}{{backendTestSrc, 12}, {edited, 244}} {
				s, err := Compile(tc.src, opts)
				if err != nil {
					t.Fatal(err)
				}
				if backend == "auto" {
					// The first compile of each text is a cold miss served by the
					// interpreter; compile again once its artifact has landed, so
					// the answer below comes from the cache.
					waitForArtifact(t, s, opts)
					s.Close()
					if s, err = Compile(tc.src, opts); err != nil {
						t.Fatal(err)
					}
				}
				if err := s.Poke("in", 6); err != nil {
					t.Fatal(err)
				}
				if err := s.Step(3); err != nil {
					t.Fatal(err)
				}
				got, err := s.Peek("o")
				if err != nil {
					t.Fatal(err)
				}
				if got != tc.want || s.Degraded() {
					t.Fatalf("o = %d (degraded %v), want %d: served another circuit's artifact",
						got, s.Degraded(), tc.want)
				}
				s.Close()
			}
		})
	}
}

// TestBackendValidation covers flag-level rejection.
func TestBackendValidation(t *testing.T) {
	if _, err := ParseBackend("hw-accel"); err == nil {
		t.Fatal("ParseBackend accepted an unknown backend")
	}
	for _, alias := range []string{"", "interp", "interpreter", "compiled", "auto"} {
		if _, err := ParseBackend(alias); err != nil {
			t.Fatalf("ParseBackend(%q) = %v", alias, err)
		}
	}
	_, err := Compile(backendTestSrc, Options{Engine: EngineESSENTVec,
		Backend: "compiled"})
	if err == nil || !strings.Contains(err.Error(), "compiled backend") {
		t.Fatalf("vec engine + compiled backend: err = %v, want unsupported-engine error", err)
	}
}
