package serve

import (
	"crypto/sha256"
	"debug/elf"
	"encoding/hex"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestArtifactHasNoDWARF: an artifact is built without DWARF, which
// nothing reads, and keeps the pclntab a child panic symbolizes its stack
// from.
func TestArtifactHasNoDWARF(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a compiled artifact")
	}
	d := smallSoC(t)
	cfg := testConfig()
	bin, err := EnsureArtifact(d, cfg.Gen, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := elf.Open(bin)
	if err != nil {
		t.Skipf("artifact is not an ELF binary on this platform: %v", err)
	}
	defer f.Close()
	if f.Section(".debug_info") != nil {
		t.Error("artifact has a .debug_info section")
	}
	if f.Section(".gopclntab") == nil {
		t.Error("artifact has no .gopclntab: a child panic would print no symbols")
	}
}

// FuzzCacheEntry mutates a sealed cache entry — its meta.json, its
// binary, and which of the two exist — and checks lookup: it returns the
// binary only when the metadata parses and records the binary's SHA-256,
// and otherwise leaves neither file of the entry behind.
func FuzzCacheEntry(f *testing.F) {
	bin := []byte("\x7fELF artifact bytes")
	sum := sha256.Sum256(bin)
	meta, err := json.MarshalIndent(&cacheMeta{Design: "d", Fingerprint: "0123456789abcdef",
		OptsTag: "ccss-cp8", SHA256: hex.EncodeToString(sum[:]), GoVersion: "go1"}, "", "  ")
	if err != nil {
		f.Fatal(err)
	}
	const both = 3 // bit 0: meta.json present, bit 1: the binary present
	f.Add(meta, bin, uint8(both))
	f.Add(meta[:len(meta)/2], bin, uint8(both))
	f.Add(meta, bin[1:], uint8(both))
	f.Add(meta, bin, uint8(2))
	f.Add(meta, bin, uint8(1))
	f.Add([]byte("null"), bin, uint8(both))
	f.Fuzz(func(t *testing.T, meta, bin []byte, layout uint8) {
		cfg := Config{CacheDir: t.TempDir()}
		const key = "entry"
		dir := cfg.cacheDir(key)
		if err := os.MkdirAll(dir, 0o777); err != nil {
			t.Fatal(err)
		}
		if layout&1 != 0 {
			if err := os.WriteFile(filepath.Join(dir, metaName), meta, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if layout&2 != 0 {
			if err := os.WriteFile(filepath.Join(dir, binName), bin, 0o755); err != nil {
				t.Fatal(err)
			}
		}

		var m cacheMeta
		sum := sha256.Sum256(bin)
		valid := layout&both == both && json.Unmarshal(meta, &m) == nil &&
			m.SHA256 == hex.EncodeToString(sum[:])

		got := cfg.lookup(key)
		if valid {
			if got != filepath.Join(dir, binName) {
				t.Fatalf("a valid entry was not served (lookup returned %q)", got)
			}
			if served, err := os.ReadFile(got); err != nil || string(served) != string(bin) {
				t.Fatalf("the served binary changed: %v", err)
			}
			return
		}
		if got != "" {
			t.Fatalf("lookup served %q from an entry whose metadata does not vouch for it", got)
		}
		for _, name := range []string{metaName, binName} {
			if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
				t.Fatalf("%s of a rejected entry was not evicted (stat: %v)", name, err)
			}
		}
	})
}

// TestCacheKeyCoversRuntime: an artifact compiles the runtime packages
// from the repository, so an edit to one of them alone must miss the
// cache. The packages are copied under two roots: the unedited copy keys
// like the repository (the digest reads content, not paths), and one
// byte edited in the other copy's simrt changes the key. runtimePkgs
// must hold every repository package the artifact's imports reach.
func TestCacheKeyCoversRuntime(t *testing.T) {
	d := printfDesign(t)
	repo := repoRoot(t)
	key := func(root string) string {
		cfg := testConfig()
		cfg.RepoRoot = root
		k, err := cfg.cacheKey(d, cfg.Gen)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	copyRuntime := func() string {
		root := t.TempDir()
		if err := os.WriteFile(filepath.Join(root, "go.mod"), []byte("module essent\n\ngo 1.22\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, pkg := range runtimePkgs {
			files, _ := filepath.Glob(filepath.Join(repo, pkg, "*.go"))
			if err := os.MkdirAll(filepath.Join(root, pkg), 0o777); err != nil {
				t.Fatal(err)
			}
			for _, f := range files {
				src, err := os.ReadFile(f)
				if err == nil {
					err = os.WriteFile(filepath.Join(root, pkg, filepath.Base(f)), src, 0o644)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
		}
		return root
	}
	same, edited := copyRuntime(), copyRuntime()
	core := filepath.Join(edited, "pkg", "simrt", "core.go")
	src, err := os.ReadFile(core)
	if err != nil {
		t.Fatal(err)
	}
	src[len(src)-1] = ' '
	if err := os.WriteFile(core, src, 0o644); err != nil {
		t.Fatal(err)
	}
	if key(same) != key(repo) {
		t.Errorf("a copy of the runtime keys %s, the repository %s", key(same), key(repo))
	}
	if key(edited) == key(same) {
		t.Errorf("a one-byte edit to pkg/simrt kept the key %s", key(same))
	}

	out, err := exec.Command("go", "list", "-deps", "essent/pkg/simrt", "essent/pkg/pipeproto").Output()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range strings.Fields(string(out)) {
		if rel, ok := strings.CutPrefix(p, "essent/"); ok && !slices.Contains(runtimePkgs, rel) {
			t.Errorf("an artifact compiles %s, which the cache key does not digest", p)
		}
	}
}
