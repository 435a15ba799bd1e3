package serve

import (
	"crypto/sha256"
	"debug/elf"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
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
