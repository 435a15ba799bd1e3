package serve

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"essent/internal/codegen"
	"essent/internal/netlist"
)

// moduleRoots memoizes moduleRoot by Go tool: the cache key needs the
// root on every lookup, and a warm lookup must not wait for the toolchain.
var moduleRoots sync.Map

// moduleRoot locates the essent repository root (the directory holding
// go.mod) so the artifact module can `replace essent` to it, once per
// process. Config.RepoRoot overrides for callers running outside the
// module tree.
func (c *Config) moduleRoot() (string, error) {
	if c.RepoRoot != "" {
		return c.RepoRoot, nil
	}
	if root, ok := moduleRoots.Load(c.goTool()); ok {
		return root.(string), nil
	}
	out, err := exec.Command(c.goTool(), "env", "GOMOD").Output()
	if err != nil {
		return "", fmt.Errorf("locating module root: %w", err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == os.DevNull {
		return "", fmt.Errorf("not inside a Go module (go env GOMOD empty)")
	}
	moduleRoots.Store(c.goTool(), filepath.Dir(gomod))
	return filepath.Dir(gomod), nil
}

func (c *Config) goTool() string {
	if c.GoTool != "" {
		return c.GoTool
	}
	return "go"
}

func (c *Config) buildTimeout() time.Duration {
	if c.BuildTimeout > 0 {
		return c.BuildTimeout
	}
	return 5 * time.Minute
}

func (c *Config) maxRetries() int {
	if c.MaxRetries > 0 {
		return c.MaxRetries
	}
	return 2
}

// EnsureArtifact returns a runnable artifact binary for the design +
// generation options, building (with retry + backoff) on cache miss and
// transparently evicting + rebuilding corrupt entries. The fast path —
// a validated cache hit — does no codegen and no toolchain work.
func EnsureArtifact(d *netlist.Design, gen codegen.Options, cfg Config) (string, error) {
	key, err := cfg.cacheKey(d, gen)
	if err != nil {
		return "", &BuildError{Design: d.Name, Err: err}
	}
	if bin := cfg.lookup(key); bin != "" {
		return bin, nil
	}
	var lastErr error
	var lastOut string
	attempts := 0
	for attempt := 0; attempt <= cfg.maxRetries(); attempt++ {
		if attempt > 0 {
			cfg.Backoff.Sleep(attempt - 1)
		}
		attempts++
		out, err := cfg.buildOnce(key, d, gen)
		if err == nil {
			return filepath.Join(cfg.cacheDir(key), binName), nil
		}
		lastErr, lastOut = err, out
	}
	return "", &BuildError{Design: d.Name, Attempts: attempts,
		Output: lastOut, Err: lastErr}
}

// buildOnce emits the artifact sources, writes the module, and compiles
// it in a private temp directory, then atomically renames the complete
// entry into the keyed cache slot. Concurrent builders of the same key
// never interleave writes — each builds in isolation, whichever commits
// first wins, and lookup can only ever observe a whole entry. Returns
// the compiler output on failure.
func (c *Config) buildOnce(key string, d *netlist.Design, gen codegen.Options) (string, error) {
	simSrc, mainSrc, err := codegen.GenerateArtifact(d, gen)
	if err != nil {
		return "", err
	}
	root, err := c.moduleRoot()
	if err != nil {
		return "", err
	}
	finalDir := c.cacheDir(key)
	if err := os.MkdirAll(filepath.Dir(finalDir), 0o777); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(filepath.Dir(finalDir), "."+key+".build-")
	if err != nil {
		return "", err
	}
	defer os.RemoveAll(dir) // no-op once the rename claims it
	src := filepath.Join(dir, srcDir)
	if err := os.MkdirAll(src, 0o777); err != nil {
		return "", err
	}
	gomod := fmt.Sprintf(
		"module essent-artifact\n\ngo 1.22\n\nrequire essent v0.0.0\n\nreplace essent => %s\n",
		root)
	files := map[string][]byte{
		"go.mod":  []byte(gomod),
		"sim.go":  simSrc,
		"main.go": mainSrc,
	}
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(src, name), content, 0o644); err != nil {
			return "", err
		}
	}

	// Nothing reads the artifact's DWARF: a child panic still prints a
	// symbolized stack from the pclntab, which -s -w keeps.
	bin := filepath.Join(dir, binName)
	cmd := exec.Command(c.goTool(), "build", "-ldflags=-s -w", "-gcflags=-dwarf=false", "-o", bin, ".")
	cmd.Dir = src
	cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod")
	var outBuf bytes.Buffer
	cmd.Stdout = &outBuf
	cmd.Stderr = &outBuf
	done := make(chan error, 1)
	if err := cmd.Start(); err != nil {
		return "", err
	}
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return outBuf.String(), fmt.Errorf("go build: %w", err)
		}
	case <-time.After(c.buildTimeout()):
		cmd.Process.Kill()
		<-done
		return outBuf.String(), fmt.Errorf("go build timed out after %v", c.buildTimeout())
	}
	if err := c.seal(dir, d, gen); err != nil {
		return "", fmt.Errorf("sealing cache entry: %w", err)
	}
	// Commit: publish the sealed entry with one atomic rename. If the
	// slot is already occupied by a validated entry, a concurrent builder
	// won the race and its artifact is just as good — keep it.
	if err := os.Rename(dir, finalDir); err != nil {
		if c.lookup(key) != "" {
			return "", nil
		}
		os.RemoveAll(finalDir) // stale or corrupt occupant
		if err := os.Rename(dir, finalDir); err != nil {
			return "", fmt.Errorf("committing cache entry: %w", err)
		}
	}
	return "", nil
}
