package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"

	"essent/internal/codegen"
	"essent/internal/netlist"
	"essent/internal/sim"
)

// cacheMeta sits next to each cached artifact binary and makes the
// cache self-validating: a hit is only served when the recorded SHA-256
// matches the bytes on disk, so a torn write or bit rot evicts and
// rebuilds instead of spawning a corrupt binary.
type cacheMeta struct {
	Design      string `json:"design"`
	Fingerprint string `json:"fingerprint"`
	OptsTag     string `json:"opts"`
	SHA256      string `json:"sha256"`
	GoVersion   string `json:"go_version"`
}

const (
	binName  = "artifact.bin"
	metaName = "meta.json"
	srcDir   = "src"
)

// cacheKey names the cache entry for a design + generation options
// pair: a digest of everything the generator prints from, the options
// tag covering every generation knob, the generator's format version and
// a digest of the runtime the artifact compiles from the repository, so
// an edit to the circuit's logic, a different knob, a different
// generator and a different runtime each get their own slot.
// (sim.DesignFingerprint is not enough: it covers the state layout — the
// snapshot-compatibility contract — and two circuits that differ only in
// logic share it.)
func (c *Config) cacheKey(d *netlist.Design, gen codegen.Options) (string, error) {
	root, err := c.moduleRoot()
	if err != nil {
		return "", err
	}
	rt, err := runtimeDigest(root)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%x-%s-g%d-r%s", designDigest(d), optsTag(gen), codegen.FormatVersion, rt), nil
}

// runtimePkgs are the repository packages an artifact compiles (its go.mod
// replaces essent with the repository): the runtime the generated code
// calls, the codec and the protocol, and what they import.
var runtimePkgs = []string{"pkg/simrt", "pkg/ckptio", "pkg/pipeproto", "internal/bits"}

// runtimeDigests memoizes runtimeDigest by module root.
var runtimeDigests sync.Map

// runtimeDigest hashes the non-test Go files of runtimePkgs under root,
// once per process and root.
func runtimeDigest(root string) (string, error) {
	if d, ok := runtimeDigests.Load(root); ok {
		return d.(string), nil
	}
	h := sha256.New()
	for _, pkg := range runtimePkgs {
		files, _ := filepath.Glob(filepath.Join(root, pkg, "*.go")) // sorted; the pattern is valid
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			src, err := os.ReadFile(f)
			if err != nil {
				return "", err
			}
			fmt.Fprintf(h, "%s/%s %d\n", pkg, filepath.Base(f), len(src))
			h.Write(src)
		}
	}
	d := hex.EncodeToString(h.Sum(nil)[:6])
	runtimeDigests.Store(root, d)
	return d, nil
}

// designDigest hashes the content of a design: every signal with its
// defining op, operands and parameters, the constant pool, register
// inits and edge resets, memories and their ports, sinks and port lists
// — the whole input of a deterministic generator. It walks the netlist
// once and never runs the generator, so a warm cache hit stays a lookup.
func designDigest(d *netlist.Design) []byte {
	buf := make([]byte, 0, 32*len(d.Signals))
	u := func(vs ...int) {
		for _, v := range vs {
			buf = binary.AppendVarint(buf, int64(v))
		}
	}
	str := func(s string) { u(len(s)); buf = append(buf, s...) }
	words := func(ws []uint64) {
		u(len(ws))
		for _, w := range ws {
			buf = binary.LittleEndian.AppendUint64(buf, w)
		}
	}
	b := func(v bool) int {
		if v {
			return 1
		}
		return 0
	}
	args := func(as ...netlist.Arg) {
		u(len(as))
		for _, a := range as {
			u(int(a.Sig), int(a.Const))
		}
	}
	str(d.Name)
	u(len(d.Signals))
	for i := range d.Signals {
		s := &d.Signals[i]
		str(s.Name)
		u(s.Width, int(s.Kind), s.Reg, s.MemRead, b(s.Signed), b(s.IsOutput), b(s.Op != nil))
		if op := s.Op; op != nil {
			u(int(op.Kind), int(op.Prim), op.P0, op.P1, b(op.Unlikely))
			args(op.Args...)
		}
	}
	u(len(d.Consts))
	for i := range d.Consts {
		c := &d.Consts[i]
		u(c.Width, b(c.Signed))
		words(c.Words)
	}
	u(len(d.Regs))
	for i := range d.Regs {
		r := &d.Regs[i]
		str(r.Name)
		u(int(r.Out), int(r.Next), int(r.Reset))
		words(r.Init)
	}
	u(len(d.Mems))
	for i := range d.Mems {
		m := &d.Mems[i]
		str(m.Name)
		u(m.Depth, m.Width)
	}
	u(len(d.MemReads))
	for i := range d.MemReads {
		r := &d.MemReads[i]
		u(r.Mem, int(r.Data))
		args(r.Addr, r.En)
	}
	u(len(d.MemWrites))
	for i := range d.MemWrites {
		w := &d.MemWrites[i]
		u(w.Mem)
		args(w.Addr, w.En, w.Data, w.Mask)
	}
	u(len(d.Displays))
	for i := range d.Displays {
		p := &d.Displays[i]
		str(p.Format)
		args(p.En)
		args(p.Args...)
	}
	u(len(d.Checks))
	for i := range d.Checks {
		c := &d.Checks[i]
		str(c.Msg)
		u(c.Code, b(c.Stop))
		args(c.En, c.Pred)
	}
	u(len(d.Inputs))
	for _, in := range d.Inputs {
		u(int(in))
	}
	u(len(d.Outputs))
	for _, o := range d.Outputs {
		u(int(o))
	}
	sum := sha256.Sum256(buf)
	return sum[:12]
}

func optsTag(gen codegen.Options) string {
	mode := "fc"
	if gen.Mode == codegen.ModeCCSS {
		mode = "ccss"
	}
	cp := gen.Cp
	if cp == 0 {
		cp = 8
	}
	tag := fmt.Sprintf("%s-cp%d", mode, cp)
	if gen.Elide {
		tag += "-elide"
	}
	if gen.NoElide {
		tag += "-noelide"
	}
	if gen.NoMuxShadow {
		tag += "-noshadow"
	}
	return tag
}

// DefaultCacheDir is where artifacts land when Config.CacheDir is
// empty: the user cache dir when resolvable, the system temp dir
// otherwise.
func DefaultCacheDir() string {
	if base, err := os.UserCacheDir(); err == nil {
		return filepath.Join(base, "essent-artifacts")
	}
	return filepath.Join(os.TempDir(), "essent-artifacts")
}

// cacheDir resolves the entry directory for a key.
func (c *Config) cacheDir(key string) string {
	base := c.CacheDir
	if base == "" {
		base = DefaultCacheDir()
	}
	return filepath.Join(base, key)
}

func fileSHA256(path string) (string, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:]), nil
}

// lookup returns the path of a validated cached binary, or "" on miss.
// A present-but-corrupt entry (checksum mismatch, unreadable metadata)
// is evicted so the caller rebuilds into a clean slot.
func (c *Config) lookup(key string) string {
	dir := c.cacheDir(key)
	bin := filepath.Join(dir, binName)
	metaBuf, err := os.ReadFile(filepath.Join(dir, metaName))
	if err != nil {
		if _, statErr := os.Stat(bin); statErr == nil {
			os.RemoveAll(dir) // binary without metadata: unusable
		}
		return ""
	}
	var meta cacheMeta
	if err := json.Unmarshal(metaBuf, &meta); err != nil {
		os.RemoveAll(dir)
		return ""
	}
	sum, err := fileSHA256(bin)
	if err != nil || sum != meta.SHA256 {
		os.RemoveAll(dir)
		return ""
	}
	return bin
}

// seal records a freshly built binary's checksum in dir (the build's
// private temp directory — buildOnce renames the sealed entry into the
// keyed slot afterwards, so lookup never observes a partial build).
func (c *Config) seal(dir string, d *netlist.Design, gen codegen.Options) error {
	sum, err := fileSHA256(filepath.Join(dir, binName))
	if err != nil {
		return err
	}
	meta := cacheMeta{
		Design:      d.Name,
		Fingerprint: fmt.Sprintf("%016x", sim.DesignFingerprint(d)),
		OptsTag:     optsTag(gen),
		SHA256:      sum,
		GoVersion:   runtime.Version(),
	}
	buf, err := json.MarshalIndent(&meta, "", "  ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, metaName+".tmp")
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(dir, metaName))
}

// Probe reports whether a validated artifact for the design + options
// pair is already cached (the "auto" backend's compiled-vs-interpreter
// decision, without triggering a build).
func Probe(d *netlist.Design, gen codegen.Options, cfg Config) bool {
	key, err := cfg.cacheKey(d, gen)
	return err == nil && cfg.lookup(key) != ""
}

// Evict removes the cache entry for a design + options pair (test and
// tooling hook).
func Evict(d *netlist.Design, gen codegen.Options, cfg Config) {
	if key, err := cfg.cacheKey(d, gen); err == nil {
		os.RemoveAll(cfg.cacheDir(key))
	}
}
