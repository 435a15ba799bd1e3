package sim

// ForcePool lowers the batch engine's pool cutoff to its minimum so that
// every active parallel spec crosses the barrier. Compiled into test
// binaries only: it lets external tests that need internal/designs (which
// imports this package) drive the pooled path on designs too thin to
// clear the cutoff on their own.
func (b *BatchCCSS) ForcePool() { b.parCutoff = 1 }
