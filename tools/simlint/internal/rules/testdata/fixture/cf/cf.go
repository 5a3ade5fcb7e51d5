// Package cf exercises the ctxflow rule: outside package main no function
// may mint a root context.
package cf

import "context"

// RunContext is a module-internal context-taking entry point.
func RunContext(ctx context.Context, n int) int {
	<-ctx.Done()
	return n
}

// Run is a context-free X → XContext convenience wrapper: flagged.
func Run(n int) int { return RunContext(context.Background(), n) }

// Fresh ignores its own context parameter: flagged.
func Fresh(ctx context.Context, n int) int {
	return RunContext(context.Background(), n)
}

// Derived proves deriving from a fresh root does not launder it: flagged.
func Derived(ctx context.Context, n int) int {
	c, cancel := context.WithCancel(context.Background())
	defer cancel()
	return RunContext(c, n)
}

// Threaded passes the caller's context through: clean.
func Threaded(ctx context.Context, n int) int {
	return RunContext(ctx, n)
}

// Spawn's goroutine drops the caller's context for a fresh root: flagged.
func Spawn(ctx context.Context, n int) {
	done := make(chan struct{})
	go func() {
		RunContext(context.TODO(), n)
		close(done)
	}()
	<-done
}

// Holder launders a root context through a struct field: the constructor
// parks it, a later method passes it on. No call ever receives a literal
// root context, so only the minting site can be flagged.
type Holder struct{ ctx context.Context }

// NewHolder mints the root context the field carries: flagged.
func NewHolder() *Holder {
	return &Holder{ctx: context.Background()}
}

// Go passes the parked context on; the call itself looks threaded.
func (h *Holder) Go(n int) int { return RunContext(h.ctx, n) }
