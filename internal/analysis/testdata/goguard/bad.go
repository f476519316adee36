// Fixture: every line marked `want` must be flagged by goguard.
package fixtures

import "time"

type engine struct{ n int }

func (e *engine) sweep() {}

// unguardedLiteral launches a bare goroutine: a panic on that stack
// kills the process.
func unguardedLiteral(e *engine) {
	go func() { // want "without a recover"
		e.sweep()
	}()
}

// unguardedLoop launches workers without guards.
func unguardedLoop(e *engine) {
	for i := 0; i < 4; i++ {
		go func(i int) { // want "without a recover"
			e.n += i
		}(i)
	}
}

// namedFunction is not followed into the callee.
func namedFunction(e *engine) {
	go e.sweep() // want "named function"
}

// namedPackageFunc is equally unverifiable.
func namedPackageFunc(done chan struct{}) {
	go close(done) // want "named function"
}

// deferWithoutRecover has a defer, but no recover inside it: the guard
// must actually call recover.
func deferWithoutRecover(e *engine) {
	go func() { // want "without a recover"
		defer e.sweep()
		time.Sleep(time.Millisecond)
	}()
}

// innerGoroutineUnguarded nests an unguarded launch inside a guarded one:
// the inner stack is fresh and the outer recover does not cover it.
func innerGoroutineUnguarded(e *engine) {
	go func() {
		defer func() { recover() }()
		go func() { // want "without a recover"
			e.sweep()
		}()
	}()
}
