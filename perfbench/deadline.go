package main

import (
	"errors"
	"fmt"
	"time"
)

// errTimeout marks an op that missed its deadline.
var errTimeout = errors.New("op missed its deadline")

// runOp runs fn on its own goroutine and waits at most d for it. A
// panic in fn comes back as an error. An op that misses the deadline
// cannot be cancelled — simnet.Run, for one, waits forever when a rank
// fails before sending — so its goroutine is abandoned and the caller
// must issue no further op that shares its state.
func runOp(fn func() error, d time.Duration) error {
	done := make(chan error, 1) // buffered: an abandoned op can still finish and exit
	go func() {
		defer func() {
			if p := recover(); p != nil {
				done <- fmt.Errorf("panic: %v", p)
			}
		}()
		done <- fn()
	}()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case err := <-done:
		return err
	case <-t.C:
		return fmt.Errorf("%w (%v)", errTimeout, d)
	}
}
