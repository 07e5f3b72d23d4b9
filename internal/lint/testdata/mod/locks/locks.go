// Package locks injects a copied mutex for TestVetCatchesCopiedLock: go
// vet's copylocks, not esglint, owns that invariant.
package locks

import "sync"

type Counter struct {
	mu sync.Mutex
	N  int
}

func Snapshot(c *Counter) Counter {
	return *c // injected copylocks violation
}
