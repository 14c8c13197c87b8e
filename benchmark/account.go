package main

import (
	"fmt"
	"os"
	"sync"
)

// ledger counts operations and events for one run. Operations are phases,
// adjustments, requests and scrapes; an operation fails when the call
// returns an error or any correctness check on its outcome does not hold.
// Events are counted in enter units: enters reached the dispatch layer,
// lost ones never reached every attached backend (dropped by the async
// pipeline or swallowed by a panic barrier).
type ledger struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	enters    int64
	lost      int64
	firstErrs []string
}

// maxReportedErrs bounds how many failure messages go to standard error.
const maxReportedErrs = 10

// op records one attempted operation; a non-nil err marks it failed.
func (l *ledger) op(err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.attempted++
	if err != nil {
		l.failed++
		if len(l.firstErrs) < maxReportedErrs {
			l.firstErrs = append(l.firstErrs, err.Error())
		}
	}
}

// events records enters and the lost share of them.
func (l *ledger) events(enters, lost int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.enters += enters
	l.lost += lost
}

// errorRate is failed over attempted operations.
func (l *ledger) errorRate() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.attempted == 0 {
		return 1
	}
	return float64(l.failed) / float64(l.attempted)
}

// lossRatio is lost over total enters.
func (l *ledger) lossRatio() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.enters == 0 {
		return 0
	}
	return float64(l.lost) / float64(l.enters)
}

func (l *ledger) reportErrors() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, e := range l.firstErrs {
		fmt.Fprintln(os.Stderr, "capibench: failed:", e)
	}
}

// conservation checks the identity
//
//	enters == delivered + sampledOut + suppressed + collapsed + droppedAsync + droppedPanicked
//
// for one backend whose delivered count is observable, after the pipeline
// was drained.
type conservation struct {
	Enters, Delivered, SampledOut, Suppressed, Collapsed, DroppedAsync, DroppedPanicked int64
}

func (c conservation) check() error {
	rhs := c.Delivered + c.SampledOut + c.Suppressed + c.Collapsed + c.DroppedAsync + c.DroppedPanicked
	if rhs != c.Enters {
		return fmt.Errorf("conservation: enters %d != delivered %d + sampledOut %d + suppressed %d + collapsed %d + droppedAsync %d + droppedPanicked %d",
			c.Enters, c.Delivered, c.SampledOut, c.Suppressed, c.Collapsed, c.DroppedAsync, c.DroppedPanicked)
	}
	return nil
}

// lost is the part of the enters that did not reach the backend although
// no sampling policy asked for it.
func (c conservation) lost() int64 { return c.DroppedAsync + c.DroppedPanicked }
