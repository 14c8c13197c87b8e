package main

import (
	"errors"
	"testing"
)

func TestLedgerRates(t *testing.T) {
	var l ledger
	if l.errorRate() != 1 {
		t.Error("a run with no operations must not read as error-free")
	}
	for i := 0; i < 8; i++ {
		l.op(nil)
	}
	l.op(errors.New("phase failed"))
	l.op(errors.New("check failed"))
	if got := l.errorRate(); got != 0.2 {
		t.Errorf("error rate = %g, want 0.2", got)
	}
	if l.lossRatio() != 0 {
		t.Error("loss ratio without events must be 0")
	}
	l.events(900, 0)
	l.events(100, 50)
	if got := l.lossRatio(); got != 0.05 {
		t.Errorf("loss ratio = %g, want 0.05", got)
	}
}

func TestConservation(t *testing.T) {
	ok := conservation{Enters: 100, Delivered: 90, SampledOut: 4, Suppressed: 3, Collapsed: 1, DroppedAsync: 1, DroppedPanicked: 1}
	if err := ok.check(); err != nil {
		t.Errorf("balanced identity rejected: %v", err)
	}
	if ok.lost() != 2 {
		t.Errorf("lost = %d, want 2 (async drops and panics, not sampling)", ok.lost())
	}
	bad := ok
	bad.Delivered--
	if bad.check() == nil {
		t.Error("an enter missing from every term was accepted")
	}
}
