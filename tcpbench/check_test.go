package main

import (
	"errors"
	"testing"
)

func TestValueStampRoundTrip(t *testing.T) {
	v := makeValue(77, 12)
	if len(v) != valueSize {
		t.Fatalf("value is %d bytes, want %d", len(v), valueSize)
	}
	seq, err := decodeValue(12, v)
	if err != nil || seq != 77 {
		t.Fatalf("decode = %d, %v; want 77", seq, err)
	}
	if _, err := decodeValue(13, v); !errors.Is(err, errBadValue) {
		t.Fatalf("another key's value accepted: %v", err)
	}
	v[500] ^= 1
	if _, err := decodeValue(12, v); !errors.Is(err, errBadValue) {
		t.Fatalf("flipped bit accepted: %v", err)
	}
	if _, err := decodeValue(12, []byte("short")); !errors.Is(err, errBadValue) {
		t.Fatalf("short value accepted: %v", err)
	}
}

// Helpers building histories; times are in ns.
func putOp(key int32, seq uint64, inv, done int64, st uint8) opRec {
	return opRec{put: true, key: key, seq: seq, inv: inv, done: done, st: st, sent: true}
}

func getOp(key int32, seq uint64, inv, done int64) opRec {
	return opRec{key: key, seq: seq, inv: inv, done: done, st: stOK, sent: true}
}

func TestCheckHistoryAcceptsLinearReads(t *testing.T) {
	ops := []opRec{
		putOp(1, 10, 0, 10, stOK),
		getOp(1, 10, 20, 30),
		putOp(1, 11, 40, 50, stOK),
		getOp(1, 10, 45, 55), // overlaps put 11: either value is allowed
		getOp(1, 11, 60, 70),
		putOp(1, 12, 80, 90, stTimeout), // ambiguous
		getOp(1, 12, 100, 110),          // may have landed
		getOp(1, 11, 120, 130),          // or not (yet)
	}
	checked, errs := checkHistory(ops)
	if len(errs) != 0 || checked != 5 {
		t.Fatalf("checked %d, errors %v", checked, errs)
	}
}

func TestCheckHistoryCatchesStaleRead(t *testing.T) {
	ops := []opRec{
		putOp(1, 10, 0, 10, stOK),
		putOp(1, 11, 20, 30, stOK),
		getOp(1, 10, 40, 50), // put 11 finished before this began
	}
	if _, errs := checkHistory(ops); len(errs) != 1 {
		t.Fatalf("stale read not caught: %v", errs)
	}
}

func TestCheckHistoryCatchesLostWriteAtReadBack(t *testing.T) {
	// Put 11 was acknowledged before a coordinator kill; the read-back
	// after the takeover still finds put 10.
	ops := []opRec{
		putOp(2, 10, 0, 10, stOK),
		putOp(2, 11, 20, 30, stOK),
		putOp(2, 12, 35, 45, stFailed), // failed, and it never reached a siftd
		getOp(2, 10, 1000, 1010),
	}
	ops[2].sent = false
	if _, errs := checkHistory(ops); len(errs) != 1 {
		t.Fatalf("lost write not caught: %v", errs)
	}
	// A failed put that never reached a siftd cannot explain a read.
	ops[3].seq = 12
	if _, errs := checkHistory(ops); len(errs) != 1 {
		t.Fatalf("read of an unsent put not caught: %v", errs)
	}
}

func TestCheckHistoryCatchesForeignAndMissingValues(t *testing.T) {
	ops := []opRec{
		putOp(3, 10, 0, 10, stOK),
		getOp(3, 99, 20, 30),                               // stamp no put of key 3 had
		{key: 3, inv: 40, done: 50, st: stNotFound},        // populated key missing
		{key: 3, inv: 60, done: 70, st: stBadValue},        // not a stamp
		getOp(3, 10, 5, 8),                                 // overlaps put 10: allowed
		putOp(4, 20, 100, 110, stOK), getOp(4, 20, 90, 95), // reads a put sent after it completed
		{key: 5, inv: 0, done: 10, st: stFailed}, // failed get: not checked
	}
	checked, errs := checkHistory(ops)
	if checked != 5 || len(errs) != 4 {
		t.Fatalf("checked %d, errors %d: %v", checked, len(errs), errs)
	}
}
