package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"sort"
)

// Values are the paper's §6.2 maximum, 992 B, and carry their own stamp so
// every value read back can be traced to the put that wrote it:
//
//	[0:4]   magic "SFTB"
//	[4:12]  put sequence number
//	[12:16] key index
//	[16:20] CRC-32C of bytes [0:16] and [20:]
//	[20:]   filler derived from the sequence number
const (
	valueSize   = 992
	valueMagic  = "SFTB"
	stampHeader = 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// keyName is the wire key of working-set entry i.
func keyName(i int32) []byte { return []byte(fmt.Sprintf("k%06d", i)) }

// makeValue builds the stamped value a put with sequence seq writes to key i.
func makeValue(seq uint64, key int32) []byte {
	v := make([]byte, valueSize)
	copy(v, valueMagic)
	binary.LittleEndian.PutUint64(v[4:12], seq)
	binary.LittleEndian.PutUint32(v[12:16], uint32(key))
	x := seq*0x9E3779B97F4A7C15 + 1
	for i := stampHeader; i+8 <= valueSize; i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(v[i:], x)
	}
	binary.LittleEndian.PutUint32(v[16:20], valueCRC(v))
	return v
}

func valueCRC(v []byte) uint32 {
	c := crc32.Update(0, castagnoli, v[:16])
	return crc32.Update(c, castagnoli, v[stampHeader:])
}

// errBadValue marks a value that is not a well-formed stamp for its key.
var errBadValue = errors.New("bad value")

// decodeValue checks that v is an intact stamped value for key i and
// returns its sequence number.
func decodeValue(key int32, v []byte) (uint64, error) {
	if len(v) != valueSize || string(v[:4]) != valueMagic {
		return 0, fmt.Errorf("%w: key %d: %d bytes, not a stamp", errBadValue, key, len(v))
	}
	if got := binary.LittleEndian.Uint32(v[16:20]); got != valueCRC(v) {
		return 0, fmt.Errorf("%w: key %d: checksum mismatch", errBadValue, key)
	}
	if k := int32(binary.LittleEndian.Uint32(v[12:16])); k != key {
		return 0, fmt.Errorf("%w: key %d holds key %d's value", errBadValue, key, k)
	}
	return binary.LittleEndian.Uint64(v[4:12]), nil
}

// Op outcomes.
const (
	stOK       uint8 = iota + 1
	stFailed         // error reply, or no coordinator before the op's deadline
	stTimeout        // a call ran past its bound; the benchmark redialled
	stNotFound       // get answered "not found": every key was populated
	stBadValue       // get returned a value that is not a stamp for its key
	stDropped        // generator queue full: never sent
)

// opRec is one operation as the benchmark saw it. Times are nanoseconds
// since the run's epoch: due is the scheduled arrival, inv the first send,
// done the reply (or the give-up).
type opRec struct {
	due, inv, done int64
	seq            uint64 // put: the value's stamp; get: the stamp read
	key            int32
	put            bool
	st             uint8
	sent           bool // at least one request reached a siftd
}

// latency returns the op's latency from its scheduled arrival in ms, +Inf
// for an op that did not complete OK.
func (r *opRec) latency() float64 {
	if r.st != stOK {
		return math.Inf(1)
	}
	return float64(r.done-r.due) / 1e6
}

// checkHistory verifies every read the run made against the puts it made.
// ops must hold every put (populate included) and every get (final
// read-back included) of one group's lifetime. A put is acknowledged when
// it completed OK; any other put that reached a siftd may or may not have
// taken effect and is treated as able to land at any time after it was
// sent. A get of key k that returned put R is wrong when
//
//   - R is not a put of k sent before the get completed, or
//   - R was acknowledged and some other acknowledged put Q of k was sent
//     after R's acknowledgement and acknowledged before the get was sent
//     (the get missed a write that was complete before it began).
//
// The final read-back is an ordinary get sent after every put finished, so
// the same rule says each key must hold its last acknowledged write or an
// ambiguous one: no acknowledged write was lost, across every failover.
// checkHistory returns the number of gets checked and the first few errors.
func checkHistory(ops []opRec) (checked int, errs []error) {
	type putInfo struct {
		inv, ack int64 // ack = MaxInt64 when not acknowledged
		acked    bool
	}
	puts := map[int32]map[uint64]putInfo{}
	acks := map[int32][]putInfo{} // acknowledged puts per key, sorted by ack below
	for i := range ops {
		r := &ops[i]
		if !r.put || !(r.st == stOK || r.sent) {
			continue
		}
		pi := putInfo{inv: r.inv, ack: math.MaxInt64}
		if r.st == stOK {
			pi.ack, pi.acked = r.done, true
			acks[r.key] = append(acks[r.key], pi)
		}
		m := puts[r.key]
		if m == nil {
			m = map[uint64]putInfo{}
			puts[r.key] = m
		}
		m[r.seq] = pi
	}
	for k := range acks {
		sort.Slice(acks[k], func(i, j int) bool { return acks[k][i].ack < acks[k][j].ack })
	}
	fail := func(err error) {
		if len(errs) < 8 {
			errs = append(errs, err)
		}
	}
	for i := range ops {
		g := &ops[i]
		if g.put {
			continue
		}
		switch g.st {
		case stOK:
		case stNotFound:
			checked++
			fail(fmt.Errorf("get key %d: not found, but the key was populated", g.key))
			continue
		case stBadValue:
			checked++
			fail(fmt.Errorf("get key %d: returned a value that is not its stamp", g.key))
			continue
		default:
			continue
		}
		checked++
		r, ok := puts[g.key][g.seq]
		if !ok || r.inv > g.done {
			fail(fmt.Errorf("get key %d: returned stamp %d, which no put of this key had sent", g.key, g.seq))
			continue
		}
		if !r.acked {
			continue
		}
		for _, q := range acks[g.key] {
			if q.ack >= g.inv {
				break
			}
			if q.inv > r.ack {
				fail(fmt.Errorf("get key %d: returned stamp %d, but a later put acknowledged %.3f ms before the get began had overwritten it",
					g.key, g.seq, float64(g.inv-q.ack)/1e6))
				break
			}
		}
	}
	return checked, errs
}
