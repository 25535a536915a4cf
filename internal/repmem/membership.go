package repmem

import (
	"encoding/binary"
	"sync"

	"github.com/repro/sift/internal/memnode"
	"github.com/repro/sift/internal/rdma"
)

// Membership tracking: the coordinator publishes its view of the live
// memory nodes as an epoch+term-tagged record on every writable node's
// admin region (see memnode.AdminMembershipOffset). A successor coordinator
// consults the highest-(term,version) record of its own config epoch and
// rebuilds any node absent from that bitmap — closing the window where a
// node that silently missed updates (partitioned with its DRAM intact)
// would otherwise be read as if current. Stale coordinators can keep
// writing their old records without harm: readers take the maximum, and
// records from other epochs describe a different member list entirely, so
// they are ignored outright rather than merely term-compared.

// membership is the publisher-side state.
type membership struct {
	mu      sync.Mutex
	version uint16
}

// publishMembership writes the current live-node bitmap, tagged with this
// group's config epoch and this coordinator's term, to every writable node.
// Best effort for progress — if the group has lost its quorum the write set
// shrinks accordingly and progress stops elsewhere anyway — but failures
// are counted and surfaced (Stats.MembershipPublishErrors, a
// "membership.publish-error" event) so a wedged admin region is visible
// before a failover trips over it.
func (m *Memory) publishMembership() {
	if m.closed.Load() || m.fenced.Load() {
		return
	}
	m.member.mu.Lock()
	m.member.version++
	version := m.member.version
	var bitmap uint32
	for i := range m.nodes {
		if m.state[i].Load() == nodeLive {
			bitmap |= 1 << uint(i)
		}
	}
	w0, w1 := memnode.PackMembership(m.epoch.Load(), m.cfg.Term, version, bitmap)
	m.member.mu.Unlock()

	// One 16-byte write so the record can't tear across two operations
	// (the complement check in UnpackMembership catches torn media too).
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:8], w0)
	binary.LittleEndian.PutUint64(buf[8:], w1)
	for _, i := range m.writableNodes() {
		c, err := m.conn(i)
		if err == nil {
			err = c.Write(memnode.AdminRegionID, memnode.AdminMembershipOffset, buf[:])
		}
		if err != nil {
			// Do not feed noteResult (a death would republish); the next
			// operation against this node will detect the failure.
			m.stats.membershipPublishErrors.Add(1)
			m.emit("membership.publish-error", m.nodeName(i), err.Error())
			continue
		}
	}
}

// PublishServing writes this group's (configEpoch, term) to every writable
// node's serving word (memnode.AdminServingOffset), marking the takeover
// complete: recovery and replay are done and the table structures are
// stable apart from live applies. Backup readers refuse to serve a lease
// whose (epoch, term) has no matching serving word — the epoch half keeps
// views built against an outgoing member set from serving after a
// reconfiguration cutover. Best effort, like publishMembership.
func (m *Memory) PublishServing() {
	if m.closed.Load() || m.fenced.Load() {
		return
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], memnode.PackServing(m.epoch.Load(), m.cfg.Term))
	for _, i := range m.writableNodes() {
		c, err := m.conn(i)
		if err == nil {
			err = c.Write(memnode.AdminRegionID, memnode.AdminServingOffset, buf[:])
		}
		if err != nil {
			continue
		}
	}
}

// readServing returns the highest (epoch, term) serving word readable
// across the given connections, or ok=false when none is set.
func readServing(conns []rdma.Verbs) (epoch uint32, term uint16, ok bool) {
	var best uint64
	for _, c := range conns {
		if c == nil {
			continue
		}
		var buf [8]byte
		if err := c.Read(memnode.AdminRegionID, memnode.AdminServingOffset, buf[:]); err != nil {
			continue
		}
		if w := binary.LittleEndian.Uint64(buf[:]); w > best {
			best = w
		}
	}
	epoch, term = memnode.UnpackServing(best)
	return epoch, term, best != 0
}

// readMembershipAt returns the highest-(term,version) membership record of
// the given config epoch readable across the connections, or ok=false when
// none is set. Records of any other epoch — older or newer — are skipped:
// their bitmap's bit positions index a different member list. (A caller
// that needs to detect a newer epoch reads the epoch word, not this.)
func readMembershipAt(conns []rdma.Verbs, epoch uint32) (term, version uint16, bitmap uint32, ok bool) {
	for _, c := range conns {
		if c == nil {
			continue
		}
		var buf [16]byte
		if err := c.Read(memnode.AdminRegionID, memnode.AdminMembershipOffset, buf[:]); err != nil {
			continue
		}
		w0 := binary.LittleEndian.Uint64(buf[:8])
		w1 := binary.LittleEndian.Uint64(buf[8:])
		e, t, v, b, valid := memnode.UnpackMembership(w0, w1)
		if !valid || e != epoch {
			continue
		}
		if !ok || t > term || (t == term && v > version) {
			term, version, bitmap, ok = t, v, b, true
		}
	}
	return term, version, bitmap, ok
}
