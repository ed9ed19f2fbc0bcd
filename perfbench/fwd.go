package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	"apna/internal/border"
	"apna/internal/crypto"
	"apna/internal/ephid"
	"apna/internal/hostdb"
	"apna/internal/netsim"
	"apna/internal/session"
	"apna/internal/wire"
)

// fwdConfig sizes the data-plane rig: a ring of ASes, one lane per AS
// toward the AS two hops away (so every frame crosses one transit AS),
// and a seeded schedule of frames per lane.
type fwdConfig struct {
	ases      int
	frameSize int
	// hosts is the number of hosts per AS. Each host holds one live
	// EphID and is a sender on one lane and a receiver on another.
	hosts int
	// slots is the length of each lane's frame schedule; batches cycle
	// through it.
	slots int
	// sessions is the number of host session pairs per lane (flow s
	// uses session s mod sessions) and of host key groups per AS (host
	// h holds group h mod sessions's kHA). Pooling keeps the sending
	// and receiving hosts' state as warm as it is on a real host, while
	// the routers still see one EphID, HID and cached MAC per host.
	sessions int
	batch    int
	badFrac  float64
}

// Data-plane configurations. smallCold has four times more hosts per
// AS than the 4096-entry per-pipeline EphID open cache, so opens,
// hostdb and revocation lookups miss caches; mtuHot and smallHot keep
// every cache warm.
var (
	smallCold = fwdConfig{ases: 4, frameSize: 128, hosts: 16384, slots: 1 << 16, sessions: 64, batch: 64, badFrac: 0.05}
	mtuHot    = fwdConfig{ases: 4, frameSize: 1518, hosts: 64, slots: 4096, sessions: 64, batch: 64, badFrac: 0.05}
	smallHot  = fwdConfig{ases: 4, frameSize: 128, hosts: 64, slots: 4096, sessions: 64, batch: 64, badFrac: 0.05}
)

// Adversarial frame kinds, one per drop verdict the path can reach.
const (
	good = iota
	badForgedSrc
	badExpiredSrc
	badRevokedSrc
	badMAC
	badForgedDst
	badRemoteRevokedSrc
	kindCount
)

// expectVerdict is the verdict each kind must get, and the stage
// (egress or ingress) that must give it.
var expectVerdict = [kindCount]struct {
	v       border.Verdict
	ingress bool
}{
	good:                {border.VerdictForward, true},
	badForgedSrc:        {border.VerdictDropBadEphID, false},
	badExpiredSrc:       {border.VerdictDropExpired, false},
	badRevokedSrc:       {border.VerdictDropRevoked, false},
	badMAC:              {border.VerdictDropBadMAC, false},
	badForgedDst:        {border.VerdictDropBadEphID, true},
	badRemoteRevokedSrc: {border.VerdictDropRevokedRemote, true},
}

// fixedNow is the clock every router and EphID expiry uses.
const fixedNow int64 = 1_000_000

type asNode struct {
	aid    ephid.AID
	sealer *ephid.Sealer
	db     *hostdb.DB
	router *border.Router
	// macs holds the host side of each key group's MAC key; host h uses
	// macs[h mod len(macs)].
	macs []*wire.PacketMAC
	// ephids holds each host's live EphID, indexed by HID-1.
	ephids []ephid.EphID
}

// mac is the sending host's packet MAC.
func (n *asNode) mac(host uint32) *wire.PacketMAC { return n.macs[int(host)%len(n.macs)] }

// slot is one scheduled frame: sender and receiver host indexes, the
// adversarial kind, and for some kinds a substitute EphID.
type slot struct {
	sender, receiver uint32
	kind             uint8
	alt              ephid.EphID
}

type lane struct {
	src, transit, dst *asNode
	egress            *border.EgressPipeline
	ingress           *border.IngressPipeline
	slots             []slot
	send, recv        []*session.Session
	cursor            int
}

// fwdRig is the data-plane world plus the batch scratch the loop
// reuses.
type fwdRig struct {
	cfg      fwdConfig
	ases     []*asNode
	lanes    []*lane
	payloads [][]byte // plaintext templates
	next     int64    // id of the next batch

	frames   [][]byte
	pts      [][]byte
	cts      [][]byte
	hdrs     []wire.Header
	aad      [][]byte
	batch    []*slot
	verdicts []border.Verdict
	fwdIdx   []int
	routed   [][]byte
	routedIx []int
	results  []border.IngressResult
	opened   [][]byte
	openIx   []int

	ingress   []border.IngressResult
	wasOpened []bool
	hids      []ephid.HID
}

// seededBytes fills n bytes from rng.
func seededBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// newFwdRig builds the rig. Every key comes from seed; only the
// sealers' IV bases come from crypto/rand (ephid.NewSealer draws them),
// so EphID bytes differ between runs while their count and layout do
// not.
func newFwdRig(cfg fwdConfig, seed int64) (*fwdRig, error) {
	rng := rand.New(rand.NewSource(seed))
	r := &fwdRig{cfg: cfg}
	exp := uint32(fixedNow) + 3600
	for i := 0; i < cfg.ases; i++ {
		secret, err := crypto.ASSecretFromBytes(seededBytes(rng, crypto.SymKeySize))
		if err != nil {
			return nil, err
		}
		sealer, err := ephid.NewSealer(secret)
		if err != nil {
			return nil, err
		}
		n := &asNode{aid: ephid.AID(100 + i), sealer: sealer, db: hostdb.New()}
		n.router, err = border.New(n.aid, sealer, n.db, secret, func() int64 { return fixedNow })
		if err != nil {
			return nil, err
		}
		groups := make([]crypto.HostASKeys, min(cfg.sessions, cfg.hosts))
		n.macs = make([]*wire.PacketMAC, len(groups))
		for g := range groups {
			groups[g] = crypto.DeriveHostASKeys(seededBytes(rng, 32))
			if n.macs[g], err = wire.NewPacketMAC(groups[g].MAC[:]); err != nil {
				return nil, err
			}
		}
		entries := make([]hostdb.Entry, cfg.hosts)
		n.ephids = make([]ephid.EphID, cfg.hosts)
		for h := range entries {
			hid := ephid.HID(h + 1)
			entries[h] = hostdb.Entry{HID: hid, Keys: groups[h%len(groups)], RegisteredAt: fixedNow}
			n.ephids[h] = sealer.Mint(ephid.Payload{HID: hid, ExpTime: exp})
		}
		n.db.PutBatch(entries)
		r.ases = append(r.ases, n)
	}

	// Ring links with computed routes, so LookupRoute resolves real
	// ports as it would in deployment.
	sim := netsim.New(seed)
	adj := make(map[ephid.AID][]ephid.AID, cfg.ases)
	for i, a := range r.ases {
		b := r.ases[(i+1)%cfg.ases]
		link := sim.NewLink(fmt.Sprintf("%v-%v", a.aid, b.aid), time.Millisecond, 0)
		a.router.AttachNeighbor(b.aid, link.A())
		b.router.AttachNeighbor(a.aid, link.B())
		adj[a.aid] = append(adj[a.aid], b.aid)
		adj[b.aid] = append(adj[b.aid], a.aid)
	}
	tables := netsim.ComputeAllRoutes(adj)
	byAID := make(map[ephid.AID]*asNode, cfg.ases)
	for _, a := range r.ases {
		a.router.SetRoutes(tables[a.aid])
		byAID[a.aid] = a
	}

	// Standing revocation lists sized like the host population: every
	// router's local list holds EphIDs of its own hosts that no good
	// frame carries, and its remote list holds entries announced by the
	// AS that sends to it.
	for i, a := range r.ases {
		origin := r.ases[(i+cfg.ases-2)%cfg.ases]
		for h := 0; h < cfg.hosts; h++ {
			a.router.Revoked().Insert(a.sealer.Mint(ephid.Payload{HID: ephid.HID(h + 1), ExpTime: exp}), exp)
			a.router.ApplyRemote(origin.sealer.Mint(ephid.Payload{HID: ephid.HID(h + 1), ExpTime: exp}), origin.aid, exp)
		}
	}

	for i, src := range r.ases {
		dst := r.ases[(i+2)%cfg.ases]
		l := &lane{
			src: src, dst: dst, transit: byAID[tables[src.aid][dst.aid]],
			egress:  src.router.NewEgressPipeline(),
			ingress: dst.router.NewIngressPipeline(),
		}
		if err := l.schedule(cfg, rng); err != nil {
			return nil, err
		}
		r.lanes = append(r.lanes, l)
	}

	ptLen := cfg.frameSize - wire.HeaderSize - sessionOverhead
	if ptLen < 8 {
		return nil, fmt.Errorf("frame size %d leaves no room for a message", cfg.frameSize)
	}
	for i := 0; i < 64; i++ {
		r.payloads = append(r.payloads, seededBytes(rng, ptLen))
	}
	b := cfg.batch
	r.frames = make([][]byte, b)
	r.pts = make([][]byte, b)
	r.cts = make([][]byte, b)
	r.aad = make([][]byte, b)
	for i := 0; i < b; i++ {
		r.frames[i] = make([]byte, 0, cfg.frameSize)
		r.pts[i] = make([]byte, ptLen)
		r.aad[i] = make([]byte, 0, aadLen)
	}
	r.hdrs = make([]wire.Header, b)
	r.batch = make([]*slot, 0, b)
	r.verdicts = make([]border.Verdict, 0, b)
	r.fwdIdx = make([]int, 0, b)
	r.routed = make([][]byte, 0, b)
	r.routedIx = make([]int, 0, b)
	r.results = make([]border.IngressResult, 0, b)
	r.opened = make([][]byte, b)
	r.openIx = make([]int, 0, b)
	r.ingress = make([]border.IngressResult, b)
	r.wasOpened = make([]bool, b)
	r.hids = make([]ephid.HID, b)
	return r, nil
}

// schedule draws the lane's frame sequence and its host sessions. Bad
// frames are placed at seeded positions and cycle through every kind.
func (l *lane) schedule(cfg fwdConfig, rng *rand.Rand) error {
	exp := uint32(fixedNow) + 3600
	l.slots = make([]slot, cfg.slots)
	nextBad := 0
	for j := range l.slots {
		s := &l.slots[j]
		s.sender = uint32(rng.Intn(cfg.hosts))
		s.receiver = uint32(rng.Intn(cfg.hosts))
		if rng.Float64() >= cfg.badFrac {
			continue
		}
		s.kind = uint8(1 + nextBad%(kindCount-1))
		nextBad++
		hid := ephid.HID(s.sender + 1)
		switch s.kind {
		case badForgedSrc, badForgedDst:
			rng.Read(s.alt[:])
		case badExpiredSrc:
			s.alt = l.src.sealer.Mint(ephid.Payload{HID: hid, ExpTime: uint32(fixedNow) - 10})
		case badRevokedSrc:
			s.alt = l.src.sealer.Mint(ephid.Payload{HID: hid, ExpTime: exp})
			l.src.router.Revoked().Insert(s.alt, exp)
		case badRemoteRevokedSrc:
			s.alt = l.src.sealer.Mint(ephid.Payload{HID: hid, ExpTime: exp})
			l.dst.router.ApplyRemote(s.alt, l.src.aid, exp)
		}
	}
	n := min(cfg.sessions, cfg.hosts)
	for k := 0; k < n; k++ {
		a, err := crypto.KeyPairFromSeed(seededBytes(rng, 32))
		if err != nil {
			return err
		}
		b, err := crypto.KeyPairFromSeed(seededBytes(rng, 32))
		if err != nil {
			return err
		}
		se, re := l.src.ephids[k], l.dst.ephids[k]
		ss, err := session.New(a, b.PublicKey(), se, re)
		if err != nil {
			return err
		}
		rs, err := session.New(b, a.PublicKey(), re, se)
		if err != nil {
			return err
		}
		l.send = append(l.send, ss)
		l.recv = append(l.recv, rs)
	}
	return nil
}

// sessionOverhead is the AEAD nonce plus tag a sealed message carries.
const sessionOverhead = 12 + 16

// aadLen is the size of the session AEAD's additional data.
const aadLen = 8 + 4 + ephid.Size + 4 + ephid.Size

// appendAAD builds the session additional data the host stack binds to
// every data packet: nonce, then source and destination AID:EphID.
func appendAAD(dst []byte, h *wire.Header) []byte {
	dst = binary.BigEndian.AppendUint64(dst, h.Nonce)
	dst = binary.BigEndian.AppendUint32(dst, uint32(h.SrcAID))
	dst = append(dst, h.SrcEphID[:]...)
	dst = binary.BigEndian.AppendUint32(dst, uint32(h.DstAID))
	return append(dst, h.DstEphID[:]...)
}

// fwdStats accumulates one data-plane phase.
type fwdStats struct {
	frames int64 // frames entering egress
	// Per batch: the summed egress + transit + ingress time, and the
	// first-seal-to-last-open latency.
	routerNs []float64
	latUs    []float64
	lat      latSum
	verdicts [border.VerdictCount]int64
	attempts int64
	failures int64
	failLog  []string
}

func (s *fwdStats) fail(format string, args ...any) {
	s.failures++
	if len(s.failLog) < 8 {
		s.failLog = append(s.failLog, fmt.Sprintf(format, args...))
	}
}

func (s *fwdStats) latTotal() latSum { return s.lat }

// fwdFault damages the first good frame of one batch after its MAC is
// applied: a negative check for the correctness gates.
type fwdFault struct {
	batch int64
}

// runBatches drives n batches through seal → frame → MAC → egress →
// transit → ingress → open, round-robin over the lanes. With a tracer
// it records one root span per batch with a child per layer, then
// replays the egress lookups on the batch's own frames.
func (r *fwdRig) runBatches(n int, st *fwdStats, tr *tracer, fault *fwdFault) {
	for b := 0; b < n; b++ {
		id := r.next
		r.next++
		r.batchOnce(r.lanes[id%int64(len(r.lanes))], id, st, tr, fault)
	}
}

func (r *fwdRig) batchOnce(l *lane, id int64, st *fwdStats, tr *tracer, fault *fwdFault) {
	cfg := r.cfg
	r.batch = r.batch[:0]
	for i := 0; i < cfg.batch; i++ {
		r.batch = append(r.batch, &l.slots[l.cursor])
		l.cursor = (l.cursor + 1) % len(l.slots)
	}
	nsess := len(l.send)

	// Plaintexts: a template stamped with the batch id and position, so
	// every message is distinct and checkable.
	for i, s := range r.batch {
		pt := r.pts[i]
		copy(pt, r.payloads[(int(id)+i)%len(r.payloads)])
		binary.BigEndian.PutUint64(pt, uint64(id)<<8|uint64(i))
		h := &r.hdrs[i]
		*h = wire.Header{
			NextProto: wire.ProtoSession, HopLimit: wire.DefaultHopLimit,
			SrcAID: l.src.aid, DstAID: l.dst.aid,
			SrcEphID: l.src.ephids[s.sender], DstEphID: l.dst.ephids[s.receiver],
		}
		switch s.kind {
		case badForgedSrc, badExpiredSrc, badRevokedSrc, badRemoteRevokedSrc:
			h.SrcEphID = s.alt
		case badForgedDst:
			h.DstEphID = s.alt
		}
	}

	t0 := time.Now()
	for i, s := range r.batch {
		sess := l.send[int(s.sender)%nsess]
		h := &r.hdrs[i]
		h.Nonce = sess.NextSeq()
		r.aad[i] = appendAAD(r.aad[i][:0], h)
		ct, err := sess.Seal(r.pts[i], r.aad[i])
		if err != nil {
			st.fail("seal: %v", err)
		}
		r.cts[i] = ct
	}
	t1 := time.Now()
	for i := range r.batch {
		p := wire.Packet{Header: r.hdrs[i], Payload: r.cts[i]}
		f, err := p.AppendTo(r.frames[i][:0])
		if err != nil {
			st.fail("frame: %v", err)
		}
		r.frames[i] = f
	}
	t2 := time.Now()
	for i, s := range r.batch {
		l.src.mac(s.sender).Apply(r.frames[i])
		if s.kind == badMAC {
			f := r.frames[i]
			f[len(f)-1] ^= 0xff
		}
	}
	t3 := time.Now()
	if fault != nil && fault.batch == id {
		for i, s := range r.batch {
			if s.kind == good {
				f := r.frames[i]
				f[len(f)-1] ^= 0x01
				break
			}
		}
	}

	// Egress at the source AS.
	t4 := time.Now()
	r.verdicts = l.egress.ProcessBatch(r.frames, r.verdicts[:0])
	t5 := time.Now()
	r.fwdIdx = r.fwdIdx[:0]
	for i, v := range r.verdicts {
		st.verdicts[v]++
		if v == border.VerdictForward {
			r.fwdIdx = append(r.fwdIdx, i)
		}
	}

	// Transit: route lookup at the source, then hop-limit decrement and
	// route lookup at the transit AS.
	t6 := time.Now()
	r.routed, r.routedIx = r.routed[:0], r.routedIx[:0]
	for _, i := range r.fwdIdx {
		f := r.frames[i]
		dst := wire.FrameDstAID(f)
		if _, ok := l.src.router.LookupRoute(dst); !ok {
			continue
		}
		if !wire.FrameDecrementHopLimit(f) {
			continue
		}
		if _, ok := l.transit.router.LookupRoute(dst); !ok {
			continue
		}
		r.routed = append(r.routed, f)
		r.routedIx = append(r.routedIx, i)
	}
	t7 := time.Now()

	// Ingress at the destination AS.
	r.results = l.ingress.ProcessBatch(r.routed, r.results[:0])
	t8 := time.Now()

	// Open at the receiving hosts.
	r.openIx = r.openIx[:0]
	opens := 0
	for k, res := range r.results {
		st.verdicts[res.Verdict]++
		if res.Verdict != border.VerdictForward {
			continue
		}
		i := r.routedIx[k]
		f := r.frames[i]
		opens++
		var h wire.Header
		_ = h.DecodeFromBytes(f) // f passed ingress, so it holds a full header
		r.aad[i] = appendAAD(r.aad[i][:0], &h)
		sess := l.recv[int(r.batch[i].sender)%nsess]
		pt, err := sess.Open(f[wire.HeaderSize:], r.aad[i])
		if err == nil {
			err = sess.AcceptSeq(h.Nonce)
		}
		if err != nil {
			st.fail("open frame %d of batch %d: %v", i, id, err)
			continue
		}
		r.opened[i] = pt
		r.openIx = append(r.openIx, i)
	}
	t9 := time.Now()

	st.frames += int64(len(r.batch))
	st.routerNs = append(st.routerNs, float64(t5.Sub(t4).Nanoseconds()+t8.Sub(t6).Nanoseconds()))
	us := float64(t9.Sub(t0).Nanoseconds()) / 1e3
	st.latUs = append(st.latUs, us)
	st.lat.us += us
	st.lat.n++
	r.check(id, st)

	if tr != nil {
		root := tr.add("fwd.batch", -1, id, 1, t0, t9)
		tr.add("session.seal", root, id, len(r.batch), t0, t1)
		tr.add("wire.frame", root, id, len(r.batch), t1, t2)
		tr.add("wire.mac_apply", root, id, len(r.batch), t2, t3)
		tr.add("border.egress", root, id, len(r.batch), t4, t5)
		tr.add("border.transit", root, id, len(r.fwdIdx), t6, t7)
		tr.add("border.ingress", root, id, len(r.routed), t7, t8)
		tr.add("session.open", root, id, opens, t8, t9)
		r.replay(l, id, st, tr)
	}
}

// check grades every frame of the batch against its expected verdict
// and every delivered message against its plaintext. Egress verdicts
// are in batch order; ingress results are mapped back through
// routedIx.
func (r *fwdRig) check(id int64, st *fwdStats) {
	for i := range r.batch {
		r.ingress[i] = border.IngressResult{Verdict: border.VerdictDropNoRoute}
		r.wasOpened[i] = false
	}
	for k, res := range r.results {
		r.ingress[r.routedIx[k]] = res
	}
	for _, i := range r.openIx {
		r.wasOpened[i] = true
	}
	for i, s := range r.batch {
		st.attempts++
		want := expectVerdict[s.kind]
		ev := r.verdicts[i]
		if !want.ingress {
			if ev != want.v {
				st.fail("batch %d frame %d kind %d: egress %v, want %v", id, i, s.kind, ev, want.v)
			}
			continue
		}
		if ev != border.VerdictForward {
			st.fail("batch %d frame %d kind %d: egress %v, want forward", id, i, s.kind, ev)
			continue
		}
		res := r.ingress[i]
		if res.Verdict != want.v {
			st.fail("batch %d frame %d kind %d: ingress %v, want %v", id, i, s.kind, res.Verdict, want.v)
			continue
		}
		if s.kind != good {
			continue
		}
		if res.HID != ephid.HID(s.receiver+1) {
			st.fail("batch %d frame %d: delivered to %v, want %v", id, i, res.HID, ephid.HID(s.receiver+1))
			continue
		}
		if !r.wasOpened[i] {
			continue // already counted when the open failed
		}
		if !bytes.Equal(r.opened[i], r.pts[i]) {
			st.fail("batch %d frame %d: plaintext differs", id, i)
		}
	}
}

// replay times the egress pipeline's lookups on the batch's own
// forwarded frames, one loop of calls per layer, outside the batch's
// span. The pipeline's open cache is bypassed, so ephid.open is the
// full decrypt.
func (r *fwdRig) replay(l *lane, id int64, st *fwdStats, tr *tracer) {
	n := len(r.fwdIdx)
	t0 := time.Now()
	for k, i := range r.fwdIdx {
		p, err := l.src.sealer.Open(wire.FrameSrcEphID(r.frames[i]))
		if err != nil {
			st.fail("replay open: %v", err)
		}
		r.hids[k] = p.HID
	}
	t1 := time.Now()
	for _, i := range r.fwdIdx {
		if l.src.router.Revoked().Contains(wire.FrameSrcEphID(r.frames[i])) {
			st.fail("replay: forwarded frame is revoked")
		}
	}
	t2 := time.Now()
	for k := 0; k < n; k++ {
		if _, err := l.src.db.MACKey(r.hids[k]); err != nil {
			st.fail("replay mackey: %v", err)
		}
	}
	t3 := time.Now()
	for _, i := range r.fwdIdx {
		if !l.src.mac(r.batch[i].sender).Verify(r.frames[i]) {
			st.fail("replay: MAC of a forwarded frame does not verify")
		}
	}
	t4 := time.Now()
	root := tr.add("fwd.replay", -1, id, 1, t0, t4)
	tr.add("ephid.open", root, id, n, t0, t1)
	tr.add("border.revoked_contains", root, id, n, t1, t2)
	tr.add("hostdb.mackey", root, id, n, t2, t3)
	tr.add("wire.mac_verify", root, id, n, t3, t4)
}
